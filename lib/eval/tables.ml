module Benchmarks = Specrepair_benchmarks
module Metrics = Specrepair_metrics
module Llm = Specrepair_llm

let techniques_in results =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (r : Study.spec_result) ->
      if Hashtbl.mem seen r.technique then None
      else begin
        Hashtbl.add seen r.technique ();
        Some r.technique
      end)
    results

let traditional = List.map Technique.name Technique.traditional
let llm_based = List.map Technique.name Technique.llm_based
let paper = traditional @ llm_based

(* keep the paper's column order where possible *)
let ordered_techniques results =
  let present = techniques_in results in
  List.filter (fun t -> List.mem t present) paper
  @ List.filter (fun t -> not (List.mem t paper)) present

let for_technique results technique =
  List.filter (fun (r : Study.spec_result) -> r.technique = technique) results

let rep_count results ~technique =
  List.fold_left
    (fun acc (r : Study.spec_result) -> acc + r.rep)
    0
    (for_technique results technique)

let rep_count_in results ~technique ~benchmark =
  List.fold_left
    (fun acc (r : Study.spec_result) ->
      if r.benchmark = benchmark then acc + r.rep else acc)
    0
    (for_technique results technique)

let mean f results ~technique =
  match for_technique results technique with
  | [] -> 0.
  | rs ->
      List.fold_left (fun acc r -> acc +. f r) 0. rs /. float_of_int (List.length rs)

let mean_tm = mean (fun (r : Study.spec_result) -> r.tm)
let mean_sm = mean (fun (r : Study.spec_result) -> r.sm)

(* per-variant match score vectors, aligned across techniques *)
let score_vectors results t1 t2 =
  let score (r : Study.spec_result) = (r.tm +. r.sm) /. 2. in
  let by_variant technique =
    let tbl = Hashtbl.create 256 in
    List.iter
      (fun (r : Study.spec_result) ->
        if r.technique = technique then Hashtbl.replace tbl r.variant_id (score r))
      results;
    tbl
  in
  let v1 = by_variant t1 and v2 = by_variant t2 in
  let shared =
    Hashtbl.fold
      (fun id s1 acc ->
        match Hashtbl.find_opt v2 id with
        | Some s2 -> (id, s1, s2) :: acc
        | None -> acc)
      v1 []
    |> List.sort compare
  in
  ( Array.of_list (List.map (fun (_, s, _) -> s) shared),
    Array.of_list (List.map (fun (_, _, s) -> s) shared) )

let correlation results ~t1 ~t2 =
  let xs, ys = score_vectors results t1 t2 in
  Metrics.Pearson.correlate xs ys

let repaired_set results technique =
  List.filter_map
    (fun (r : Study.spec_result) ->
      if r.technique = technique && r.rep = 1 then Some r.variant_id else None)
    results
  |> List.sort_uniq compare

(* the sets are sorted, so their overlap is one merge *)
let rec overlap_count a b =
  match (a, b) with
  | x :: a', y :: b' ->
      let c = compare x y in
      if c = 0 then 1 + overlap_count a' b'
      else if c < 0 then overlap_count a' b
      else overlap_count a b'
  | _ -> 0

let hybrid results ~traditional ~llm =
  let a = repaired_set results traditional in
  let b = repaired_set results llm in
  let overlap = overlap_count a b in
  (List.length a, overlap, List.length a + List.length b - overlap)

(* {2 Panel coverage} *)

(* The profile behind a study column label: Some "gemini-pro" for
   "Multi-Round_Auto@gemini-pro", Some "gpt-4" for the bare labels, None
   for traditional tools and foreign labels. *)
let profile_of_label label =
  match Technique.of_name label with
  | Some t ->
      Option.map
        (fun (p : Llm.Model.profile) -> p.name)
        (Technique.profile_of t)
  | None -> None

let union_sets sets = List.sort_uniq compare (List.concat sets)

let panel_coverage results =
  let labels = techniques_in results in
  let per_profile =
    List.filter_map
      (fun (p : Llm.Model.profile) ->
        let mine =
          List.filter (fun l -> profile_of_label l = Some p.name) labels
        in
        if mine = [] then None
        else
          Some
            ( p.name,
              List.length mine,
              union_sets (List.map (repaired_set results) mine) ))
      Llm.Model.panel
  in
  let union = union_sets (List.map (fun (_, _, s) -> s) per_profile) in
  (per_profile, union)

(* {2 Rows}

   Each artifact's rows are computed here once; the text views and the
   CSVs below only print them. *)

let domain_order =
  List.map (fun (d : Benchmarks.Domains.t) -> d.name) Benchmarks.Domains.all

let domains_in results =
  let present =
    List.sort_uniq compare
      (List.map (fun (r : Study.spec_result) -> r.domain) results)
  in
  List.filter (fun d -> List.mem d present) domain_order

let count_where results pred =
  List.fold_left
    (fun acc (r : Study.spec_result) -> if pred r then acc + r.rep else acc)
    0 results

let spec_count results =
  List.length
    (List.sort_uniq compare
       (List.map (fun (r : Study.spec_result) -> r.variant_id) results))

(* the present techniques of one group, in the paper's order *)
let present_in techniques group =
  List.filter (fun t -> List.mem t group) techniques

type count_row = { label : string; nspec : int; counts : int list }

let count_row techniques label rows =
  {
    label;
    nspec = spec_count rows;
    counts =
      List.map
        (fun t -> count_where rows (fun r -> r.technique = t))
        techniques;
  }

(* Table I: per benchmark present, its name, one row per domain and its
   summary row *)
let table1_rows results =
  let techniques = ordered_techniques results in
  List.filter_map
    (fun bench ->
      match
        List.filter (fun (r : Study.spec_result) -> r.benchmark = bench) results
      with
      | [] -> None
      | rows ->
          let domain d =
            count_row techniques d
              (List.filter (fun (r : Study.spec_result) -> r.domain = d) rows)
          in
          Some
            ( Benchmarks.Domains.benchmark_to_string bench,
              List.map domain (domains_in rows),
              count_row techniques "Summary" rows ))
    [ Benchmarks.Domains.A4F; Benchmarks.Domains.ARepair_bench ]

let fig2_rows results =
  List.map
    (fun t -> (t, mean_tm results ~technique:t, mean_sm results ~technique:t))
    (ordered_techniques results)

(* Figure 3: one matrix row per technique, its (other, r, p) cells *)
let fig3_rows results =
  let techniques = ordered_techniques results in
  List.map
    (fun t1 ->
      ( t1,
        List.map
          (fun t2 ->
            let r, p = correlation results ~t1 ~t2 in
            (t2, r, p))
          techniques ))
    techniques

type hybrid_row = {
  traditional : string;
  trad_repairs : int;
  llm : string;
  llm_repairs : int;
  overlap : int;
  union : int;
}

(* Table II: every present (traditional, LLM) pair *)
let table2_rows results =
  let techniques = ordered_techniques results in
  List.concat_map
    (fun trad ->
      List.map
        (fun llm ->
          let trad_repairs, overlap, union =
            hybrid results ~traditional:trad ~llm
          in
          {
            traditional = trad;
            trad_repairs;
            llm;
            llm_repairs = rep_count results ~technique:llm;
            overlap;
            union;
          })
        (present_in techniques llm_based))
    (present_in techniques traditional)

(* {2 The paper's shape} *)

(* The paper's Table I totals, over its 1,974 specifications. *)
let paper_specs = 1974

let paper_totals =
  [
    ("ARepair", 194); ("ICEBAR", 1072); ("BeAFix", 1005); ("ATR", 1308);
    ("Single-Round_Loc+Fix", 430); ("Single-Round_Loc", 517);
    ("Single-Round_Pass", 329); ("Single-Round_None", 151);
    ("Single-Round_Loc+Pass", 385); ("Multi-Round_None", 1372);
    ("Multi-Round_Generic", 1319); ("Multi-Round_Auto", 1264);
  ]

let single_round = List.filter (String.starts_with ~prefix:"Single") paper
let multi_round = List.filter (String.starts_with ~prefix:"Multi") paper
let r_of results t1 t2 = fst (correlation results ~t1 ~t2)
let min_of = List.fold_left Float.min Float.infinity

let rec distinct_pairs = function
  | [] -> []
  | a :: rest -> List.map (fun b -> (a, b)) rest @ distinct_pairs rest

(* Figure 3's clusters: the traditional tools' weakest internal r, the
   MR_Generic~MR_Auto r, and the weakest single-round-vs-traditional r *)
let fig3_clusters results =
  let r = r_of results in
  ( min_of (List.map (fun (a, b) -> r a b) (distinct_pairs traditional)),
    r "Multi-Round_Generic" "Multi-Round_Auto",
    min_of
      (List.concat_map
         (fun a -> List.map (r a) traditional)
         single_round) )

let shape_checks results =
  let n t = rep_count results ~technique:t in
  let in_bench benchmark t = rep_count_in results ~technique:t ~benchmark in
  let a4f = in_bench Benchmarks.Domains.A4F in
  let arep = in_bench Benchmarks.Domains.ARepair_bench in
  let max_of f ts = List.fold_left max min_int (List.map f ts) in
  let min_of_int f ts = List.fold_left min max_int (List.map f ts) in
  let top4 =
    List.filteri
      (fun i _ -> i < 4)
      (List.stable_sort (fun a b -> compare (a4f b) (a4f a)) paper)
  in
  let mean_of f ts =
    List.fold_left (fun acc t -> acc +. f results ~technique:t) 0. ts
    /. float_of_int (List.length ts)
  in
  let r = r_of results in
  let trad_internal, _, _ = fig3_clusters results in
  let cross = r "Single-Round_None" "ATR" in
  let union tr llm =
    let _, _, u = hybrid results ~traditional:tr ~llm in
    u
  in
  let best_union_with tr = max_of (union tr) llm_based in
  let best_union = max_of best_union_with traditional in
  let gain tr =
    float_of_int (best_union_with tr) /. float_of_int (max 1 (n tr))
  in
  let total = float_of_int (spec_count results) in
  [
    ( "A4F: Multi-Round family and ATR/BeAFix dominate the top 4",
      List.length
        (List.filter
           (fun t -> List.mem t (multi_round @ [ "ATR"; "BeAFix" ]))
           top4)
      >= 3 );
    ( "A4F: ICEBAR > every Single-Round setting",
      List.for_all (fun t -> a4f "ICEBAR" > a4f t) single_round );
    ( "A4F: every Single-Round setting > ARepair is FALSE for weak hints \
       (ARepair lowest among traditional)",
      a4f "ARepair" = min_of_int a4f traditional );
    ( "A4F: Single-Round_None is the weakest technique",
      n "Single-Round_None" = min_of_int n paper );
    ( "ARepair bench: a Multi-Round setting is at or near the top",
      max_of arep multi_round >= max_of arep paper - 2 );
    ( "ARepair bench: BeAFix is the best traditional tool",
      arep "BeAFix" = max_of arep traditional );
    ( "Fig 2: SM >= TM for most techniques",
      List.length
        (List.filter
           (fun t ->
             mean_sm results ~technique:t >= mean_tm results ~technique:t)
           paper)
      >= 8 );
    ( "Fig 2: traditional mean TM >= LLM mean TM",
      mean_of mean_tm traditional >= mean_of mean_tm llm_based );
    ( "Fig 3: traditional internal correlation exceeds single-vs-traditional",
      trad_internal > cross );
    ( "Fig 3: MR_Generic ~ MR_Auto is a strong pair",
      r "Multi-Round_Generic" "Multi-Round_Auto" > cross );
    ( "Hybrids: best union beats best individual technique",
      best_union > max_of n paper );
    ( "Hybrids: best union is in the 80-90% band (paper: 85.5%)",
      0.78 *. total <= float_of_int best_union
      && float_of_int best_union <= 0.93 *. total );
    ( "Hybrids: ARepair gains the most from hybridisation (relative)",
      List.for_all (fun tr -> gain "ARepair" >= gain tr) traditional );
  ]

(* {2 Text rendering} *)

let table1 results =
  let techniques = ordered_techniques results in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "TABLE I: REP scores (specifications repaired) per technique\n\n";
  add "%-14s %6s" "Domain" "#spec";
  List.iter (fun t -> add " %14s" t) techniques;
  add "\n";
  let row { label; nspec; counts } =
    add "%-14s %6d" label nspec;
    List.iter (add " %14d") counts;
    add "\n"
  in
  List.iter
    (fun (bench, domains, summary) ->
      add "-- %s benchmark --\n" bench;
      List.iter row domains;
      row summary)
    (table1_rows results);
  add "-- Total --\n";
  row (count_row techniques "Total" results);
  Buffer.contents buf

let fig2 results =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "FIGURE 2: similarity to ground truth (mean over all candidates)\n\n";
  add "%-24s %8s %8s\n" "Technique" "TM" "SM";
  List.iter
    (fun (t, tm, sm) -> add "%-24s %8.3f %8.3f\n" t tm sm)
    (fig2_rows results);
  Buffer.contents buf

let fig3 results =
  let rows = fig3_rows results in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "FIGURE 3: Pearson correlation of per-spec match scores\n\n";
  add "%-24s" "";
  List.iter
    (fun (t, _) -> add " %10s" (String.sub t 0 (min 10 (String.length t))))
    rows;
  add "\n";
  let insignificant = ref 0 in
  List.iter
    (fun (t1, cells) ->
      add "%-24s" t1;
      List.iter
        (fun (t2, r, p) ->
          if p >= 0.001 && t1 <> t2 then incr insignificant;
          add " %10.3f" r)
        cells;
      add "\n")
    rows;
  add "\n(%d off-diagonal pairs with p >= 0.001)\n" (!insignificant / 2);
  Buffer.contents buf

let table2 results =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "TABLE II: hybrid approaches (traditional + LLM)\n\n";
  add "%-10s %8s  %-24s %8s %8s %8s\n" "Trad." "repairs" "LLM technique"
    "repairs" "overlap" "union";
  List.iter
    (fun h ->
      add "%-10s %8d  %-24s %8d %8d %8d\n" h.traditional h.trad_repairs h.llm
        h.llm_repairs h.overlap h.union)
    (table2_rows results);
  Buffer.contents buf

let summary results =
  let techniques = ordered_techniques results in
  let nspec = spec_count results in
  let pct n total = 100. *. float_of_int n /. float_of_int (max 1 total) in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "SUMMARY (%d specifications)\n\n" nspec;
  let ranked =
    List.sort
      (fun a b -> compare (snd b) (snd a))
      (List.map (fun t -> (t, rep_count results ~technique:t)) techniques)
  in
  add "Individual techniques by repairs:\n";
  List.iter
    (fun (t, c) -> add "  %-24s %5d (%.1f%%)\n" t c (pct c nspec))
    ranked;
  (match
     List.stable_sort (fun a b -> compare b.union a.union) (table2_rows results)
   with
  | h :: _ ->
      add "\nBest hybrid: %s + %s = %d repairs (%.1f%%)\n" h.traditional h.llm
        h.union (pct h.union nspec)
  | [] -> ());
  add "\nMean runtime per attempt:\n";
  List.iter
    (fun t ->
      let rs = for_technique results t in
      let mean_ms =
        List.fold_left (fun acc (r : Study.spec_result) -> acc +. r.time_ms) 0. rs
        /. float_of_int (max 1 (List.length rs))
      in
      add "  %-24s %8.1f ms\n" t mean_ms)
    techniques;
  (* the comparison with the paper needs its whole roster *)
  if List.for_all (fun t -> List.mem t techniques) paper then begin
    add "\nPaper vs. measured repairs (paper over %d specifications):\n"
      paper_specs;
    List.iter
      (fun (t, p) ->
        let m = rep_count results ~technique:t in
        add "  %-24s %5d (%4.1f%%) %5d (%4.1f%%)\n" t p (pct p paper_specs) m
          (pct m nspec))
      paper_totals;
    let trad_min, mr_pair, cross_min = fig3_clusters results in
    add
      "\nFigure 3: traditional cluster minimum r = %.3f; MR_Generic~MR_Auto \
       r = %.3f; weakest single-round-vs-traditional r = %.3f (paper: \
       0.972+, 0.949, down to 0.644)\n"
      trad_min mr_pair cross_min;
    add "\nShape checklist:\n";
    let checks = shape_checks results in
    List.iter
      (fun (label, ok) -> add "- [%c] %s\n" (if ok then 'x' else ' ') label)
      checks;
    add "\n%d/%d checks hold.\n"
      (List.length (List.filter snd checks))
      (List.length checks)
  end;
  Buffer.contents buf

let panel_table results =
  let per_profile, union = panel_coverage results in
  let nspec = spec_count results in
  let pct n = 100. *. float_of_int n /. float_of_int (max 1 nspec) in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "TABLE III: model-panel coverage (union analysis across profiles)\n\n";
  add "%-14s %6s %8s %9s\n" "Profile" "techs" "repairs" "coverage";
  List.iter
    (fun (name, ntechs, set) ->
      add "%-14s %6d %8d %8.1f%%\n" name ntechs (List.length set)
        (pct (List.length set)))
    per_profile;
  let ntechs = List.fold_left (fun acc (_, n, _) -> acc + n) 0 per_profile in
  add "%-14s %6d %8d %8.1f%%\n" "Panel union" ntechs (List.length union)
    (pct (List.length union));
  let strictly =
    per_profile <> []
    && List.for_all
         (fun (_, _, set) -> List.length set < List.length union)
         per_profile
  in
  add "\nPanel union strictly exceeds every single profile: %b\n" strictly;
  Buffer.contents buf

(* {2 CSV artifacts} *)

let panel_table_csv results =
  let per_profile, union = panel_coverage results in
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "profile,techniques,repairs\n";
  List.iter
    (fun (name, ntechs, set) -> add "%s,%d,%d\n" name ntechs (List.length set))
    per_profile;
  let ntechs = List.fold_left (fun acc (_, n, _) -> acc + n) 0 per_profile in
  add "union,%d,%d\n" ntechs (List.length union);
  Buffer.contents buf

let table1_csv results =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "benchmark,domain,n,%s\n"
    (String.concat "," (ordered_techniques results));
  List.iter
    (fun (bench, domains, _) ->
      List.iter
        (fun { label; nspec; counts } ->
          add "%s,%s,%d" bench label nspec;
          List.iter (add ",%d") counts;
          add "\n")
        domains)
    (table1_rows results);
  Buffer.contents buf

let fig2_csv results =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "technique,tm,sm\n";
  List.iter
    (fun (t, tm, sm) -> add "%s,%.6f,%.6f\n" t tm sm)
    (fig2_rows results);
  Buffer.contents buf

let fig3_csv results =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "t1,t2,r,p\n";
  List.iter
    (fun (t1, cells) ->
      List.iter (fun (t2, r, p) -> add "%s,%s,%.6f,%.6g\n" t1 t2 r p) cells)
    (fig3_rows results);
  Buffer.contents buf

let table2_csv results =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "traditional,trad_repairs,llm,llm_repairs,overlap,union\n";
  List.iter
    (fun h ->
      add "%s,%d,%s,%d,%d,%d\n" h.traditional h.trad_repairs h.llm
        h.llm_repairs h.overlap h.union)
    (table2_rows results);
  Buffer.contents buf
