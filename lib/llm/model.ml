module Alloy = Specrepair_alloy
module Ast = Alloy.Ast
module Mutation = Specrepair_mutation
module Location = Mutation.Location

type profile = {
  name : string;
  temperature : float;
  malformed_rate : float;
  compound_rate : float;
  self_check_samples : int;
      (* internal proposals the model can reason through per answer *)
  domain_competence : (string * float) list;
  pattern_prior : (string * float) list;
}

(* Priors reflect how natural each edit family reads to a language model
   trained on code: local operator fixes dominate, whole-expression
   rewrites and added constraints are rarer but possible — that is what
   lets the LLM reach repairs outside the template tools' space. *)
let default_priors =
  [
    ("quant-swap", 3.0);
    ("fmult-swap", 3.0);
    ("cmpop-swap", 3.0);
    ("binop-swap", 3.0);
    ("closure-swap", 2.5);
    ("closure-drop", 2.0);
    ("closure-add", 2.0);
    ("transpose-drop", 1.5);
    ("transpose-add", 1.0);
    ("negation-drop", 2.0);
    ("negation-add", 1.5);
    ("junct-drop", 2.0);
    ("connective-swap", 2.0);
    ("implies-flip", 1.5);
    ("implies-drop-lhs", 1.5);
    ("cmp-operand-swap", 1.0);
    ("card-bump", 2.0);
    ("intcmp-swap", 2.0);
    ("operand-drop", 1.5);
    ("operand-swap", 1.0);
    ("expr-replace", 0.35);
    ("junct-add-and", 0.5);
    ("junct-add-or", 0.4);
  ]

let gpt4 =
  {
    name = "gpt-4";
    temperature = 1.0;
    malformed_rate = 0.04;
    compound_rate = 0.15;
    self_check_samples = 8;
    domain_competence = [];
    pattern_prior = default_priors;
  }

(* A weaker profile in the spirit of the GPT-3.5 baselines of the prior
   studies [33, 34]: flatter sampling, more malformed output, less capacity
   for multi-edit fixes. *)
let gpt35 =
  {
    name = "gpt-3.5";
    temperature = 1.6;
    malformed_rate = 0.10;
    compound_rate = 0.05;
    self_check_samples = 1;
    domain_competence = [];
    pattern_prior = default_priors;
  }

(* Shift a handful of operator priors without touching the rest: the panel
   profiles differ in *which* edit families come naturally, not just in how
   sharply they sample. *)
let reprior overrides priors =
  List.map
    (fun (op, w) ->
      match List.assoc_opt op overrides with
      | Some w' -> (op, w')
      | None -> (op, w))
    priors

(* Panel member in the spirit of the Gemini runs of the multi-LLM
   comparison (arXiv:2404.11050): disciplined output, a taste for
   structural rewrites, and competence concentrated on the data-structure
   half of the corpus (ARepair's trees/lists) at the cost of the Alloy4Fun
   teaching models. *)
let gemini =
  {
    name = "gemini-pro";
    temperature = 1.25;
    malformed_rate = 0.06;
    compound_rate = 0.20;
    self_check_samples = 4;
    domain_competence =
      [
        ("balancedBST", 1.6);
        ("ctree", 1.5);
        ("dll", 1.5);
        ("arr", 1.4);
        ("student", 1.3);
        ("classroom", 0.7);
        ("cv", 0.7);
        ("graphs", 0.8);
        ("trash", 0.8);
      ];
    pattern_prior =
      reprior
        [
          ("expr-replace", 0.9);
          ("junct-add-and", 1.2);
          ("junct-add-or", 0.8);
          ("closure-swap", 3.0);
          ("quant-swap", 2.0);
        ]
        default_priors;
  }

(* Open-weights panel member in the spirit of the Llama baselines: hot
   sampling, frequent truncation, shallow self-checking, but unusually
   comfortable with relational/graph vocabulary — the complement of
   [gemini]'s competence map, so the panel's union covers defects neither
   member reaches alone. *)
let llama3 =
  {
    name = "llama-3";
    temperature = 1.9;
    malformed_rate = 0.14;
    compound_rate = 0.08;
    self_check_samples = 2;
    domain_competence =
      [
        ("graphs", 1.6);
        ("lts", 1.5);
        ("fsm", 1.5);
        ("production", 1.3);
        ("farmer", 1.3);
        ("balancedBST", 0.7);
        ("ctree", 0.7);
        ("addr", 0.8);
        ("grade", 0.8);
      ];
    pattern_prior =
      reprior
        [
          ("closure-swap", 3.5);
          ("closure-drop", 3.0);
          ("closure-add", 3.0);
          ("transpose-drop", 2.5);
          ("negation-drop", 2.5);
          ("expr-replace", 0.15);
          ("binop-swap", 3.5);
        ]
        default_priors;
  }

let panel = [ gpt4; gpt35; gemini; llama3 ]
let panel_names = List.map (fun p -> p.name) panel
let profile_of_name n = List.find_opt (fun p -> p.name = n) panel

type guidance = {
  site_boost : (Location.site * float) list;
  op_boost : (string * float) list;
  blocked : Alloy.Ast.spec list;
  exploration : float;
}

let no_guidance =
  { site_boost = []; op_boost = []; blocked = []; exploration = 0. }

let lookup assoc key default =
  Option.value ~default (List.assoc_opt key assoc)

(* Relation names mentioned in a formula, for the Pass hint: constraints
   sharing vocabulary with the checked assertion look relevant. *)
let rec rels_of_expr acc = function
  | Ast.Rel n -> n :: acc
  | Ast.Univ | Ast.Iden | Ast.None_ -> acc
  | Ast.Unop (_, e) -> rels_of_expr acc e
  | Ast.Binop (_, a, b) -> rels_of_expr (rels_of_expr acc a) b
  | Ast.Ite (c, a, b) -> rels_of_expr (rels_of_expr (rels_of_fmla acc c) a) b
  | Ast.Compr (decls, body) ->
      rels_of_fmla
        (List.fold_left (fun acc (_, e) -> rels_of_expr acc e) acc decls)
        body

and rels_of_fmla acc = function
  | Ast.True | Ast.False -> acc
  | Ast.Cmp (_, a, b) -> rels_of_expr (rels_of_expr acc a) b
  | Ast.Multf (_, e) | Ast.Card (_, e, _) -> rels_of_expr acc e
  | Ast.Not f -> rels_of_fmla acc f
  | Ast.And (a, b) | Ast.Or (a, b) | Ast.Implies (a, b) | Ast.Iff (a, b) ->
      rels_of_fmla (rels_of_fmla acc a) b
  | Ast.Quant (_, decls, body) ->
      rels_of_fmla
        (List.fold_left (fun acc (_, e) -> rels_of_expr acc e) acc decls)
        body
  | Ast.Call (_, args) -> List.fold_left rels_of_expr acc args
  | Ast.Let (_, value, body) -> rels_of_fmla (rels_of_expr acc value) body

let assertion_vocabulary (task : Task.t) =
  List.concat_map
    (fun name ->
      match Ast.find_assert task.faulty name with
      | Some a -> rels_of_fmla [] a.assert_body
      | None -> [])
    task.check_names
  |> List.sort_uniq String.compare

let site_vocabulary spec site =
  match Location.body spec site with
  | body -> List.sort_uniq String.compare (rels_of_fmla [] body)
  | exception Not_found -> []

(* Sites whose constraint mentions a relation of the checked assertions. *)
let sites_sharing_vocabulary spec assertion_vocab =
  List.filter
    (fun site ->
      List.exists
        (fun r -> List.mem r assertion_vocab)
        (site_vocabulary spec site))
    (Location.sites spec)

(* [pattern_prior] as a table, first binding winning as with
   [List.assoc_opt]: a proposer build looks it up once per mutation. *)
let prior_table profile =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (op, p) -> if not (Hashtbl.mem tbl op) then Hashtbl.add tbl op p)
    profile.pattern_prior;
  tbl

let weight ~priors ~hints ~guidance ~assertion_vocab ~sharing_sites
    ~competence (m : Mutation.Mutate.t) size =
  let prior = Option.value ~default:1.0 (Hashtbl.find_opt priors m.op) in
  let w = ref (prior *. competence) in
  let size_penalty = 1. /. sqrt (float_of_int size) in
  w := !w *. size_penalty;
  (* guidance *)
  (match List.assoc_opt m.site guidance.site_boost with
  | Some b -> w := !w *. b
  | None -> ());
  (match List.assoc_opt m.op guidance.op_boost with
  | Some b -> w := !w *. b
  | None -> ());
  (* Pass hint: constraints sharing vocabulary with checked assertions get
     the model's attention, and strengthening edits look attractive — the
     surest way to make a named check pass is to constrain harder, which is
     exactly how Pass-anchored repairs overfit. *)
  if List.mem Prompt.Pass hints && assertion_vocab <> [] then begin
    let shares = List.mem m.site sharing_sites in
    (* without a location hint, the assertion anchor is all the model has *)
    let boost = if List.mem Prompt.Loc hints then 4.0 else 8.0 in
    w := !w *. (if shares then boost else 0.4);
    if m.op = "junct-add-and" || m.op = "negation-add" then w := !w *. 5.0
  end;
  !w

(* Everything up to the tempered distribution depends only on the prompt,
   so a self-check loop builds it once and draws from it k times; building
   reads no randomness, so the draws match k independent [propose] calls.
   The mutation space depends on the spec alone and comes from [spaces];
   the prompt's weights are one pass over it, each weight multiplied and
   its running sum added in the order of a per-mutation weigh, temper and
   {!Rng.sampler}, so every prefix, and so every draw, is bit-identical to
   theirs. *)
let proposer ?(spaces = Mutation.Space.create_store ()) profile ~hints
    guidance (task : Task.t) =
  match Mutation.Space.find spaces task.faulty with
  | None -> fun _ -> None
  | Some space ->
      let spec = task.faulty in
      let assertion_vocab = assertion_vocabulary task in
      let sharing_sites = sites_sharing_vocabulary spec assertion_vocab in
      let competence = lookup profile.domain_competence task.domain 1.0 in
      let priors = prior_table profile in
      (* Loc hint: strong focus on the named sites *)
      let loc = List.mem Prompt.Loc hints && task.fault_sites <> [] in
      (* Fix hint: the described edit family *)
      let fix = List.mem Prompt.Fix hints && task.fault_classes <> [] in
      (* hints sharpen the model's focus, not just its weights *)
      let hint_sharpening = if hints = [] then 1.0 else 0.4 in
      let temp =
        ((profile.temperature *. hint_sharpening) +. guidance.exploration)
      in
      let exponent = 1. /. max 0.1 temp in
      let mutations = space.Mutation.Space.mutations in
      let prefix = Array.make (Array.length mutations) 0. in
      let acc = ref 0. in
      for i = 0 to Array.length mutations - 1 do
        let m = mutations.(i) in
        let w =
          weight ~priors ~hints ~guidance ~assertion_vocab ~sharing_sites
            ~competence m space.sizes.(i)
        in
        let w =
          if loc then
            if List.mem m.site task.fault_sites then
              (* the hint is line-level: the exact node gets an extra focus
                 factor *)
              if List.mem (m.site, m.path) task.fault_paths then w *. 24.0
              else w *. 8.0
            else w *. 0.15
          else w
        in
        let w =
          if fix then
            if List.mem m.op task.fault_classes then w *. 1.25 else w *. 0.55
          else w
        in
        let w = w ** exponent in
        (* [max 0. w], as {!Rng.sampler} clamps *)
        acc := !acc +. if 0. >= w then 0. else w;
        prefix.(i) <- !acc
      done;
      let tempered = Rng.of_prefix mutations prefix in
      let apply_ok spec' =
        spec' <> spec
        && (not (List.exists (Ast.equal_spec spec') guidance.blocked))
        && Alloy.Typecheck.check_result spec' |> Result.is_ok
      in
      let attempt rng =
        let sample_one () = Rng.draw rng tempered in
        match sample_one () with
        | None -> None
        | Some m1 -> (
            let compound = Rng.float rng < profile.compound_rate in
            let spec1 =
              match Mutation.Mutate.apply spec m1 with
              | s -> Some s
              | exception _ -> None
            in
            match spec1 with
            | None -> None
            | Some spec1 ->
                if not compound then if apply_ok spec1 then Some spec1 else None
                else
                  (* second edit at a different location *)
                  let spec2 =
                    match sample_one () with
                    | Some m2
                      when (m2.site, m2.path) <> (m1.Mutation.Mutate.site, m1.path)
                      -> (
                        match Mutation.Mutate.apply spec1 m2 with
                        | s -> Some s
                        | exception _ -> None)
                    | _ -> None
                  in
                  let candidate = Option.value ~default:spec1 spec2 in
                  if apply_ok candidate then Some candidate
                  else if apply_ok spec1 then Some spec1
                  else None)
      in
      fun rng ->
        let rec retry n = if n = 0 then None else
            match attempt rng with Some s -> Some s | None -> retry (n - 1)
        in
        retry 12

let propose profile ~rng ~hints guidance task =
  proposer profile ~hints guidance task rng

let chatter_openings =
  [
    "Looking at this specification, the constraint appears to be incorrect.";
    "The issue lies in one of the declared constraints. Here is the corrected specification:";
    "I analyzed the model and found the fault.";
    "After examining the constraints, here is my repaired version.";
  ]

let render_response profile ~rng proposal =
  let opening =
    List.nth chatter_openings (Rng.int rng (List.length chatter_openings))
  in
  match proposal with
  | None ->
      opening
      ^ "\n\nUnfortunately I could not determine a concrete fix for this \
         specification. Could you provide more information about the \
         intended behaviour?"
  | Some spec ->
      let body = Alloy.Pretty.spec_to_string spec in
      let body =
        if Rng.float rng < profile.malformed_rate then
          (* malformed channel: the response is cut off mid-specification *)
          String.sub body 0 (String.length body * 3 / 5)
        else body
      in
      Printf.sprintf "%s\n\n```alloy\n%s\n```\n\nThis should satisfy the intended properties."
        opening body

let respond profile ~rng guidance (p : Prompt.t) =
  let proposal = propose profile ~rng ~hints:p.hints guidance p.task in
  render_response profile ~rng proposal
