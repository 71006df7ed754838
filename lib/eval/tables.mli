(** Renderers for the paper's tables and figures from raw study results.

    Each function returns plain text (fixed-width tables / series listings)
    that mirrors the corresponding artifact:
    - {!table1}: REP counts per domain per technique (Table I),
    - {!fig2}: mean TM and SM per technique (Figure 2's bar data),
    - {!fig3}: Pearson correlation matrix between techniques with
      significance (Figure 3's heatmap data),
    - {!table2}: hybrid traditional x LLM combinations — individual counts,
      overlap, unique union (Table II, the numbers behind Figure 4's Venn
      diagrams). *)

val table1 : Study.spec_result list -> string
val fig2 : Study.spec_result list -> string
val fig3 : Study.spec_result list -> string
val table2 : Study.spec_result list -> string
val summary : Study.spec_result list -> string
(** Headline findings (top technique, best hybrid, rates), Section IV prose.
    When the results hold the paper's twelve techniques, it adds the
    paper-vs-measured Table I totals, Figure 3's three cluster r values and
    the {!shape_checks} checklist with its [N/13 checks hold.] line. *)

val shape_checks : Study.spec_result list -> (string * bool) list
(** The paper's shape as 13 labelled checks (the contract in DESIGN.md,
    "Expected shape"): Table I orderings on each benchmark, Figure 2's
    TM/SM ordering, Figure 3's clusters and Table II's hybrid unions.  Each
    pair is the check's label and whether it holds on these results. *)

(** {2 Raw accessors, used by tests and the bench harness} *)

val rep_count : Study.spec_result list -> technique:string -> int
val rep_count_in :
  Study.spec_result list ->
  technique:string ->
  benchmark:Specrepair_benchmarks.Domains.benchmark ->
  int
val correlation :
  Study.spec_result list -> t1:string -> t2:string -> float * float
(** Pearson r and p over per-variant match scores ((TM+SM)/2). *)

val hybrid :
  Study.spec_result list -> traditional:string -> llm:string -> int * int * int
(** (traditional repairs, overlap, unique union). *)

(** {2 Panel coverage (Table III)} *)

val panel_coverage :
  Study.spec_result list -> (string * int * string list) list * string list
(** Per-profile (name, LLM techniques present, repaired variant-id set) in
    panel order, plus the panel union set — the data behind
    {!panel_table}.  A profile with no techniques in the results is
    omitted. *)

val panel_table : Study.spec_result list -> string
(** The hybrid coverage table extending the paper's union analysis across
    the model panel: per-profile repair coverage and the panel union, with
    a final strictly-exceeds verdict line. *)

(** {2 Machine-readable artifacts (CSV)} *)

val table1_csv : Study.spec_result list -> string
val fig2_csv : Study.spec_result list -> string
val fig3_csv : Study.spec_result list -> string
val table2_csv : Study.spec_result list -> string
val panel_table_csv : Study.spec_result list -> string
