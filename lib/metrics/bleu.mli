(** Sentence-level BLEU (Papineni et al., ACL'02) — the Token Match (TM)
    metric of the study.

    Tokens are whitespace-separated words of the pretty-printed
    specifications.  Modified n-gram precisions for n = 1..4 are combined
    geometrically with a brevity penalty; higher-order precisions use add-one
    smoothing (Chen & Cherry method 2) so near-identical short texts do not
    collapse to zero. *)

val ngram_precision : n:int -> reference:string list -> candidate:string list -> float * int * int
(** [(clipped matches / total, matches, total)] for diagnostics. *)

val sentence_bleu :
  ?max_n:int -> reference:string list -> candidate:string list -> unit -> float
(** In [0, 1]; 1 iff token sequences are identical (for texts of length
    >= [max_n]). *)

val token_match : reference:string -> candidate:string -> float
(** [sentence_bleu] over the whitespace tokens of both texts. *)
