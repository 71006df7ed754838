module Benchmarks = Specrepair_benchmarks
module Domains = Benchmarks.Domains
module Generate = Benchmarks.Generate

type source =
  | Injected
  | Custom of {
      name : string;
      produce : seed:int -> int -> Generate.variant;
    }

let source_name = function Injected -> "injected" | Custom { name; _ } -> name

(* The injected corpus in [Generate.all] order: A4F domains then ARepair
   domains, each in [Domains.all] order, with prefix sums so a global
   offset resolves to (domain, local index) by scan.  Eighteen entries —
   a per-call scan is nothing next to deriving the variant. *)
let ordered_domains =
  lazy
    (let by bench =
       List.filter (fun (d : Domains.t) -> d.benchmark = bench) Domains.all
     in
     let ds = by Domains.A4F @ by Domains.ARepair_bench in
     let prefixed, total =
       List.fold_left
         (fun (acc, off) (d : Domains.t) -> ((off, d) :: acc, off + d.count))
         ([], 0) ds
     in
     (List.rev prefixed, total))

let natural_total () = snd (Lazy.force ordered_domains)

let injected ~seed i =
  if i < 0 then invalid_arg "Corpus_stream: negative index";
  let domains, total = Lazy.force ordered_domains in
  let epoch = i / total and off = i mod total in
  let rec locate = function
    | [] -> assert false
    | [ (start, d) ] -> (d, off - start)
    | (start, d) :: ((next, _) :: _ as rest) ->
        if off < next then (d, off - start) else locate rest
  in
  let d, local = locate domains in
  (* epoch 0 is exactly the materialized corpus; later epochs reuse the
     derivation with indices past the domain's Table I count, giving
     fresh deterministic fault streams and distinct variant ids *)
  Generate.variant_at ~seed d (local + (epoch * d.Domains.count))

let variant ?(source = Injected) ~seed i =
  match source with
  | Injected -> injected ~seed i
  | Custom { produce; _ } -> produce ~seed i

let of_variants ~name variants =
  let variants = Array.of_list variants in
  Custom { name; produce = (fun ~seed:_ i -> variants.(i)) }

let iter ?source ~seed ~lo ~hi f =
  for i = lo to hi - 1 do
    f i (variant ?source ~seed i)
  done

let fingerprint ~source ~seed ~total ~options =
  Printf.sprintf "specrepair-stream-v1|source=%s|seed=%d|total=%d|%s"
    (source_name source) seed total
    (String.concat "|" options)
