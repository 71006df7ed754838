(* The public umbrella: one module per subsystem, re-exported under stable
   names.  Downstream users depend on the [specrepair] library and reach
   everything as [Specrepair.<Area>.<Module>]. *)

(** The Mini-Alloy language: AST, parser, pretty printer, type checker,
    instances, and the reference evaluator. *)
module Alloy = struct
  module Ast = Specrepair_alloy.Ast
  module Lexer = Specrepair_alloy.Lexer
  module Parser = Specrepair_alloy.Parser
  module Pretty = Specrepair_alloy.Pretty
  module Typecheck = Specrepair_alloy.Typecheck
  module Instance = Specrepair_alloy.Instance
  module Eval = Specrepair_alloy.Eval
  module Implicit = Specrepair_alloy.Implicit
end

(** The SAT substrate: CDCL solver, boolean formulas, Tseitin, cardinality
    encodings, DIMACS I/O, DRUP proofs and their checker, and hard-instance
    generators. *)
module Sat = struct
  module Lit = Specrepair_sat.Lit
  module Solver = Specrepair_sat.Solver
  module Proof = Specrepair_sat.Proof
  module Drat = Specrepair_sat.Drat
  module Formula = Specrepair_sat.Formula
  module Tseitin = Specrepair_sat.Tseitin
  module Card = Specrepair_sat.Card
  module Dimacs = Specrepair_sat.Dimacs
  module Hard_cnf = Specrepair_sat.Hard_cnf
end

(** The bounded model finder (the "Alloy Analyzer" of this repository). *)
module Analyzer = struct
  module Bounds = Specrepair_solver.Bounds
  module Matrix = Specrepair_solver.Matrix
  module Translate = Specrepair_solver.Translate
  module Oracle = Specrepair_solver.Oracle
  include Specrepair_solver.Analyzer
end

(** AUnit-style unit tests for specifications. *)
module Aunit = Specrepair_aunit.Aunit

(** Mutation operators, AST locations, and the typed expression pool. *)
module Mutation = struct
  module Location = Specrepair_mutation.Location
  module Pool = Specrepair_mutation.Pool
  module Mutate = Specrepair_mutation.Mutate
end

(** Fault localization. *)
module Faultloc = Specrepair_faultloc.Faultloc

(** The repair session and its telemetry: the one instrumented context
    (oracle, budget, seed, deadline, counters) threaded through every
    technique. *)
module Engine = struct
  module Session = Specrepair_engine.Session
  module Telemetry = Specrepair_engine.Telemetry
end

(** The four traditional repair engines and their shared vocabulary. *)
module Repair = struct
  module Session = Specrepair_repair.Session
  module Common = Specrepair_repair.Common
  module Arepair = Specrepair_repair.Arepair
  module Icebar = Specrepair_repair.Icebar
  module Beafix = Specrepair_repair.Beafix
  module Atr = Specrepair_repair.Atr
end

(** The LLM-based pipelines: simulated model, prompts, extraction,
    single-round and multi-round repair. *)
module Llm = struct
  module Rng = Specrepair_llm.Rng
  module Task = Specrepair_llm.Task
  module Prompt = Specrepair_llm.Prompt
  module Model = Specrepair_llm.Model
  module Extract = Specrepair_llm.Extract
  module Single_round = Specrepair_llm.Single_round
  module Multi_round = Specrepair_llm.Multi_round
end

(** The study's metrics: REP, Token Match, Syntax Match, Pearson. *)
module Metrics = struct
  module Rep = Specrepair_metrics.Rep
  module Bleu = Specrepair_metrics.Bleu
  module Tree_kernel = Specrepair_metrics.Tree_kernel
  module Pearson = Specrepair_metrics.Pearson
end

(** The two benchmarks: domains, fault injection, variant generation. *)
module Benchmarks = struct
  module Domains = Specrepair_benchmarks.Domains
  module Fault = Specrepair_benchmarks.Fault
  module Generate = Specrepair_benchmarks.Generate
end

(** The one JSON codec: every JSON the system writes or reads. *)
module Json = Specrepair_json

(** The repair-as-a-service daemon: wire protocol, warm-session registry,
    fork-worker pool, event-loop daemon, and the line client. *)
module Serve = struct
  module Protocol = Specrepair_serve.Protocol
  module Registry = Specrepair_serve.Registry
  module Handler = Specrepair_serve.Handler
  module Pool = Specrepair_serve.Pool
  module Daemon = Specrepair_serve.Daemon
  module Client = Specrepair_serve.Client
end

(** The study runner and the table/figure renderers. *)
module Eval = struct
  module Technique = Specrepair_eval.Technique
  module Scheduler = Specrepair_eval.Scheduler
  module Manifest = Specrepair_eval.Manifest
  module Corpus_stream = Specrepair_eval.Corpus_stream
  module Study = Specrepair_eval.Study
  module Tables = Specrepair_eval.Tables
  module Learned = Specrepair_eval.Learned
  module Portfolio = Specrepair_eval.Portfolio
end
