(** Population-based search over a generic design space.

    A {!space} describes the candidate universe (enumeration, seeded
    sampling, mutation, hill-climb neighbourhoods); an evaluator prices
    candidate batches (the farm-backed one lives in {!Eval}); the engine
    runs a {!strategy} on top, memoizing outcomes by candidate key and
    emitting a {!progress} frame after every round so a server can stream
    incremental frontier updates.

    Determinism: all randomness flows from one {!Soc_util.Rng} seeded by
    [run ~seed], and the frontier is kept in a canonical order, so the
    same (strategy, seed) replays to an identical {!result} — warm or
    cold cache. *)

module Rng = Soc_util.Rng
module Diag = Soc_util.Diag

val objective_names : string list
(** The k objectives, all minimized: latency_us, lut, ff, bram18, dsp. *)

type point = {
  key : string;
  label : string;
  dsl : string;  (** canonical DSL text of the candidate; [""] for all-SW *)
  objectives : float array;  (** indexed like {!objective_names} *)
  cycles : int;
  usage : Soc_hls.Report.usage;
  tool_seconds : float;
  fifo_peak : int;
      (** the largest stream-FIFO occupancy the measured run reached; 0
          without fabric *)
}

type outcome =
  | Feasible of point
  | Infeasible of Diag.t list  (** pruned by the analyzer/budget gate *)
  | Failed of string  (** build error or wrong output — a bug, not a point *)

type 'c space = {
  space_name : string;
  axes : (string * string list) list;  (** axis name -> values, for reports *)
  universe : unit -> 'c list;
  key : 'c -> string;  (** stable identity; the memoization key *)
  describe : 'c -> string;
  start : 'c;  (** greedy's origin (conventionally the all-SW design) *)
  neighbours : 'c -> 'c list;
  random : Rng.t -> 'c;
  mutate : Rng.t -> 'c -> 'c;
}

type strategy =
  | Exhaustive
  | Random of int  (** sample count *)
  | Greedy
  | Evolve of { population : int; generations : int }

val strategy_name : strategy -> string

val strategy_of_string :
  ?samples:int -> ?population:int -> ?generations:int -> string ->
  (strategy, string) result
(** Parses "exhaustive" | "random" | "greedy" | "evolve"; the optional
    arguments parameterize the stochastic strategies (defaults 32/8/4). *)

type progress = {
  round : int;
  proposed : int;
  evaluated : int;
  infeasible : int;
  failed : int;
  frontier : point list;
}

type result = {
  space : string;
  strategy : string;
  seed : int;
  points : point list;  (** feasible points, first-evaluation order *)
  frontier : point list;  (** canonical order: (objectives, key) ascending *)
  proposed : int;  (** candidates proposed by the strategy, repeats included *)
  evaluated : int;  (** distinct candidates actually priced *)
  infeasible : int;
  failures : (string * string) list;  (** candidate key -> reason *)
  rounds : int;
  trail : point list;
      (** greedy's accepted climb, start first; [[]] for other strategies *)
}

val run :
  ?on_round:(progress -> unit) ->
  space:'c space ->
  eval:('c list -> ('c * outcome) list) ->
  strategy ->
  seed:int ->
  result
(** At most 16 candidates are handed to [eval] per round
    for the non-generational strategies, so exhaustive sweeps still
    stream frontier updates. [eval] receives only distinct, not yet
    memoized candidates. *)
