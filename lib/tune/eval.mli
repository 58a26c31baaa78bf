(** Farm-backed population evaluation.

    The bridge between a {!Search.space} and {!Soc_farm.Farm.build_batch}:
    a [prepare] callback turns a candidate into a {!prep} — a farm job
    entry, its knobs, the pre-HLS gate diagnostics, and its measurement
    hooks — and {!population} prices a whole batch, grouping candidates
    by (HLS config, FIFO depth) so each group is one farm batch with
    batch-wide content-hash dedup of shared kernels.

    Within one sweep (one {!counters}), each distinct behaviour is
    co-simulated once: a candidate whose {!prep.behaviour} matches a
    stored run, at a FIFO depth above that run's
    {!Search.point.fifo_peak} (or at the stored run's own depth), is
    priced by {!prep.reuse} from the stored point instead of by
    {!prep.measure}. Each stream FIFO takes at most one push per cycle,
    so no push of either run can have been refused: the runs are the
    same. *)

exception Infeasible_point of Soc_util.Diag.t list
(** A [measure] or [reuse] closure raises this to reject a built point
    post-hoc (e.g. synthesized resources exceed the budget); it becomes
    {!Search.Infeasible}, not a failure. *)

type prep = {
  entry : Soc_farm.Jobgraph.entry option;  (** [None]: all-software *)
  fifo_depth : int;
  config : Soc_hls.Engine.config;
  gate : Soc_util.Diag.t list;
      (** pre-HLS diagnostics; any error prunes the candidate before any
          synthesis work is spent *)
  measure : Soc_core.Flow.build option -> Search.point;
      (** run the candidate on the platform and check it against the
          golden model; exceptions become {!Search.Failed} *)
  behaviour :
    netlist_key:(Soc_rtl.Netlist.t -> string) -> Soc_core.Flow.build option -> string;
      (** everything [measure]'s run reads except the FIFO depth, as a
          key; [netlist_key] is {!Soc_rtl_compile.Tape.netlist_key},
          computed once per netlist per sweep *)
  reuse : Search.point -> Soc_core.Flow.build option -> Search.point;
      (** price the candidate from a stored run of the same behaviour:
          timing from the stored point, costs from the candidate's own
          build *)
}

type memo
(** Stored runs by behaviour, and netlist keys, for one sweep. *)

type counters = {
  mutable batches : int;  (** farm batches dispatched *)
  mutable hls_requests : int;  (** kernel-synthesis requests across batches *)
  mutable gated : int;  (** candidates pruned pre-HLS *)
  mutable cosim_reused : int;  (** candidates priced from a stored run *)
  memo : memo;
}
(** Per-sweep evaluator state: pass one value to every {!population}
    call of a sweep, and a fresh one to the next sweep. *)

val counters : unit -> counters

val population :
  ?jobs:int ->
  ?memo:bool ->
  ?counters:counters ->
  cache:Soc_farm.Cache.t ->
  prepare:('c -> prep) ->
  'c list ->
  ('c * Search.outcome) list
(** Outcomes in input order. [jobs] (default 1) is the farm's worker
    count per batch, the caller included; pass the same [cache] across calls (or one with a
    disk dir) to share real HLS work between rounds, runs and processes.
    [memo] (default [true]) switches the measurement memo; [false]
    co-simulates every candidate, which is the oracle the tests compare
    against. *)
