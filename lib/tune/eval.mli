(** Farm-backed population evaluation.

    The bridge between a {!Search.space} and {!Soc_farm.Farm.build_batch}:
    a [prepare] callback turns a candidate into a {!prep} — a farm job
    entry, its knobs, the pre-HLS gate diagnostics, and a measurement
    closure — and {!population} prices a whole batch, grouping candidates
    by (HLS config, FIFO depth) so each group is one farm batch with
    batch-wide content-hash dedup of shared kernels. *)

exception Infeasible_point of Soc_util.Diag.t list
(** A [measure] closure raises this to reject a built point post-hoc
    (e.g. synthesized resources exceed the budget); it becomes
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
}

type counters = {
  mutable batches : int;  (** farm batches dispatched *)
  mutable hls_requests : int;  (** kernel-synthesis requests across batches *)
  mutable gated : int;  (** candidates pruned pre-HLS *)
}

val counters : unit -> counters

val population :
  ?jobs:int ->
  ?counters:counters ->
  cache:Soc_farm.Cache.t ->
  prepare:('c -> prep) ->
  'c list ->
  ('c * Search.outcome) list
(** Outcomes in input order. [jobs] (default 1) is the farm's worker
    count per batch, the caller included; pass the same [cache] across calls (or one with a
    disk dir) to share real HLS work between rounds, runs and processes. *)
