(** The Otsu pipeline bound to the [Soc_tune] autotuner: search space
    (HW/SW partition x FIFO depth x schedule strategy x functional-unit
    allocation), pre-HLS analyzer/budget gating, and farm-backed
    evaluation with bit-exact golden checks on every point. *)

type candidate = {
  part : Partition.t;
  fifo : int;  (** requested FIFO depth; effective is [max fifo (pixels+16)] *)
  asap : bool;  (** ASAP schedule instead of resource-constrained list *)
  narrow : bool;  (** single functional unit of each class *)
}

val key : candidate -> string
(** Stable identity, e.g. ["HHSS/f2048/asap/narrow"]. *)

val config_of : candidate -> Soc_hls.Engine.config

val space : unit -> candidate Soc_tune.Search.space
(** 16 partitions x 3 FIFO depths x 2 schedules x 2 allocations = 192
    candidates; greedy neighbours are the SW->HW stage promotions. *)

type options = {
  strategy : Soc_tune.Search.strategy;
  seed : int;
  width : int;
  height : int;
  image_seed : int;
  budget_pct : int;  (** percentage of the Zynq-7020 the design may use *)
  mode : [ `Rtl | `Behavioral ];
  jobs : int;
}

val default_options : options
(** Evolve (population 8, generations 4), seed 42, 16x16 image, full
    Zynq-7020 budget, RTL mode, 1 farm worker (the caller). *)

val budget_device : int -> Soc_hls.Report.device
(** The Zynq-7020 scaled to a percentage budget (clamped to 1..100). *)

val prepare : options -> Soc_hls.Report.device -> candidate -> Soc_tune.Eval.prep
(** Candidate -> farm entry + knobs + pre-HLS gate (analyzer errors and
    estimated-resource budget check) + measurement hooks. Both hooks
    check the synthesized resources against the budget before anything
    else, so an over-budget candidate is never co-simulated. Exposed for
    tests; {!run} is the normal entry point. *)

type outcome = {
  search : Soc_tune.Search.result;
  cache : Soc_farm.Cache.stats;  (** absolute stats of the cache used *)
  engine_invocations : int;  (** real HLS runs during this sweep *)
  hls_requests : int;  (** kernel-synthesis requests sent to the farm *)
  batches : int;  (** farm batches dispatched *)
  pruned : int;  (** candidates rejected by the pre-HLS gate *)
  cosim_reused : int;
      (** candidates priced from an earlier run of the same behaviour
          instead of co-simulated ({!Soc_tune.Eval}) *)
}

val run :
  ?cache:Soc_farm.Cache.t ->
  ?on_round:(Soc_tune.Search.progress -> unit) ->
  ?memo:bool ->
  options ->
  outcome
(** Run one autotuning sweep. Pass [cache] (e.g. with a disk dir) to make
    warm re-sweeps hit cached HLS results instead of re-synthesizing;
    [on_round] observes incremental frontier progress. [memo] is
    {!Soc_tune.Eval.population}'s (tests turn it off as an oracle). *)
