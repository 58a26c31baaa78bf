(** The build farm: execute a batch of SoC generation flows as a parallel,
    fault-tolerant, observable job DAG.

    [build_batch] plans the batch with {!Jobgraph.plan}, runs it on a
    {!Pool} of workers (the caller and its helper domains) sharing a
    content-addressed {!Cache}, and returns every architecture's
    {!Soc_core.Flow.build} plus structured failure reports — a failing
    job never aborts the batch.

    Determinism guarantees (tested):
    - results are bit-identical for any [jobs] count;
    - a warm cache yields bit-identical build records to a cold one
      (reuse is attributed by batch position, not cache state). *)

type stats = {
  total_jobs : int;
  succeeded : int;
  failed : int;  (** primary failures *)
  skipped : int;  (** jobs skipped because a dependency failed *)
  distinct_kernels : int;
  cache : Cache.stats;
  engine_invocations : int;  (** real HLS engine runs during this batch *)
  wall_seconds : float;
}

type report = {
  builds : (int * Soc_core.Flow.build) list;
      (** successful architectures, (batch index, build), ascending *)
  failures : Pool.failure list;
      (** primary failures in job order (dependency skips excluded) *)
  pre_flight : Soc_util.Diag.t list array;
      (** per batch entry: the plan's static-analysis findings
          ({!Jobgraph.t.pre_flight}); an entry with errors among them is
          refused by its integrate job *)
  stats : stats;
  trace : Trace.t;
}

val build_batch :
  ?jobs:int ->
  ?hls_config:Soc_hls.Engine.config ->
  ?fifo_depth:int ->
  ?cache:Cache.t ->
  ?trace:Trace.t ->
  ?journal:Journal.t ->
  ?kill:Soc_fault.Fault.crash_point ->
  Jobgraph.entry list ->
  report
(** Defaults: [jobs] = {!Domain.recommended_domain_count}, a fresh
    in-memory [cache]. Pass the same [cache] across batches (or one with a
    [disk_dir]) to share real HLS work.

    [jobs] counts the caller: the batch runs on the calling thread plus
    [jobs - 1] helper domains ({!Pool.run}), so [~jobs:1] runs every job
    inline and spawns no domain.

    [journal] makes the batch crash-safe: every job is journaled
    in-flight before it runs and done after it completes, and a journal
    opened with [~resume:true] skips completed HLS jobs (their artifacts
    re-verified from the disk cache — protected from LRU eviction for the
    batch's lifetime) and re-enqueues in-flight ones.

    [kill] arms a deterministic crash point
    ({!Soc_fault.Fault.Kill_at}[ (stage, k)]): the run raises
    {!Soc_fault.Fault.Killed} the moment the k-th job of [stage] is
    journaled in-flight, executes nothing further (the pool aborts), and
    writes nothing more to the journal — a faithful process death for the
    recovery campaign. *)

val build_digest : Soc_core.Flow.build -> string
(** Stable hex fingerprint of a finished build record (canonical
    serialization, no sharing). Two runs producing the same digest built
    bit-identical artifacts — the recovery campaign's equality witness. *)

val manifest_json : report -> string
(** JSON array of [{index, design, digest}] for the batch's successful
    builds — written by [socdsl farm --manifest] so a resumed run can be
    byte-compared against a clean one. *)

val render_report : report -> string
(** Summary + counters + cache line, for CLI / bench output. *)
