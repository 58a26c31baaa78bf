(** Fleet dispatch: retries, hedging, heartbeats and partition-safe
    failover over a set of {!Remote} worker daemons.

    Every policy rests on one invariant — dispatch is {e idempotent}:
    requests are keyed by the canonical-spec coalescing key, workers
    attach duplicate keys to the build already in flight, and results
    are artifacts of a shared content-addressed cache. A lost, repeated
    or raced request can cost wall clock, never a wrong or repeated
    build. So the coordinator retries infrastructure failures with
    exponential backoff + deterministic jitter (re-routing to the next
    worker), hedges stragglers past a p95-derived threshold by racing a
    second replica (first valid answer wins, loser is sent [Cancel]),
    and a heartbeat thread marks a worker down after three
    consecutive missed beats — in-flight attempts poll that verdict and
    abandon a partitioned worker without waiting for TCP.

    A worker's [Failed] answer is authoritative and never retried; the
    server's circuit breaker quarantines poison specs. [build] returns
    [Error] only when the fleet is exhausted — the server then runs the
    build locally and counts a [remote_fallback].

    Frames to worker [i] are written on the ["co:w<i>"] net-fault link;
    its replies arrive on ["wk:w<i>"]. *)

type config = {
  endpoints : (string * int) list;  (** (host, port); labelled w0, w1, … *)
  clock : unit -> float;
  heartbeat_interval_ms : int;
  rpc_timeout_ms : int;  (** per-attempt budget: connect + handshake + build *)
  retries : int;  (** extra attempts after the first, all workers errored *)
  retry_base_ms : int;  (** base of the exponential retry backoff *)
  hedge_after_ms : float option;
      (** straggler threshold; [None] derives twice the p95 of past
          wins, floor 100 ms (and never hedges before 8 wins of signal) *)
}

val default_config : config
(** No endpoints, 250 ms beats, 60 s attempt budget, 3 retries from a
    50 ms backoff base, derived hedging. *)

type built = { design : string; digest : string; manifest : string; wall_ms : float }

type outcome =
  | Built of built
  | Build_failed of string  (** the worker's authoritative verdict *)

val build_entry :
  ?journal:Soc_farm.Journal.t ->
  ?kill:Soc_fault.Fault.crash_point ->
  ?cancel:(unit -> bool) ->
  cache:Soc_farm.Cache.t ->
  Soc_farm.Jobgraph.entry ->
  (built, string) result
(** The in-process build of one entry — [Farm.build_batch ~jobs:1] —
    that a worker runs for a dispatch and the server runs locally. The
    batch runs inline on a domain spawned and joined for it, so a build
    never holds the calling daemon thread's runtime lock.
    [cancel] is registered as the build's cancel probe
    ({!Soc_fault.Fault.Service.with_cancel}) on that domain, where the
    jobs run. [Error] carries the failure reason; an exception inside
    the build is an ["internal error: ..."] failure, except
    {!Soc_fault.Fault.Killed} and {!Soc_fault.Fault.Service.Cancelled},
    which propagate. A job that failed with [Cancelled] raises
    [Cancelled] too. *)

type t

val create : config -> t
(** Starts the heartbeat thread (if any endpoints). Workers start
    healthy; three consecutive failed beats take one down. *)

val build :
  t -> source:string -> key:string -> ?deadline_ms:int -> unit -> (outcome, string) result
(** Dispatch one build to the fleet. Blocks the calling thread for the
    whole race; safe from many threads at once. [Error] means the fleet
    is exhausted (all endpoints down or every attempt failed on
    infrastructure) — degrade to a local build. *)

val live : t -> int
(** Workers currently answering heartbeats. *)

type stats = {
  fleet_workers : int;
  fleet_live : int;
  dispatches : int;  (** build attempts sent (first tries + retries + hedges) *)
  retries : int;
  hedges : int;
  cancels : int;  (** cancel frames sent to hedge/failover losers *)
}

val stats : t -> stats

val stop : t -> unit
(** Join the heartbeat thread and drop control connections. In-flight
    [build] calls abandon their attempts and return. *)
