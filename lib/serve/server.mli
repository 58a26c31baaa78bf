(** The generation daemon: the whole flow — parse, static-analysis gate,
    crash-safe farm build — behind a TCP socket speaking {!Protocol}.

    A {!Listener} (one accept thread, one thread per connection, bounded
    by [max_sessions] and [idle_session_timeout_ms], which the {!Remote}
    worker does not apply) and [workers] worker threads pulling from the
    admission {!Scheduler}; each worker runs [Farm.build_batch ~jobs:1]
    (one domain under the hood). Workers share
    one content-addressed cache and one write-ahead journal, so identical
    requests coalesce in flight, repeats hit the cache, and a simulated
    kill ([kill]) is recoverable by restarting the daemon on the same
    cache directory — the restarted server re-verifies the cache and
    compacts the journal with the doctor's fsck passes before serving.

    The pool is supervised: an exception inside a build fails that
    request and leaves its worker healthy; a worker thread that dies
    anyway is replaced under exponential backoff within a
    restart-intensity budget (past it the pool is declared degraded). A
    watchdog expires in-flight builds stuck past their deadline or the
    [build_timeout_ms] cap, unblocking waiters and replacing the wedged
    worker. A per-key circuit breaker ({!Breaker}) rejects persistently
    failing specs with [Poisoned] until a cooldown probe passes. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  workers : int;  (** concurrent builds in flight *)
  queue_cap : int;  (** queued-jobs bound; over it, submits are rejected *)
  default_deadline_ms : int option;  (** applied when a submit names none *)
  cache_dir : string option;  (** persistent cache + journal; None = memory *)
  cache_max_mb : int option;
  kill : Soc_fault.Fault.crash_point option;
      (** armed crash point, taken by exactly one build *)
  kernels : (string * Soc_kernel.Ast.kernel) list;
      (** the kernel library; filtered per spec like [socdsl farm] *)
  max_frame : int;
  clock : unit -> float;  (** injectable for deterministic tests *)
  breaker_threshold : int;
      (** consecutive failures of one key to open its breaker; <= 0
          disables the breaker *)
  breaker_cooldown_ms : int;
  build_timeout_ms : int option;
      (** per-build wall cap enforced by the watchdog, independent of
          request deadlines; [None] = no cap *)
  watchdog_grace_ms : int;  (** slack past the limit before the watchdog fires *)
  max_worker_restarts : int;
      (** worker replacements allowed within [restart_window_ms] before
          the pool is declared degraded *)
  restart_window_ms : int;
  restart_backoff_ms : int;  (** base of the exponential restart backoff *)
  max_sessions : int;  (** concurrent connection cap *)
  idle_session_timeout_ms : int option;
      (** drop a session whose socket is idle this long; [None] = never *)
  fleet : (string * int) list;
      (** remote worker endpoints ({!Remote} daemons). Non-empty turns
          this server into a coordinator: builds are dispatched to the
          fleet through {!Coordinator} (retries, hedging, failover) and
          run locally only when the fleet is exhausted — counted in
          [server_stats.remote_fallbacks]. *)
  fleet_rpc_timeout_ms : int;  (** per-dispatch-attempt budget *)
  fleet_hedge_ms : int option;
      (** straggler threshold for hedged dispatch; [None] derives it
          from the p95 of past wins *)
}

val default_config : config
(** 127.0.0.1, ephemeral port, 2 workers, queue cap 64, no deadline, no
    persistence, no kernels; breaker threshold 3 with 30 s cooldown, no
    build timeout, 100 ms watchdog grace, 8 restarts / 60 s window,
    64 sessions, no idle timeout; no fleet. *)

type t

val start : config -> t
(** Bind, run the startup fsck (when [cache_dir] exists), open the cache
    and journal ([~resume:true] — completed work in an interrupted
    journal is honoured), spawn workers and the accept loop. Raises
    [Unix.Unix_error] if the address cannot be bound. *)

val port : t -> int
val startup_diags : t -> Soc_util.Diag.t list
(** What the startup fsck found/repaired ([IO4xx] family). *)

val cache_diags : t -> Soc_util.Diag.t list
(** Integrity diagnostics the live cache accumulated while serving. *)

val wait : t -> [ `Drained of int * int | `Killed of string * int ]
(** Block until a [Drain] request completed ((completed, failed) requests)
    or the armed kill point fired. *)

val stop : t -> unit
(** Force shutdown: abort live jobs, close the listener, join workers,
    close the journal. Safe after {!wait}; used by tests. *)

val pause : t -> unit
(** Hold worker dispatch (queued jobs wait) — the deterministic-test hook,
    also reachable over no protocol on purpose. *)

val unpause : t -> unit

val stats : t -> Protocol.server_stats

val live_workers : t -> int
(** Worker threads currently alive and not abandoned by the watchdog. *)

val is_degraded : t -> bool
(** The pool exhausted its restart budget and is no longer replaced. *)

val session_count : t -> int
(** Currently open client sessions. *)

(**/**)

val handle : t -> Protocol.request -> Protocol.response
(** One request against the server state, no socket involved — the
    session loop's body, exposed for direct unit tests. [Result] and
    [Drain] block exactly as they do over the wire. *)
