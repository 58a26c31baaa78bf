(** The remote build worker behind [socdsl serve --worker].

    The dumb end of the fleet: no queue, no journal, no supervision —
    it parses the source a {!Coordinator} hands it and runs
    {!Coordinator.build_entry} ([Farm.build_batch ~jobs:1] on a domain
    spawned per build) against its (usually shared) content-addressed
    cache. What it guarantees is {e idempotency}: builds are keyed by
    the coordinator's coalescing key, a duplicate [Build] for a key in
    flight attaches to the running build, and finished work is served
    from the farm cache — so the coordinator may re-send, race and
    abandon requests freely without repeating HLS. A [Cancel key] aborts
    the in-flight build for [key] at its next cancellable point, in any
    of its jobs. Crash safety is the cache's atomic
    temp+rename commits; a killed worker loses only in-flight work.

    Replies are written on the ["wk:<worker_id>"] net-fault link so
    chaos campaigns can one-way-partition a worker from the outside. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  cache_dir : string option;
  cache_max_mb : int option;
  kernels : (string * Soc_kernel.Ast.kernel) list;
  worker_id : string;  (** label in hello replies and net-fault links *)
}

val default_config : config
(** 127.0.0.1, ephemeral port, no persistence, no kernels, worker id
    ["worker"]. Frames are bounded by the protocol's 16 MiB limit. *)

type t

val start : config -> t
(** Bind (with [SO_REUSEADDR], so a chaos campaign can restart a killed
    worker on the same port) and spawn the accept loop. Raises
    [Unix.Unix_error] if the address cannot be bound. *)

val port : t -> int
val worker_id : t -> string

val in_flight : t -> int
(** Builds currently running (or attached) on this worker. *)

val builds_done : t -> int
(** Builds completed successfully since startup. *)

val cancel_hits : t -> int
(** [Cancel] requests that found their key in flight. *)

val kill : t -> unit
(** Simulated [kill -9]: close the port — connections are refused once
    this returns, and a new worker may start on it at once — and tear
    down every session at the socket level — no farewell frames, peers
    see EOF or torn frames. In-flight builds are flagged cancelled so
    injected hangs abort instead of leaking wedged threads. The
    process-level equivalent in CI is a real [kill -9]. *)

val stop : t -> unit
(** Orderly shutdown: stop accepting, cancel in-flight builds, join
    every session thread. *)

(**/**)

val handle : t -> Protocol.request -> Protocol.response
(** One request against the worker state, no socket involved — exposed
    for direct unit tests. [Build] blocks exactly as over the wire. *)
