(** Deterministic DAG executor over OCaml 5 domains.

    Jobs form a dependency graph; ready jobs are dispatched to a fixed set
    of workers in ascending job-id order: the calling domain plus helper
    domains spawned for the run. Because every job is a
    pure function of its dependencies' results, the outcome array is
    bit-identical regardless of the worker count or interleaving — only
    wall-clock changes.

    A job that raises never raises out of {!run}: it and its transitive
    dependents surface as structured {!outcome}s. *)

type reason =
  | Exception of string
  | Dependency of int  (** id of the failed dependency *)
  | Aborted  (** the run's abort switch was set before this job dispatched *)

type failure = { index : int; label : string; reason : reason }

val pp_failure : Format.formatter -> failure -> unit
(** ["job N (label) failed after K attempt(s): ..."]: K is 1 for an
    {!Exception}, 0 for a job that never ran. *)

type 'a outcome = Done of 'a | Failed of failure

type 'a job = {
  label : string;
  cat : string;  (** trace category (phase) *)
  deps : int list;  (** indices into the job array, each < this job's index *)
  work : (int -> 'a) -> 'a;
      (** [work get] runs the job; [get i] returns dependency [i]'s result
          (only valid for declared deps, which are guaranteed [Done]). *)
}

val run : ?jobs:int -> ?abort:bool Atomic.t -> ?trace:Trace.t -> 'a job array -> 'a outcome array
(** [jobs] workers (default {!Domain.recommended_domain_count}): the
    caller runs as worker 1 and [jobs - 1] helper domains are spawned and
    joined before [run] returns, so [~jobs:1] spawns no domain and runs
    every job on the calling thread. Trace spans number workers 1..[jobs].
    [abort], once set, makes every not-yet-dispatched job fail as
    {!Aborted} without running — the crash-injection path uses it so a
    simulated process death executes no further work. Raises
    [Invalid_argument] on malformed dependencies. *)
