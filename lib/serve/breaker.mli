(** Keyed circuit breakers for poison-pill containment.

    One breaker per coalescing key. [threshold] consecutive failures of a
    key open its breaker: admission then rejects the key immediately
    (verdict {!Reject}) instead of burning a worker on a build known to
    die. After [cooldown_ms] the breaker goes half-open and admits exactly
    one probe ({!Probe}); a successful probe closes the breaker, a failed
    one reopens it with a fresh cooldown. A probe that reports nothing
    within one cooldown (refused at admission, expired in the queue)
    counts as lost, and the next check issues a new one. Any success resets the key's
    consecutive-failure count, so intermittent flakiness never trips —
    only persistent poison does. Thread-safe. *)

type t

type verdict =
  | Admit  (** breaker closed (or disabled) — admit normally *)
  | Probe  (** half-open — this caller carries the single probe *)
  | Reject of float  (** open, or a probe in flight — seconds until a retry *)

val create : ?clock:(unit -> float) -> threshold:int -> cooldown_ms:int -> unit -> t
(** [threshold <= 0] disables the breaker: [check] always admits and
    [record] is a no-op. *)

val check : t -> string -> verdict
(** Consult (and possibly transition) the key's breaker at admission
    time. An open breaker whose cooldown has elapsed transitions to
    half-open and returns [Probe]; further checks while the probe is in
    flight return [Reject] with the time left on the probe's lease, which
    ends one cooldown after it was issued. *)

val record : t -> string -> ok:bool -> unit
(** Report the outcome of a build of [key]. *)

val open_keys : t -> int
(** Keys currently open or half-open. *)

val trips : t -> int
(** Total closed/half-open -> open transitions since creation. *)
