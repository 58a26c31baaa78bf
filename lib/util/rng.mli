(** Deterministic splitmix64 pseudo-random generator.

    Benchmarks and simulations must be reproducible run-to-run, so every
    stochastic component takes an explicit generator seeded by the caller. *)

type t

val create : int -> t
(** A generator from a seed; equal seeds yield equal sequences. *)

val copy : t -> t
(** An independent generator continuing from the same state. *)

val keyed_float : seed:int -> key:string -> n:int -> float
(** A pure hash of [(seed, key, n)] into [0, 1), for decisions that must
    replay bit-for-bit without threading a generator: the [n]th fault
    verdict on a link, the retry jitter for a request. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound] must be positive. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [0, 1). *)

val choose : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> 'a array
(** A shuffled copy (Fisher-Yates); the input array is not modified. *)
