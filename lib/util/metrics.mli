(** Source-volume metrics for the paper's Section VI.C conciseness study
    (generated Tcl vs DSL source, in lines and non-whitespace characters). *)

type volume = { lines : int; chars : int; nonblank_lines : int }

val of_string : string -> volume
(** Counts for a whole text; [chars] excludes all whitespace, and a final
    trailing newline does not add a line. *)

val ratio : num:int -> den:int -> float
(** [num /. den], or [0.0] when [den] is zero. *)

val pp_volume : Format.formatter -> volume -> unit

(** Named event counters (runtime observability: the fault injector's
    injected/detected/retried/fell_back/unrecovered tallies). Counters
    spring into existence at first increment. *)
module Counters : sig
  type t

  val create : unit -> t
  val add : t -> string -> int -> unit
  val incr : t -> string -> unit
  val get : t -> string -> int
  (** 0 for a counter never incremented. *)

  val to_list : t -> (string * int) list
  (** Sorted by name, for deterministic reports. *)

  val pp : Format.formatter -> t -> unit
end

(** Fixed log-bucketed latency histogram (the serving daemon's per-request
    service-time metric). Bucket [i] covers [(bound (i-1), bound i]] with
    [bound i = base * ratio^i], plus one overflow bucket; quantiles report
    bucket upper bounds, so they depend only on the multiset of
    observations. Domain-safe. *)
module Histogram : sig
  type t

  val create : ?base:float -> ?ratio:float -> ?buckets:int -> unit -> t
  (** Defaults: [base] 0.001, [ratio] 2.0, [buckets] 48 — with values in
      milliseconds that spans 1 µs to ~3 days. Raises [Invalid_argument]
      unless [base > 0], [ratio > 1] and [buckets >= 1]. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  (** 0.0 when empty. *)

  val quantile : t -> float -> float
  (** Upper bound of the bucket holding the rank-[ceil (q*count)]
      observation; 0.0 when empty. [q] is clamped to [0,1]. *)

  val p50 : t -> float
  val p95 : t -> float
  val p99 : t -> float

  val to_list : t -> (float * int) list
  (** Non-empty buckets as (upper bound, count), ascending. *)

  val pp : Format.formatter -> t -> unit
end
