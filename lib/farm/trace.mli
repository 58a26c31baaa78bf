(** Farm observability: per-job spans and counters.

    Spans accumulate into a thread-safe collector and export as Chrome
    [trace_event] JSON (load the file in [chrome://tracing] / Perfetto:
    one row per worker, one complete event per job). Counters
    render as a {!Soc_util.Table} summary. *)

type span = {
  name : string;  (** job label, e.g. ["hls:computeHistogram@1a2b.."] *)
  cat : string;  (** phase category, e.g. ["hls"], ["integrate"] *)
  worker : int;  (** worker index — the trace [tid] *)
  t_start : float;  (** seconds since trace creation *)
  t_end : float;
  outcome : string;  (** ["ok"] or ["error"] *)
}

type t

val create : unit -> t

val now : t -> float
(** Monotonic-ish seconds since [create] (wall clock based). *)

val add_span : t -> span -> unit

val incr : t -> string -> unit
(** Bump a named counter by one. *)

val add : t -> string -> int -> unit
(** Add to a named counter. *)

val max_gauge : t -> string -> int -> unit
(** Record the running maximum of a named gauge (e.g. queue depth). *)

val spans : t -> span list
(** In [t_start] order. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val to_chrome_json : t -> string
val save : t -> string -> unit

val counter_table : t -> Soc_util.Table.t
