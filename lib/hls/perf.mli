(** Static performance estimation — the "Performance Estimates" section of
    a Vivado HLS report. Min/max stall-free latency from the schedule's
    per-block state counts and the CFG's structured-loop metadata. Exact
    (min = max = measured) for kernels with constant trip counts, no
    data-dependent branches and ideal stream handshakes. *)

type bound = Finite of int | Unbounded

type interval = { min_cycles : int; max_cycles : bound }

type loop_report = {
  header_block : int;
  trip_count : int option;
  iteration_min : int;
  iteration_max : bound;
}

type report = {
  kernel_name : string;
  latency : interval;  (** full ap_start -> ap_done round trip *)
  loop_reports : loop_report list;
  has_stream_io : bool;  (** stalls possible: the estimate assumes none *)
}

exception Irreducible of string

val analyze : Schedule.t -> report
val pp : Format.formatter -> report -> unit
