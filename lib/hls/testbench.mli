(** Standalone accelerator testbench: runs a synthesized FSMD in the RTL
    simulator with ideal stream sources and sinks. Used for differential
    interpreter-vs-RTL tests and isolated latency measurements. *)

type result = {
  cycles : int;
  out_scalars : (string * int) list;
  out_streams : (string * int list) list;
}

exception Timeout of string
(** The accelerator did not assert [ap_done] within 5M cycles. *)

val run :
  ?scalars:(string * int) list ->
  ?streams:(string * int list) list ->
  Fsmd.t ->
  result
