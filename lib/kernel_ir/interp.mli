(** Reference interpreter over the CFG.

    Run-to-completion ([run]/[run_kernel]) executes software tasks with all
    stream inputs supplied up front; the resumable [make]/[step] interface
    supports behavioural co-simulation and differential testing against the
    RTL produced by HLS. *)

(** Channel interface: [pop] returning [None] or [push] returning [false]
    makes the interpreter report [Blocked]. *)
type io = {
  pop : string -> int option;
  push : string -> int -> bool;
}

type stats = {
  mutable alu_ops : int;
  mutable mem_ops : int;
  mutable stream_reads : int;
  mutable stream_writes : int;
  mutable moves : int;
  mutable branches : int;
  mutable steps : int;
}

val total_ops : stats -> int
(** Dynamic operation count, the basis of the GPP time model. *)

type state

exception Runtime_error of string
(** Out-of-bounds array access or missing array. *)

val make : ?scalars:(string * int) list -> Cfg.t -> state
(** Fresh execution state; [scalars] initializes input registers. *)

type outcome = Stepped | Blocked | Done

val step : state -> io -> outcome
(** Execute at most one instruction or terminator. *)

val peek_reg : state -> string -> int
(** Observe a register of a (possibly suspended) execution state. *)

val stats_of : state -> stats

(** In-memory FIFO channels backing [io] for run-to-completion use. *)
module Channels : sig
  type t

  val create : unit -> t
  val drain : t -> string -> int list
  val length : t -> string -> int
  val io : t -> io
end

type result = {
  out_scalars : (string * int) list;
  channels : Channels.t;
  run_stats : stats;
}

exception Stuck of string
(** Raised by [run] on an empty input channel or fuel exhaustion. *)

val run :
  ?fuel:int ->
  ?scalars:(string * int) list ->
  ?streams:(string * int list) list ->
  Cfg.t ->
  result

val run_kernel :
  ?fuel:int ->
  ?scalars:(string * int) list ->
  ?streams:(string * int list) list ->
  Ast.kernel ->
  result
(** [run] after lowering (and therefore typechecking) the kernel. *)
