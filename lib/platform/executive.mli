(** Co-simulation executive and host (driver-level) API.

    The executive owns the platform timeline in PL clock cycles: software
    work advances the clock in bulk via the GPP cost model (while the
    fabric keeps ticking), hardware work advances cycle by cycle. The host
    API mirrors the generated driver interface: AXI-Lite register access,
    accelerator start / polled wait / interrupt wait, blocking [writeDMA]
    and non-blocking DMA starts run as one phase.

    A {!Soc_fault.Fault.plan} can be armed on the executive; it is
    consulted once per fabric cycle and due faults are injected into the
    simulated hardware. {!run_task_resilient} wraps a hardware task in the
    recovery ladder: watchdog timeout -> soft reset + bounded retry with
    exponential backoff -> software fallback on the GPP. All exceptions
    below register [Printexc] printers, so an uncaught one prints a
    structured report rather than an opaque constructor name. *)

exception Deadlock of { cycle : int; detail : string list }
(** No stream transfer for the configured window while work is pending. *)

exception
  Bus_error of {
    addr : int;
    dir : [ `Read | `Write ];
    kind : [ `Decode | `Slverr ];
  }
(** AXI-Lite access failed: [`Decode] = no slave at that address,
    [`Slverr] = the slave answered SLVERR (injected fault). *)

exception Watchdog_expired of { cycle : int; task : string }
(** A resilient task overran its per-attempt cycle budget. *)

type failure = { attempt : int; at_cycle : int; cause : string }
(** One failed hardware attempt of a resilient task. *)

exception
  Unrecoverable of {
    task : string;
    cycle : int;
    failures : failure list;
    injected : Soc_fault.Fault.fault list;
  }
(** Every hardware attempt failed and no software fallback exists. Carries
    the full attempt history and the faults injected so far. *)

type timeline = {
  mutable total : int;
  mutable gpp_compute : int;
  mutable bus : int;
  mutable hw : int;
  mutable skipped : int;
      (** Of [total]: cycles fast-forwarded over a quiescent fabric
          instead of stepped. Always 0 under the interpreter backend. *)
}

type t = {
  sys : System.t;
  timeline : timeline;
  mutable last_transfer_cycle : int;
  mutable plan : Soc_fault.Fault.plan option;
  mutable plan_base : int;
  mutable watchdog : (string * int) option;
}

val create : System.t -> t

val config : t -> Config.t
val dram : t -> Soc_axi.Dram.t
val elapsed_cycles : t -> int
val elapsed_us : t -> float

val step_fabric : t -> bool
(** One PL cycle of every accelerator, DMA and FIFO; true iff a beat
    moved. Applies due plan faults first and checks the watchdog. *)

(** {2 Fault plan} *)

val set_fault_plan : t -> Soc_fault.Fault.plan -> unit
(** Arm a plan; its injection cycles are relative to the current cycle. *)

val clear_fault_plan : t -> unit

val inventory : ?dram_range:int * int -> t -> Soc_fault.Fault.inventory
(** The injectable units of this system, for seeded campaigns. *)

(** {2 Driver API} *)

val bus_write : t -> int -> int -> unit
val bus_read : t -> int -> int

val set_arg : t -> accel:string -> port:string -> int -> unit
val get_arg : t -> accel:string -> port:string -> int

val start_accel : t -> string -> unit
(** Arm (clear sticky done) and set ap_start over the bus. *)

val wait_accel : t -> string -> unit
(** Spin on the status register (each poll is a bus read). *)

val wait_accel_irq : t -> string -> unit
(** Interrupt-driven wait: block until done, pay one ISR overhead plus a
    single acknowledging status read. *)

val write_dma : t -> channel:string -> addr:int -> len:int -> unit
(** Blocking writeDMA (MM2S): stream a DRAM buffer into the channel. *)

val start_write_dma : t -> channel:string -> addr:int -> len:int -> unit
(** Non-blocking variants, for running a whole dataflow phase. *)

val start_read_dma : t -> channel:string -> addr:int -> len:int -> unit

val run_phase : t -> accels:string list -> unit
(** Until all DMA descriptors retired and the named accelerators done. *)

val run_software :
  t ->
  Soc_kernel.Ast.kernel ->
  scalars:(string * int) list ->
  stream_bufs_in:(string * (int * int)) list ->
  stream_bufs_out:(string * (int * int)) list ->
  Gpp.task_result
(** Execute a software task on the GPP model; advances the clock. *)

(** {2 Fault-tolerant driver layer} *)

type outcome = Hardware | Fallback

type report = {
  task : string;
  attempts_made : int;
  outcome : outcome;
  failures : failure list;
}

val pp_report : Format.formatter -> report -> unit

val run_task_resilient :
  ?timeout:int ->
  ?verify:(unit -> bool) ->
  ?fallback:(unit -> unit) ->
  t ->
  task:string ->
  (unit -> unit) ->
  report
(** Run a hardware task under the recovery ladder. Each attempt runs under
    a watchdog of [timeout] cycles (default [Config.watchdog_cycles]); on
    watchdog expiry, deadlock, bus error, DMA transfer error or failed
    [verify], the fabric is soft-reset and the task retried after an
    exponential backoff ([Config.retry_backoff_cycles] * 2^(attempt-1),
    charged as GPP time), up to [Config.max_attempts] hardware attempts.
    When all fail, [fallback] is invoked (graceful degradation to the
    GPP) if given, otherwise {!Unrecoverable} is raised with the attempt
    history. *)
