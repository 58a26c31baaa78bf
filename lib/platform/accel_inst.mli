(** An instantiated accelerator wired to its AXI-Lite register file and
    AXI-Stream FIFOs, at one of two abstraction levels: cycle-accurate RTL
    simulation of the synthesized FSMD (default), or the behavioural
    interpreter paced at one stream beat per cycle (fast functional
    co-simulation; a performance upper bound). Both honour the same
    control protocol and handshakes, so they are interchangeable in a
    system.

    Control protocol (HLS [s_axilite]): ctrl bit 0 = ap_start
    (self-clearing); status bit 0 = sticky ap_done; argument registers
    forwarded into the datapath, results copied back at completion. *)

type t

val create : name:string -> fsmd:Soc_hls.Fsmd.t -> regfile:Soc_axi.Lite.regfile -> t
(** RTL-level instance, simulated by {!Soc_rtl_compile.Engine}'s default
    backend. *)

val create_behavioral :
  name:string -> kernel:Soc_kernel.Ast.kernel -> regfile:Soc_axi.Lite.regfile -> t
(** Behavioural instance straight from the kernel (no HLS needed). *)

val regfile : t -> Soc_axi.Lite.regfile
val name : t -> string

val arg_offset : t -> string -> int
val bind_input : t -> port:string -> Soc_axi.Fifo.t -> unit
val bind_output : t -> port:string -> Soc_axi.Fifo.t -> unit
val unbound_streams : t -> string list

val bound_fifos : t -> Soc_axi.Fifo.t list
(** Every FIFO bound to an input or output stream port. *)

val input_bindings : t -> (string * Soc_axi.Fifo.t) list
val output_bindings : t -> (string * Soc_axi.Fifo.t) list
(** (port, fifo) stream bindings, for integration-level design-rule
    checks. *)

val is_done : t -> bool
val is_idle : t -> bool

val step : t -> bool
(** One PL clock cycle; true iff at least one stream beat moved. *)

val still : t -> bool
(** Whether the last {!step} was a fixpoint of an RTL core: nothing moved,
    ap_done stayed low, every output saw TREADY high, no hang or result
    corruption is armed and the simulator is quiet
    ({!Soc_rtl_compile.Engine.quiet}). Behavioural cores and the
    interpreter backend are never still. *)

val skip : t -> int -> unit
(** Account for [k] repeats of a still step without running them (the
    simulator's and the output checkers' cycle counts advance). Valid only
    right after a still step, in a fabric that drives the core's inputs
    unchanged; raises [Invalid_argument] when the core is not still. *)

val arm : t -> unit
val protocol_violations : t -> Soc_axi.Stream_rules.violation list

(** {2 Fault injection and recovery} *)

val inject_hang : t -> cycles:int -> unit
(** Freeze the core for [cycles] steps ([max_int] = permanently): no
    handshakes, status never goes done. *)

val inject_spurious_done : t -> unit
(** Latch sticky done without completing (no results copied back), then
    wedge until reset. *)

val inject_result_corruption : t -> mask:int -> unit
(** XOR [mask] into the first scalar result at the next completion. *)

val soft_reset : t -> unit
(** Driver-level reset to the post-bitstream state: datapath
    re-initialized, sticky done and injected faults cleared; argument
    registers survive. *)
