(** A composed hardware system: the simulated counterpart of the block
    design the paper's tool builds — Zynq PS (DRAM + GP port), AXI-Lite
    interconnect, accelerators, DMA cores and stream FIFOs. *)

type t = {
  config : Config.t;
  dram : Soc_axi.Dram.t;
  ic : Soc_axi.Lite.interconnect;
  mutable accels : (string * Accel_inst.t) list;
  mutable fifos : Soc_axi.Fifo.t list;
  mutable mm2s : (string * Soc_axi.Dma.mm2s) list;
  mutable s2mm : (string * Soc_axi.Dma.s2mm) list;
}

val create : ?config:Config.t -> ?dram_words:int -> unit -> t

val add_accel : t -> name:string -> Soc_hls.Fsmd.t -> Accel_inst.t
(** Instantiate an accelerator and attach its register file to the bus.
    The RTL instance runs on {!Soc_rtl_compile.Engine}'s default backend.
    Raises [Invalid_argument] on duplicate names. *)

val add_accel_behavioral : t -> name:string -> Soc_kernel.Ast.kernel -> Accel_inst.t
(** Behavioural (interpreter-level) instance of the kernel itself — fast
    functional co-simulation without HLS. *)

val accel : t -> string -> Accel_inst.t

val new_fifo : t -> name:string -> Soc_axi.Fifo.t
(** A FIFO of the platform's [default_fifo_depth]; every stream FIFO
    below is one. *)

val link_stream : t -> src:string * string -> dst:string * string -> Soc_axi.Fifo.t
(** Direct accelerator-to-accelerator stream link. *)

val add_mm2s : t -> dst:string * string -> string * Soc_axi.Dma.mm2s
(** DMA read channel feeding an accelerator input; returns its name. *)

val add_s2mm : t -> src:string * string -> string * Soc_axi.Dma.s2mm

val validate : t -> Soc_util.Diag.t list
(** Static design-rule check; empty means clean. Reports unbound stream
    ports ([SOC050], subject "accel.in:port"), duplicate DMA channel names
    ([SOC051]), stream inputs driven by more than one writer — e.g. both a
    FIFO link and a DMA channel ([SOC053]) — and, as warnings, FIFOs that
    were created but never attached to an accelerator or DMA engine
    ([SOC052]). *)

val protocol_violations : t -> Soc_axi.Stream_rules.violation list
val fifo_stats : t -> string list
