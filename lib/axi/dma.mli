(** AXI DMA engine model: an MM2S (memory-to-stream) and an S2MM
    (stream-to-memory) channel, instantiated by the integration step for
    every stream crossing the 'soc boundary. Channels move data in bursts
    of up to [burst_len] beats, paying the DRAM first-word latency per
    burst, subject to FIFO backpressure. *)

type mm2s = {
  m_name : string;
  dram : Dram.t;
  dest : Fifo.t;
  mutable m_addr : int;
  mutable m_remaining : int;
  mutable m_buffer : int list;
  mutable m_wait : int;
  mutable m_busy : bool;
  mutable m_total_beats : int;
  mutable m_stall : int;
  mutable m_error : bool;
}

type s2mm = {
  s_name : string;
  s_dram : Dram.t;
  src : Fifo.t;
  mutable s_addr : int;
  mutable s_remaining : int;
  mutable s_credit : int;
  mutable s_wait : int;
  mutable s_busy : bool;
  mutable s_total_beats : int;
  mutable s_stall : int;
  mutable s_error : bool;
}

val create_mm2s : name:string -> dram:Dram.t -> dest:Fifo.t -> mm2s
val create_s2mm : name:string -> dram:Dram.t -> src:Fifo.t -> s2mm

val start_mm2s : mm2s -> addr:int -> len:int -> unit
(** Program a read descriptor. Raises [Invalid_argument] if busy or
    [len < 0]; [len = 0] completes immediately. *)

val start_s2mm : s2mm -> addr:int -> len:int -> unit

val mm2s_idle : mm2s -> bool
val s2mm_idle : s2mm -> bool

val mm2s_ok : mm2s -> bool
(** False once the current/last descriptor aborted with a transfer error;
    cleared by [start_mm2s] or [reset_mm2s]. *)

val s2mm_ok : s2mm -> bool

val inject_stall_mm2s : mm2s -> cycles:int -> unit
(** Fault injection: the channel makes no progress for [cycles] steps. *)

val inject_stall_s2mm : s2mm -> cycles:int -> unit

val inject_error_mm2s : mm2s -> unit
(** Fault injection: abort the in-flight descriptor; the channel goes
    idle with its error bit set and the rest of the transfer is lost. *)

val inject_error_s2mm : s2mm -> unit

val reset_mm2s : mm2s -> unit
(** Driver-level channel reset: clears descriptor, stall and error. *)

val reset_s2mm : s2mm -> unit

val step_mm2s : mm2s -> unit
(** One simulated PL cycle. *)

val step_s2mm : s2mm -> unit

val resource_cost : channels:int -> int * int * int
(** Fabric footprint (LUT, FF, RAMB18) of one AXI DMA core. *)
