(** AXI-Lite model: per-accelerator register files in a global memory map
    (control/status at 0x00/0x04, arguments from 0x10, like the
    [s_axilite] adapters Vivado HLS generates), an address decoder, and
    timed single-beat bus accessors for the GPP. *)

val write_latency : int
(** Single-beat write round-trip on the GP port, in PL cycles. *)

val read_latency : int

type regfile = {
  owner : string;
  base : int;  (** byte address in the global map *)
  size : int;
  values : (int, int) Hashtbl.t;
  mutable reads : int;  (** bus transactions observed *)
  mutable writes : int;
  mutable error_budget : int;  (** injected SLVERRs still to deliver *)
}

val ctrl_offset : int
(** Bit 0 = ap_start (self-clearing). *)

val status_offset : int
(** Bit 0 = sticky ap_done. *)

val arg_offset : int -> int
(** Register-file offset of the [i]-th scalar argument. *)

val rf_peek : regfile -> offset:int -> int
(** Hardware-side access: not counted as a bus transaction. *)

val rf_poke : regfile -> offset:int -> int -> unit

type interconnect

val gp0_base : int
(** First slave segment (0x4000_0000, the Zynq GP0 window). *)

val create_interconnect : unit -> interconnect

val attach : interconnect -> owner:string -> size:int -> regfile
(** Allocate the next 64 KiB-aligned segment. *)

type decode_error =
  | No_slave of int  (** decoded to no register file *)
  | Slave_error of int  (** the slave responded SLVERR (injected fault) *)

val decode : interconnect -> int -> (regfile * int, decode_error) result
(** Route a global address to (slave, offset). *)

val inject_slave_error : interconnect -> owner:string -> count:int -> bool
(** Fault injection: the next [count] transactions decoding to [owner]
    respond [Slave_error]. False if no such slave is attached. *)

val bus_read : interconnect -> int -> (int * int, decode_error) result
(** Value and transaction latency. *)

val bus_write : interconnect -> int -> int -> (int, decode_error) result

val address_map : interconnect -> (string * int * int) list
(** (owner, base, size) per slave, in attach order. *)
