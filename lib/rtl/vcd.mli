(** Value-change-dump (VCD) recording of a running simulation, viewable in
    standard waveform viewers. Call [sample] once per cycle after
    [Sim.settle]; only actual value changes are written. *)

type t

val create : Netlist.t -> Sim.t -> t
(** Probes the module's ports and registers. *)

val create_with : Netlist.t -> read:(Netlist.signal -> int) -> t
(** Like [create] but sourcing values from an arbitrary reader — lets any
    backend that can evaluate a signal (e.g. the compiled tape executor)
    drive the same recorder. *)

val id_of_index : int -> string
(** The printable-ASCII VCD identifier for probe [n]. *)

val binary_of_int : width:int -> int -> string

val sample : t -> unit
val to_string : t -> string
