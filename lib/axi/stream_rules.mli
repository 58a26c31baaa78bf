(** AXI-Stream protocol checker for one channel direction: TVALID must stay
    asserted until the handshake, and TDATA must be stable while stalled.
    The platform wraps every accelerator output with one checker so FSMD
    stall bugs surface as protocol violations, not silent corruption. *)

type violation =
  | Valid_dropped of { channel : string; cycle : int }
  | Data_changed of { channel : string; cycle : int; before : int; after : int }

val pp_violation : Format.formatter -> violation -> unit

type t

val create : string -> t

val observe : t -> tvalid:bool -> tdata:int -> tready:bool -> unit
(** Feed one cycle's view of the channel. *)

val skip : t -> int -> unit
(** Account for [k] cycles of an idle channel (TVALID low, no data
    pending) at once: only the cycle count in later violations moves. *)

val violations : t -> violation list
val handshakes : t -> int

val to_diag : violation -> Soc_util.Diag.t
(** The violation as a runtime diagnostic: [RUN301] for a dropped TVALID,
    [RUN302] for unstable TDATA, both errors with the channel as
    subject — same renderer as the static checks ([socdsl check]). *)
