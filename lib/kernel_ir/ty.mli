(** Scalar types of the kernel IR: the fixed-width integer subset of C that
    the paper's HLS inputs use. Evaluation happens on 32-bit words;
    assignment truncates to the destination type. *)

type t = U1 | U8 | U16 | U32 | I32

val width : t -> int
val to_string : t -> string
(** The C spelling, e.g. [uint8_t]. *)

val pp : Format.formatter -> t -> unit

val store : t -> int -> int
(** Value of [v] as stored in a variable of this type (masked). *)

val equal : t -> t -> bool
