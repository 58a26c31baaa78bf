(** Scalar types of the kernel IR.

    The IR mirrors the subset of C that Vivado HLS accepts for accelerator
    bodies: fixed-width integers only. All evaluation is performed on 32-bit
    machine words; assignment truncates to the destination type. *)

type t = U1 | U8 | U16 | U32 | I32

let width = function U1 -> 1 | U8 -> 8 | U16 -> 16 | U32 -> 32 | I32 -> 32

let to_string = function
  | U1 -> "bool"
  | U8 -> "uint8_t"
  | U16 -> "uint16_t"
  | U32 -> "uint32_t"
  | I32 -> "int32_t"

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* Value of [v] as stored in a variable of type [t]. *)
let store t v =
  let w = width t in
  Soc_util.Bits.truncate ~width:w v

let equal (a : t) (b : t) = a = b
