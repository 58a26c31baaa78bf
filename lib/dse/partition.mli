(** Hardware/software partitions of the Otsu pipeline — the DSE extension
    the paper leaves as future work. [spec_of] generates the DSL system for
    any partition with the same rule the paper's architectures follow:
    adjacent hardware stages chain directly; everything else crosses 'soc
    through DMA. *)

type stage = Gray | Hist | OtsuM | Seg

val all_stages : stage list

val node_name : stage -> string
(** Listing 4 kernel/node name. *)

type t = { gray : bool; hist : bool; otsu : bool; seg : bool }

val all_sw : t
val in_hw : t -> stage -> bool
val with_stage : t -> stage -> bool -> t
val is_all_sw : t -> bool

val signature : t -> string
(** Four characters, H/S, in pipeline order. *)

val name : t -> string
val of_signature : string -> t

val enumerate : unit -> t list
(** All 2^4 partitions. *)

val arch1 : t
val arch2 : t
val arch3 : t
val arch4 : t

val spec_of : t -> Soc_core.Spec.t
(** Validated except for the all-software partition (empty system). *)

val kernels_of : t -> width:int -> height:int -> (string * Soc_kernel.Ast.kernel) list
