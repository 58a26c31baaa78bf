(** Grayscale/RGB images, PGM (P2) text I/O and a deterministic synthetic
    scene generator substituting for the paper's photograph (Fig. 7). *)

type t = { width : int; height : int; pixels : int array  (** row-major *) }

val create : width:int -> height:int -> t
val get : t -> x:int -> y:int -> int
val set : t -> x:int -> y:int -> int -> unit
(** Values are masked to a byte. *)

val size : t -> int
val map : (int -> int) -> t -> t
val equal : t -> t -> bool

val pack_rgb : r:int -> g:int -> b:int -> int
(** 24-bit packed pixel, the beat format of the imageIn stream. *)

val unpack_rgb : int -> int * int * int

type rgb_image = { rgb_width : int; rgb_height : int; rgb : int array }

val synthetic_rgb : ?seed:int -> width:int -> height:int -> unit -> rgb_image
(** Bimodal scene (dark background, bright shapes, noise); deterministic
    for a given seed. *)

val rgb_to_gray : rgb_image -> t

val to_pgm : t -> string

exception Bad_pgm of string

val of_pgm : string -> t
val write_pgm_file : string -> t -> unit

val histogram : t -> int array
(** 256 bins; the golden model for the computeHistogram kernel. *)
