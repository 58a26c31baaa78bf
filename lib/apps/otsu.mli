(** The Otsu binary-segmentation case study (Section VI): a pure OCaml
    golden model and the corresponding IR kernels (named after Listing 4).
    All arithmetic is integer-only and identical between golden model and
    kernels, so hardware, software and reference runs are bit-exact for
    images up to 256x256. *)

module Golden : sig
  val gray_of_rgb : int -> int
  val gray_scale : Image.rgb_image -> Image.t
  val histogram : Image.t -> int array

  val otsu_threshold : int array -> total:int -> int
  (** Integer Otsu: maximizes ((wB*wF)/total) * (mB-mF)^2. *)

  val binarize : Image.t -> threshold:int -> Image.t

  val run : Image.rgb_image -> Image.t * int
  (** Full pipeline: segmented image and chosen threshold. *)
end

val gray_scale_kernel : pixels:int -> Soc_kernel.Ast.kernel
val histogram_kernel : pixels:int -> Soc_kernel.Ast.kernel
val otsu_method_kernel : pixels:int -> Soc_kernel.Ast.kernel
val segment_kernel : pixels:int -> Soc_kernel.Ast.kernel

val kernels : width:int -> height:int -> (string * Soc_kernel.Ast.kernel) list
(** The four kernels keyed by their Listing 4 node names; raises
    [Invalid_argument] beyond 256x256 (32-bit score math). *)
