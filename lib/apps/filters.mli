(** Kernels for the Fig. 4 example system: ADD and MULT over AXI-Lite, and
    3x3 Gaussian blur + Sobel edge detection over AXI-Stream using the
    classic two-line-buffer streaming structure (border pixels pass
    through, so output length equals input length). *)

val add_kernel : Soc_kernel.Ast.kernel
val mul_kernel : Soc_kernel.Ast.kernel

val gauss_kernel : width:int -> height:int -> Soc_kernel.Ast.kernel
val edge_kernel : width:int -> height:int -> Soc_kernel.Ast.kernel

module Golden : sig
  val gauss : width:int -> height:int -> int array -> int array
  val edge : width:int -> height:int -> int array -> int array
end
