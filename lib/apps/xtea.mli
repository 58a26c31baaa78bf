(** XTEA block cipher: a second application domain for the DSL — a
    crypto-offload SoC with encrypt and decrypt accelerators chained into
    a self-checking loopback pipeline. Keys enter over AXI-Lite; block
    streams carry (v0, v1) word pairs. *)

val rounds : int

module Golden : sig
  val mask : int -> int
  val encrypt_block : key:int array -> int * int -> int * int
  val decrypt_block : key:int array -> int * int -> int * int

  val encrypt_words : key:int array -> int list -> int list
  (** Pairs of words are blocks; raises on odd word counts. *)
end

val encrypt_kernel : blocks:int -> Soc_kernel.Ast.kernel
val decrypt_kernel : blocks:int -> Soc_kernel.Ast.kernel

val loopback_spec : Soc_core.Spec.t
(** pt --DMA--> xteaEnc --fabric link--> xteaDec --DMA--> pt' *)

val loopback_kernels : blocks:int -> (string * Soc_kernel.Ast.kernel) list

val encrypt_spec : Soc_core.Spec.t
(** Encrypt-only SoC, for throughput measurements. *)

val run_loopback :
  ?blocks:int -> key:int array -> unit -> int * bool * Soc_core.Flow.build
(** Run the loopback system on the simulated platform: PL cycles, whether
    the recovered plaintext is bit-exact, and the build. *)
