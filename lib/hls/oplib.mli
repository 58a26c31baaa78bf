(** Operator library: latency in control steps and functional-unit class of
    every three-address instruction. Numbers mirror Vivado HLS defaults on
    a Zynq-7000 at ~100 MHz. *)

type fu_class =
  | Alu of Soc_kernel.Ast.binop  (** one FU kind per operator symbol *)
  | Multiplier
  | Divider
  | Mem_read of string  (** per-array read port *)
  | Mem_write of string
  | Stream_unit  (** at most one stream transfer per control step *)
  | None_  (** moves and unary ops: pure wiring, no FU *)

val classify : Soc_kernel.Cfg.instr -> fu_class
val latency : Soc_kernel.Cfg.instr -> int

val fu_class_key : fu_class -> string
(** Stable string key for occupancy bookkeeping. *)
