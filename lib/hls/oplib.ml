(** Operator library: latency (control steps) and functional-unit class of
    every three-address instruction. The numbers mirror typical Vivado HLS
    defaults on a Zynq-7000 at ~100 MHz: single-cycle ALU ops, pipelined
    3-cycle DSP multiply, 8-cycle sequential divider, 2-cycle BRAM load. *)

type fu_class =
  | Alu of Soc_kernel.Ast.binop (* one FU kind per operator symbol *)
  | Multiplier
  | Divider
  | Mem_read of string (* per-array read port *)
  | Mem_write of string (* per-array write port *)
  | Stream_unit (* at most one stream transfer per control step *)
  | None_ (* moves: pure register transfer, no FU *)

let is_mul (op : Soc_kernel.Ast.binop) = op = Mul

let is_div (op : Soc_kernel.Ast.binop) =
  match op with Div | Rem | Udiv | Urem -> true | _ -> false

let classify (i : Soc_kernel.Cfg.instr) : fu_class =
  match i with
  | Bin (_, op, _, _) when is_mul op -> Multiplier
  | Bin (_, op, _, _) when is_div op -> Divider
  | Bin (_, op, _, _) -> Alu op
  | Un _ -> None_ (* negation/complement fold into wiring *)
  | Mov _ -> None_
  | Load (_, a, _) -> Mem_read a
  | Store (a, _, _) -> Mem_write a
  | Pop _ | Push _ -> Stream_unit

let latency (i : Soc_kernel.Cfg.instr) : int =
  match i with
  | Bin (_, op, _, _) when is_mul op -> 2
  | Bin (_, op, _, _) when is_div op -> 8
  | Bin _ | Un _ | Mov _ -> 1
  | Load _ -> 2
  | Store _ -> 1
  | Pop _ | Push _ -> 1

let fu_class_key = function
  | Alu op -> "alu:" ^ Soc_kernel.Ast.binop_symbol op
  | Multiplier -> "mul"
  | Divider -> "div"
  | Mem_read a -> "memr:" ^ a
  | Mem_write a -> "memw:" ^ a
  | Stream_unit -> "stream"
  | None_ -> "none"
