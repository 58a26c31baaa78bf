(** Control-flow graph of three-address instructions: the common input of
    the reference interpreter and the HLS engine, so both share exactly one
    semantics for every kernel. *)

type operand = Cst of int | Reg of string

type instr =
  | Bin of string * Ast.binop * operand * operand
  | Un of string * Ast.unop * operand
  | Mov of string * operand
  | Load of string * string * operand  (** dst, array, index *)
  | Store of string * operand * operand  (** array, index, value *)
  | Pop of string * string
  | Push of string * operand

type terminator =
  | Goto of int
  | Branch of operand * int * int  (** nonzero -> first target *)
  | Halt

type block = { id : int; mutable instrs : instr list; mutable term : terminator }

(** Structured-loop metadata recorded during lowering (the HLS performance
    estimator consumes it). *)
type loop_meta = {
  header : int;
  body_entry : int;
  exit : int;
  trip : int option;  (** constant trip count when statically known *)
}

type t = {
  kernel : Ast.kernel;
  blocks : block array;  (** indexed by block id *)
  entry : int;
  var_types : (string, Ty.t) Hashtbl.t;
  loops : loop_meta list;
}

val instr_dst : instr -> string option
val instr_uses : instr -> operand list

val of_kernel : Ast.kernel -> t
(** Typechecks ([Failure] on errors) and lowers the structured AST. *)

val var_type : t -> string -> Ty.t
(** Declared type; temporaries are [U32]. *)

val all_regs : t -> string list
(** Every register name appearing anywhere in the CFG. *)

val instr_count : t -> int

val to_string : t -> string
