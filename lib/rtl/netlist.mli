(** Register-transfer-level netlist IR: typed signals connected by
    continuous assignments, D flip-flops with clock-enable, and
    synchronous-read block memories — the primitives an FPGA flow maps to
    LUTs, FFs and BRAMs. HLS emits this IR; {!Sim} executes it;
    {!Netlist_reader} reads its [.ntl] text form. Operator semantics come
    from {!Soc_kernel.Semantics}. *)

type signal = { sid : int; sname : string; width : int }

type expr =
  | Const of int * int  (** value, width *)
  | Ref of signal
  | Bin of Soc_kernel.Ast.binop * expr * expr
  | Un of Soc_kernel.Ast.unop * expr
  | Mux of expr * expr * expr  (** sel, if-true, if-false *)

type reg = {
  q : signal;
  next : expr;
  enable : expr;
  reset_value : int;
}

(** Simple-dual-port memory: one synchronous read port ([rdata] reflects
    [raddr] sampled at the previous edge) and one write port. *)
type mem = {
  mem_name : string;
  size : int;
  mem_width : int;
  raddr : expr;
  rdata : signal;
  wen : expr;
  waddr : expr;
  wdata : expr;
  init : int array option;
}

type t = {
  mod_name : string;
  mutable next_id : int;
  mutable signals : signal list;
  mutable inputs : signal list;
  mutable outputs : signal list;
  mutable combs : (signal * expr) list;
  mutable regs : reg list;
  mutable mems : mem list;
}

val create : string -> t

val fresh : t -> name:string -> width:int -> signal
(** New internal signal; widths outside 1..32 raise [Invalid_argument]. *)

val input : t -> name:string -> width:int -> signal
val output : t -> name:string -> width:int -> signal

val assign : t -> signal -> expr -> unit
(** Continuous (combinational) assignment. *)

val register :
  t ->
  ?reset_value:int ->
  ?enable:expr ->
  name:string ->
  width:int ->
  (signal -> expr) ->
  signal
(** [register t ~name ~width next_fn]: a DFF whose next-state expression is
    [next_fn q] (so feedback is easy to express). *)

val register_forward :
  t ->
  ?reset_value:int ->
  name:string ->
  width:int ->
  unit ->
  signal * (enable:expr -> next:expr -> unit)
(** A DFF whose next/enable are provided later, for logic that refers to
    signals defined after the register. *)

val add_mem :
  t ->
  name:string ->
  size:int ->
  width:int ->
  raddr:expr ->
  wen:expr ->
  waddr:expr ->
  wdata:expr ->
  ?init:int array ->
  unit ->
  signal
(** Returns the registered read-data signal. *)

val const : int -> width:int -> expr
val one : expr
val zero : expr

val is_input : t -> signal -> bool
val signal_count : t -> int
val reg_count : t -> int

val ff_bits : t -> int
(** Total flip-flop bits: what synthesis reports as "FF". *)

val expr_luts : expr -> int
(** Rough LUT estimate per combinational node (synthesis cost model). *)

val expr_dsps : expr -> int
(** Multiplier count (each maps to a DSP slice). *)

val expr_refs : int list -> expr -> int list
(** Signal ids referenced, prepended to the accumulator. *)
