(** Register-transfer-level netlist IR.

    A module is a set of typed signals connected by continuous (combinational)
    assignments, D flip-flops with clock-enable, and synchronous-read block
    memories — the primitives an FPGA synthesis flow maps to LUTs, FFs and
    BRAMs. HLS emits this IR; {!Sim} executes it cycle by cycle;
    {!Netlist_reader} reads its [.ntl] text form.

    Operator semantics are shared with the kernel interpreter through
    {!Soc_kernel.Semantics}, so differential testing of interpreter vs. RTL
    is meaningful. *)

type signal = { sid : int; sname : string; width : int }

type expr =
  | Const of int * int (* value, width *)
  | Ref of signal
  | Bin of Soc_kernel.Ast.binop * expr * expr
  | Un of Soc_kernel.Ast.unop * expr
  | Mux of expr * expr * expr (* sel, if-true, if-false *)

type reg = {
  q : signal;
  next : expr;
  enable : expr; (* clock enable; Const (1,1) for always *)
  reset_value : int;
}

(* One synchronous-read, one synchronous-write port (simple dual port BRAM).
   [rdata] is registered: it reflects [raddr] sampled at the previous edge. *)
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
  mutable signals : signal list; (* reversed *)
  mutable inputs : signal list;
  mutable outputs : signal list;
  mutable combs : (signal * expr) list;
  mutable regs : reg list;
  mutable mems : mem list;
}

let create mod_name =
  { mod_name; next_id = 0; signals = []; inputs = []; outputs = []; combs = [];
    regs = []; mems = [] }

let fresh t ~name ~width =
  if width <= 0 || width > 32 then invalid_arg ("Netlist.fresh: bad width for " ^ name);
  let s = { sid = t.next_id; sname = name; width } in
  t.next_id <- t.next_id + 1;
  t.signals <- s :: t.signals;
  s

let input t ~name ~width =
  let s = fresh t ~name ~width in
  t.inputs <- s :: t.inputs;
  s

let output t ~name ~width =
  let s = fresh t ~name ~width in
  t.outputs <- s :: t.outputs;
  s

let assign t s e = t.combs <- (s, e) :: t.combs

let register t ?(reset_value = 0) ?(enable = Const (1, 1)) ~name ~width next_fn =
  let q = fresh t ~name ~width in
  (* [next_fn] receives [q] so feedback registers are easy to express. *)
  let next = next_fn q in
  t.regs <- { q; next; enable; reset_value } :: t.regs;
  q

(* Register whose [next] expression is provided after creation (needed when
   the next-state logic refers to signals defined later). *)
let register_forward t ?(reset_value = 0) ~name ~width () =
  let q = fresh t ~name ~width in
  let cell = { q; next = Ref q; enable = Const (1, 1); reset_value } in
  t.regs <- cell :: t.regs;
  (q, fun ~enable ~next ->
    t.regs <-
      List.map (fun r -> if r.q.sid = q.sid then { r with next; enable } else r) t.regs)

let add_mem t ~name ~size ~width ~raddr ~wen ~waddr ~wdata ?init () =
  let rdata = fresh t ~name:(name ^ "_rdata") ~width in
  t.mems <-
    { mem_name = name; size; mem_width = width; raddr; rdata; wen; waddr; wdata; init }
    :: t.mems;
  rdata

let const v ~width = Const (Soc_util.Bits.truncate ~width:(min width 32) v, width)
let one = Const (1, 1)
let zero = Const (0, 1)

let is_input t s = List.exists (fun i -> i.sid = s.sid) t.inputs

let signal_count t = t.next_id
let reg_count t = List.length t.regs

(* Total flip-flop bits: what synthesis reports as "FF". *)
let ff_bits t = List.fold_left (fun acc r -> acc + r.q.width) 0 t.regs

(* Rough LUT estimate per combinational expression node: used by the
   synthesis cost model when aggregating a whole system. *)
let rec expr_luts = function
  | Const _ | Ref _ -> 0
  | Bin (op, a, b) ->
    let base =
      match op with
      | Add | Sub -> 8
      | Mul -> 0 (* mapped to DSP *)
      | Div | Rem | Udiv | Urem -> 120
      | Band | Bor | Bxor -> 8
      | Shl | Shr | Ashr -> 24
      | Eq | Ne | Lt | Le | Gt | Ge | Ult | Ule | Ugt | Uge -> 10
    in
    base + expr_luts a + expr_luts b
  | Un (_, a) -> 4 + expr_luts a
  | Mux (s, a, b) -> 8 + expr_luts s + expr_luts a + expr_luts b

let rec expr_dsps = function
  | Const _ | Ref _ -> 0
  | Bin (Mul, a, b) -> 1 + expr_dsps a + expr_dsps b
  | Bin (_, a, b) -> expr_dsps a + expr_dsps b
  | Un (_, a) -> expr_dsps a
  | Mux (s, a, b) -> expr_dsps s + expr_dsps a + expr_dsps b

let rec expr_refs acc = function
  | Const _ -> acc
  | Ref s -> s.sid :: acc
  | Bin (_, a, b) -> expr_refs (expr_refs acc a) b
  | Un (_, a) -> expr_refs acc a
  | Mux (s, a, b) -> expr_refs (expr_refs (expr_refs acc s) a) b
