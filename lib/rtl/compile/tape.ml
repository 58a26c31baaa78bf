(** Flat instruction tape lowered from a {!Soc_rtl.Netlist}.

    The netlist's expression trees are flattened once, at compile time, into
    two SSA-style linear programs over a single [int array] value store:

    - the {b settle} tape — one run re-evaluates every combinational
      assignment in topological order (shared with the interpreter via
      {!Soc_rtl.Sim.topo_combs}, so both backends agree on evaluation
      order by construction);
    - the {b tick} tape — a {b prologue} that always runs (every register
      enable, every memory read-address and write-enable), followed by one
      {b gated segment} per register (its next-state logic) and per memory
      write port (its address/data logic). The executor skips a segment
      whose enable settled low — in an FSMD netlist most registers are
      enabled in only one or two states, so most of the tick tape is
      skipped on most cycles. Segments write only temporaries, never
      netlist-visible slots, so skipping is unobservable and parity with
      the interpreter (which evaluates and discards) is exact.

    Store layout: slots [0 .. n_signals-1] mirror the netlist signal ids
    (so [value]/[set_input] are direct array accesses), then interned
    constants, then expression temporaries. Constants are applied by the
    executor at create/reset time and never rewritten.

    Every instruction's result is masked with its [msk] field; intermediate
    results carry the 32-bit mask {!Soc_kernel.Semantics} applies, roots
    carry their target signal's width mask, so the tape reproduces the
    interpreter bit-for-bit. *)

module Netlist = Soc_rtl.Netlist

type instr = {
  op : int;
  dst : int;
  a : int;
  b : int;
  c : int; (* mux select *)
  msk : int; (* result mask; -1 = keep all bits *)
}

type reg_commit = {
  rc_q : int; (* store slot of the register output *)
  rc_next : int; (* slot holding the evaluated next value *)
  rc_en : int; (* slot of the enable, or -1 for always-enabled *)
  rc_reset : int;
  rc_off : int; (* gated next-state segment: [rc_off, rc_off+rc_len) in tick *)
  rc_len : int;
}

type mem_commit = {
  mc_mem : int; (* index into the netlist's memory list *)
  mc_raddr : int;
  mc_wen : int;
  mc_waddr : int;
  mc_wdata : int;
  mc_rdata : int; (* store slot of the registered read-data signal *)
  mc_off : int; (* gated write-port segment (waddr/wdata code) in tick *)
  mc_len : int;
}

type stats = {
  lowered : int; (* instructions straight out of lowering *)
  folded : int; (* removed/rewritten by constant folding *)
  mux_selected : int; (* muxes specialized to copies / logic *)
  cse_hits : int; (* duplicate subexpressions eliminated *)
  dce_removed : int; (* dead instructions swept *)
  final : int;
}

type t = {
  mod_name : string;
  n_signals : int;
  n_slots : int; (* store size: signals + consts + temps *)
  consts : (int * int) array; (* (slot, value), applied at create/reset *)
  settle : instr array;
  tick : instr array; (* prologue, then the gated segments *)
  prologue : int; (* instrs of [tick] that run unconditionally *)
  reg_commits : reg_commit array;
  mem_commits : mem_commit array;
  keep : int array; (* observable signal slots DCE must preserve *)
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Opcodes                                                             *)
(* ------------------------------------------------------------------ *)

let op_copy = 0

let opcode_of_binop : Soc_kernel.Ast.binop -> int = function
  | Add -> 1 | Sub -> 2 | Mul -> 3 | Div -> 4 | Rem -> 5
  | Udiv -> 6 | Urem -> 7 | Band -> 8 | Bor -> 9 | Bxor -> 10
  | Shl -> 11 | Shr -> 12 | Ashr -> 13
  | Eq -> 14 | Ne -> 15 | Lt -> 16 | Le -> 17 | Gt -> 18 | Ge -> 19
  | Ult -> 20 | Ule -> 21 | Ugt -> 22 | Uge -> 23

let opcode_of_unop : Soc_kernel.Ast.unop -> int = function
  | Neg -> 24 | Bnot -> 25 | Lnot -> 26

let op_mux = 27

let binop_of_opcode : int -> Soc_kernel.Ast.binop = function
  | 1 -> Add | 2 -> Sub | 3 -> Mul | 4 -> Div | 5 -> Rem
  | 6 -> Udiv | 7 -> Urem | 8 -> Band | 9 -> Bor | 10 -> Bxor
  | 11 -> Shl | 12 -> Shr | 13 -> Ashr
  | 14 -> Eq | 15 -> Ne | 16 -> Lt | 17 -> Le | 18 -> Gt | 19 -> Ge
  | 20 -> Ult | 21 -> Ule | 22 -> Ugt | 23 -> Uge
  | op -> invalid_arg (Printf.sprintf "Tape.binop_of_opcode: %d" op)

(* Reference evaluation of one instruction given operand values — the cold
   path shared by the optimizer's constant folder. The executor inlines the
   same operations in its dispatch loop; the differential oracle pins the
   two together. *)
let eval_op ~op ~a ~b ~c =
  if op = op_copy then a
  else if op = op_mux then (if c <> 0 then a else b)
  else if op >= 24 then
    Soc_kernel.Semantics.eval_unop
      (match op with 24 -> Soc_kernel.Ast.Neg | 25 -> Bnot | _ -> Lnot)
      a
  else Soc_kernel.Semantics.eval_binop (binop_of_opcode op) a b

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

let mask_for w = Soc_util.Bits.mask w

type builder = {
  mutable next_slot : int;
  const_slots : (int, int) Hashtbl.t; (* value -> slot *)
  mutable const_list : (int * int) list;
  buf : instr list ref; (* current tape, reversed *)
  mutable emitted : int; (* length of [buf] *)
}

let fresh_temp bld =
  let s = bld.next_slot in
  bld.next_slot <- s + 1;
  s

let const_slot bld v =
  match Hashtbl.find_opt bld.const_slots v with
  | Some s -> s
  | None ->
    let s = fresh_temp bld in
    Hashtbl.add bld.const_slots v s;
    bld.const_list <- (s, v) :: bld.const_list;
    s

let emit bld i =
  bld.buf := i :: !(bld.buf);
  bld.emitted <- bld.emitted + 1

(* Lower a subexpression; returns the slot holding its (already fully
   masked) value. *)
let rec lower_expr bld (e : Netlist.expr) =
  match e with
  | Const (v, w) -> const_slot bld (v land mask_for w)
  | Ref s -> s.Netlist.sid
  | Bin (op, x, y) ->
    let a = lower_expr bld x in
    let b = lower_expr bld y in
    let dst = fresh_temp bld in
    emit bld { op = opcode_of_binop op; dst; a; b; c = 0; msk = -1 };
    dst
  | Un (op, x) ->
    let a = lower_expr bld x in
    let dst = fresh_temp bld in
    emit bld { op = opcode_of_unop op; dst; a; b = 0; c = 0; msk = -1 };
    dst
  | Mux (sel, x, y) ->
    let c = lower_expr bld sel in
    let a = lower_expr bld x in
    let b = lower_expr bld y in
    let dst = fresh_temp bld in
    emit bld { op = op_mux; dst; a; b; c; msk = -1 };
    dst

(* Lower [e] so its masked value lands in [dst] (a root: a slot that is
   observable or consumed by a commit table). The top node fuses with the
   root mask; a bare Const/Ref becomes a masked COPY so the slot is still
   written on every run — pre-settle reads must see the same (stale) value
   the interpreter would. *)
let lower_root bld ~dst ~msk (e : Netlist.expr) =
  match e with
  | Const (v, w) ->
    emit bld { op = op_copy; dst; a = const_slot bld (v land mask_for w); b = 0; c = 0; msk }
  | Ref s -> emit bld { op = op_copy; dst; a = s.Netlist.sid; b = 0; c = 0; msk }
  | Bin (op, x, y) ->
    let a = lower_expr bld x in
    let b = lower_expr bld y in
    emit bld { op = opcode_of_binop op; dst; a; b; c = 0; msk }
  | Un (op, x) ->
    let a = lower_expr bld x in
    emit bld { op = opcode_of_unop op; dst; a; b = 0; c = 0; msk }
  | Mux (sel, x, y) ->
    let c = lower_expr bld sel in
    let a = lower_expr bld x in
    let b = lower_expr bld y in
    emit bld { op = op_mux; dst; a; b; c; msk }

(* Slot whose content equals [eval e land msk], minting a temp only when an
   existing slot can't serve: a [Ref] whose width already fits the mask is
   used in place. *)
let lower_value bld ~msk (e : Netlist.expr) =
  match e with
  | Const (v, w) -> const_slot bld (v land mask_for w land msk)
  | Ref s when msk = -1 || mask_for s.Netlist.width land lnot msk = 0 -> s.Netlist.sid
  | e ->
    let dst = fresh_temp bld in
    lower_root bld ~dst ~msk e;
    dst

let default_keep (net : Netlist.t) =
  let tbl = Hashtbl.create 64 in
  let add (s : Netlist.signal) = Hashtbl.replace tbl s.sid () in
  List.iter add net.inputs;
  List.iter add net.outputs;
  List.iter (fun (r : Netlist.reg) -> add r.q) net.regs;
  List.iter (fun (m : Netlist.mem) -> add m.rdata) net.mems;
  tbl

let lower ?(observe = []) (net : Netlist.t) =
  let order = Soc_rtl.Sim.topo_combs net in
  let bld =
    {
      next_slot = Netlist.signal_count net;
      const_slots = Hashtbl.create 64;
      const_list = [];
      buf = ref [];
      emitted = 0;
    }
  in
  (* Settle tape: combinational assignments in dependency order. *)
  Array.iter
    (fun ((s : Netlist.signal), e) ->
      lower_root bld ~dst:s.sid ~msk:(mask_for s.width) e)
    order;
  let settle = Array.of_list (List.rev !(bld.buf)) in
  bld.buf := [];
  bld.emitted <- 0;
  (* Tick tape: prologue (enables, memory read addresses, write enables —
     evaluated every tick) followed by one gated segment per register next
     and per memory write port. Expressions are pure (division by zero is
     total in Semantics), so a skipped segment is unobservable. *)
  let emitted () = bld.emitted in
  let regs = Array.of_list net.regs in
  let mems = Array.of_list net.mems in
  let reg_ens =
    Array.map
      (fun (r : Netlist.reg) ->
        match r.enable with
        | Netlist.Const (v, w) when v land mask_for w <> 0 -> -1
        | e -> lower_value bld ~msk:(-1) e)
      regs
  in
  let mem_rws =
    Array.map
      (fun (m : Netlist.mem) ->
        (lower_value bld ~msk:(-1) m.raddr, lower_value bld ~msk:(-1) m.wen))
      mems
  in
  let prologue = emitted () in
  let reg_commits =
    Array.mapi
      (fun i (r : Netlist.reg) ->
        let rc_off = emitted () in
        let rc_next = lower_value bld ~msk:(mask_for r.q.width) r.next in
        { rc_q = r.q.sid; rc_next; rc_en = reg_ens.(i); rc_reset = r.reset_value;
          rc_off; rc_len = emitted () - rc_off })
      regs
  in
  let mem_commits =
    Array.mapi
      (fun i (m : Netlist.mem) ->
        let mc_raddr, mc_wen = mem_rws.(i) in
        let mc_off = emitted () in
        let mc_waddr = lower_value bld ~msk:(-1) m.waddr in
        let mc_wdata = lower_value bld ~msk:(mask_for m.mem_width) m.wdata in
        { mc_mem = i; mc_raddr; mc_wen; mc_waddr; mc_wdata; mc_rdata = m.rdata.sid;
          mc_off; mc_len = emitted () - mc_off })
      mems
  in
  let tick = Array.of_list (List.rev !(bld.buf)) in
  let keep_tbl = default_keep net in
  List.iter (fun (s : Netlist.signal) -> Hashtbl.replace keep_tbl s.sid ()) observe;
  let keep = Array.of_seq (Hashtbl.to_seq_keys keep_tbl) in
  Array.sort compare keep;
  let lowered = Array.length settle + Array.length tick in
  {
    mod_name = net.mod_name;
    n_signals = Netlist.signal_count net;
    n_slots = bld.next_slot;
    consts = Array.of_list (List.rev bld.const_list);
    settle;
    tick;
    prologue;
    reg_commits;
    mem_commits;
    keep;
    stats =
      { lowered; folded = 0; mux_selected = 0; cse_hits = 0; dce_removed = 0; final = lowered };
  }

(* ------------------------------------------------------------------ *)
(* Content key: FNV-1a over a canonical netlist serialization           *)
(* ------------------------------------------------------------------ *)

(* Same digest construction as the farm's Chash (FNV-1a 64), computed here
   so the compile library stays independent of lib/farm. The key names a
   netlist in {!Csim}'s program table. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let digest_bytes s =
  let h = ref fnv_offset in
  String.iter
    (fun ch ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code ch))) fnv_prime)
    s;
  Printf.sprintf "%016Lx" !h

let add_int buf n = Buffer.add_string buf (string_of_int n); Buffer.add_char buf ';'

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let rec add_expr buf (e : Netlist.expr) =
  match e with
  | Const (v, w) -> Buffer.add_char buf 'C'; add_int buf v; add_int buf w
  | Ref s -> Buffer.add_char buf 'R'; add_int buf s.sid
  | Bin (op, a, b) ->
    Buffer.add_char buf 'B';
    add_int buf (opcode_of_binop op);
    add_expr buf a;
    add_expr buf b
  | Un (op, a) -> Buffer.add_char buf 'U'; add_int buf (opcode_of_unop op); add_expr buf a
  | Mux (s, a, b) -> Buffer.add_char buf 'M'; add_expr buf s; add_expr buf a; add_expr buf b

let netlist_key (net : Netlist.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "soc-tape-netlist-v1\n";
  add_str buf net.mod_name;
  add_int buf (Netlist.signal_count net);
  List.iter
    (fun (s : Netlist.signal) ->
      Buffer.add_char buf 's'; add_int buf s.sid; add_str buf s.sname; add_int buf s.width)
    (List.rev net.signals);
  List.iter (fun (s : Netlist.signal) -> Buffer.add_char buf 'i'; add_int buf s.sid)
    (List.rev net.inputs);
  List.iter (fun (s : Netlist.signal) -> Buffer.add_char buf 'o'; add_int buf s.sid)
    (List.rev net.outputs);
  List.iter
    (fun ((s : Netlist.signal), e) -> Buffer.add_char buf 'a'; add_int buf s.sid; add_expr buf e)
    (List.rev net.combs);
  List.iter
    (fun (r : Netlist.reg) ->
      Buffer.add_char buf 'r';
      add_int buf r.q.sid;
      add_expr buf r.next;
      add_expr buf r.enable;
      add_int buf r.reset_value)
    (List.rev net.regs);
  List.iter
    (fun (m : Netlist.mem) ->
      Buffer.add_char buf 'm';
      add_str buf m.mem_name;
      add_int buf m.size;
      add_int buf m.mem_width;
      add_expr buf m.raddr;
      add_int buf m.rdata.sid;
      add_expr buf m.wen;
      add_expr buf m.waddr;
      add_expr buf m.wdata;
      (match m.init with
      | None -> Buffer.add_char buf 'n'
      | Some a ->
        Buffer.add_char buf 'I';
        add_int buf (Array.length a);
        Array.iter (add_int buf) a))
    (List.rev net.mems);
  digest_bytes (Buffer.contents buf)
