(** Threaded-code executor for compiled {!Tape} programs.

    Presents the exact {!Soc_rtl.Sim} interface. The tape's two programs are
    packed into flat stride-6 [int array]s; the dispatch loop inlines the
    32-bit operator semantics of {!Soc_kernel.Semantics} (the differential
    qcheck oracle in the test suite pins the two together). All per-cycle
    state lives in preallocated arrays — a settle+tick cycle allocates
    nothing.

    A simulator is split in two. The {!program} — packed code, reset
    images and the specialized tick variants — depends only on the tape
    and its netlist, so it is built once and shared by every instance of
    that netlist through a process-wide table. An instance ({!t}) owns only
    its store, memory arrays, scratch and cycle count.

    The tick tape executes as prologue + gated segments: the prologue
    (register enables, memory read addresses and write enables) always
    runs, then each register's next-state segment runs only when its
    enable settled high and each memory's write-port segment only when its
    write enable is high. Segments write only temporaries, so skipping one
    is unobservable — the register keeps its value, the write is dropped —
    exactly as the interpreter's evaluate-and-discard.

    An instance also remembers when simulating is a no-op. [settled]
    holds when the store is the settle of the current inputs and state;
    [quiet] holds when, on top of that, the last tick committed nothing —
    no register, read-data or memory word changed. A quiet instance is a
    fixpoint: until an input changes, every later settle and tick would
    recompute the same store, so [settle] returns at once and [tick] only
    counts the cycle. {!set_input} of an equal value keeps the flags.

    The dispatch loop uses unsafe array accesses, so every tape is
    checked before its program is built: each slot index and segment
    range is validated up front, and {!Tape_mismatch} is raised instead of
    corrupting memory. *)

module Netlist = Soc_rtl.Netlist

exception Tape_mismatch of string
(** A tape does not fit the netlist it is instantiated against. *)

(* One specialized tick program (see {!Opt.specialize_tick}): same layout
   as the generic tick arrays, already partial-evaluated against one value
   of the dispatch register. *)
type variant = {
  v_code : int array; (* packed prologue + segments *)
  v_prologue_end : int;
  v_reg : int array; (* stride 6, en may be -2 = statically disabled *)
  v_mem : int array; (* stride 8, wen may be -1 / -2 *)
}

(* Everything derived from a (tape, netlist) pair: checked, packed and
   tick-specialized once, then shared read-only by every instance of that
   netlist (see the program table below). *)
type program = {
  tape : Tape.t;
  inputs : bool array; (* by sid: may this slot be driven via set_input? *)
  settle_code : int array; (* packed: op, dst, a, b, c, msk *)
  tick_code : int array;
  prologue_end : int; (* packed length of the unconditional tick prefix *)
  reg_code : int array; (* packed: q, next, en, reset, seg_off, seg_end *)
  mem_code : int array; (* packed: raddr, wen, waddr, wdata, rdata, size, seg_off, seg_end *)
  mem_names : string array; (* in netlist order *)
  mem_init : int array array; (* reset contents, per memory *)
  store_init : int array; (* reset store: constants and register reset values *)
  spec_slot : int; (* dispatch register's store slot, or -1 = no specialization *)
  spec_mask : int;
  spec : variant array; (* indexed by the dispatch register's value *)
}

(* One simulator instance: the shared program plus its own mutable state. *)
type t = {
  prog : program;
  store : int array;
  mem_data : int array array; (* per memory, in netlist order *)
  reg_scratch : int array;
  mem_rd_scratch : int array;
  mem_wr_scratch : int array; (* waddr (or -1), wdata; stride 2 *)
  mutable cycle : int;
  mutable settled : bool; (* the store is the settle of its inputs and state *)
  mutable quiet : bool; (* settled, and the last tick changed nothing *)
}

let disabled = min_int
let m32 = 0xFFFFFFFF

let pack_code (code : Tape.instr array) =
  let n = Array.length code in
  let packed = Array.make (6 * n) 0 in
  Array.iteri
    (fun i (x : Tape.instr) ->
      let base = 6 * i in
      packed.(base) <- x.op;
      packed.(base + 1) <- x.dst;
      packed.(base + 2) <- x.a;
      packed.(base + 3) <- x.b;
      packed.(base + 4) <- x.c;
      packed.(base + 5) <- x.msk)
    code;
  packed

(* Sign view of a masked 32-bit value (Bits.to_signed ~width:32). *)
let[@inline] sgn v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* The hot loop, over the packed range [lo, hi). Every arm reproduces
   Soc_kernel.Semantics at width 32 on already-masked operands; the
   trailing [land msk] applies the root's signal-width mask (-1 on
   intermediates). [of_tape] validated every index, hence the unsafe
   accesses. *)
let run_range store code lo hi =
  let i = ref lo in
  while !i < hi do
    let base = !i in
    let op = Array.unsafe_get code base in
    let x = Array.unsafe_get store (Array.unsafe_get code (base + 2)) in
    let y = Array.unsafe_get store (Array.unsafe_get code (base + 3)) in
    let v =
      match op with
      | 0 -> x
      | 1 -> (x + y) land m32
      | 2 -> (x - y) land m32
      | 3 -> x * y land m32
      | 4 ->
        let sb = sgn y in
        if sb = 0 then m32 else sgn x / sb land m32
      | 5 ->
        let sb = sgn y in
        if sb = 0 then x else sgn x mod sb land m32
      | 6 -> if y = 0 then m32 else x / y land m32
      | 7 -> if y = 0 then x else x mod y land m32
      | 8 -> x land y
      | 9 -> x lor y
      | 10 -> x lxor y
      | 11 -> x lsl (y land 31) land m32
      | 12 -> x lsr (y land 31)
      | 13 -> sgn x asr (y land 31) land m32
      | 14 -> if x = y then 1 else 0
      | 15 -> if x <> y then 1 else 0
      | 16 -> if sgn x < sgn y then 1 else 0
      | 17 -> if sgn x <= sgn y then 1 else 0
      | 18 -> if sgn x > sgn y then 1 else 0
      | 19 -> if sgn x >= sgn y then 1 else 0
      | 20 -> if x < y then 1 else 0
      | 21 -> if x <= y then 1 else 0
      | 22 -> if x > y then 1 else 0
      | 23 -> if x >= y then 1 else 0
      | 24 -> -x land m32
      | 25 -> lnot x land m32
      | 26 -> if x = 0 then 1 else 0
      | _ ->
        (* 27: mux *)
        if Array.unsafe_get store (Array.unsafe_get code (base + 4)) <> 0 then x else y
    in
    Array.unsafe_set store
      (Array.unsafe_get code (base + 1))
      (v land Array.unsafe_get code (base + 5));
    i := base + 6
  done

let run_code store code = run_range store code 0 (Array.length code)

(* ------------------------------------------------------------------ *)
(* Tick specialization                                                 *)
(* ------------------------------------------------------------------ *)

(* Pick the register to specialize the tick tape on: a small register
   whose output is compared against constants — in an FSMD netlist, the
   state register. The variant table has [2^width] entries, so only
   narrow registers qualify. *)
let spec_candidate (net : Netlist.t) =
  let uses = Hashtbl.create 16 in
  let bump (s : Netlist.signal) =
    Hashtbl.replace uses s.sid (1 + Option.value ~default:0 (Hashtbl.find_opt uses s.sid))
  in
  let rec walk (e : Netlist.expr) =
    match e with
    | Netlist.Const _ | Netlist.Ref _ -> ()
    | Bin (Soc_kernel.Ast.Eq, Ref s, Const _) | Bin (Soc_kernel.Ast.Eq, Const _, Ref s) ->
      bump s
    | Bin (_, a, b) -> walk a; walk b
    | Un (_, a) -> walk a
    | Mux (s, a, b) -> walk s; walk a; walk b
  in
  List.iter (fun ((_ : Netlist.signal), e) -> walk e) net.combs;
  List.iter (fun (r : Netlist.reg) -> walk r.next; walk r.enable) net.regs;
  List.iter
    (fun (m : Netlist.mem) -> walk m.raddr; walk m.wen; walk m.waddr; walk m.wdata)
    net.mems;
  List.fold_left
    (fun best (r : Netlist.reg) ->
      if r.q.width > 8 then best
      else
        match Hashtbl.find_opt uses r.q.sid with
        | Some n when n >= 2 -> (
          match best with
          | Some (_, _, bn) when bn >= n -> best
          | _ -> Some (r.q.sid, r.q.width, n))
        | _ -> best)
    None net.regs

(* Pack one specialized variant into executor arrays: prologue first, then
   every surviving segment, with packed offsets recorded per commit. *)
let pack_variant (mems_arr : Netlist.mem array) (sp : Opt.tick_spec) =
  let pieces =
    sp.Opt.ts_prologue
    :: (Array.to_list (Array.map (fun r -> r.Opt.sr_code) sp.Opt.ts_regs)
       @ Array.to_list (Array.map (fun m -> m.Opt.sm_code) sp.Opt.ts_mems))
  in
  let code = pack_code (Array.concat pieces) in
  let off = ref (6 * Array.length sp.Opt.ts_prologue) in
  let place seg =
    let o = !off in
    off := o + (6 * Array.length seg);
    (o, !off)
  in
  let n_regs = Array.length sp.Opt.ts_regs in
  let v_reg = Array.make (6 * n_regs) 0 in
  Array.iteri
    (fun i (r : Opt.spec_reg) ->
      let o, e = place r.Opt.sr_code in
      v_reg.(6 * i) <- r.Opt.sr_q;
      v_reg.((6 * i) + 1) <- r.Opt.sr_next;
      v_reg.((6 * i) + 2) <- r.Opt.sr_en;
      v_reg.((6 * i) + 3) <- r.Opt.sr_reset;
      v_reg.((6 * i) + 4) <- o;
      v_reg.((6 * i) + 5) <- e)
    sp.Opt.ts_regs;
  let n_mems = Array.length sp.Opt.ts_mems in
  let v_mem = Array.make (8 * n_mems) 0 in
  Array.iteri
    (fun i (m : Opt.spec_mem) ->
      let o, e = place m.Opt.sm_code in
      v_mem.(8 * i) <- m.Opt.sm_raddr;
      v_mem.((8 * i) + 1) <- m.Opt.sm_wen;
      v_mem.((8 * i) + 2) <- m.Opt.sm_waddr;
      v_mem.((8 * i) + 3) <- m.Opt.sm_wdata;
      v_mem.((8 * i) + 4) <- m.Opt.sm_rdata;
      v_mem.((8 * i) + 5) <- mems_arr.(m.Opt.sm_size_hint).Netlist.size;
      v_mem.((8 * i) + 6) <- o;
      v_mem.((8 * i) + 7) <- e)
    sp.Opt.ts_mems;
  { v_code = code;
    v_prologue_end = 6 * Array.length sp.Opt.ts_prologue;
    v_reg;
    v_mem }

(* Check a tape against the netlist it is instantiated against. Memory
   geometry and backing arrays come from the netlist (these checks catch
   a tape lowered from another netlist, or a corrupt one), and every slot
   index and segment range is bounds-checked here because the dispatch
   loop runs unchecked. *)
let check_tape (tape : Tape.t) (net : Netlist.t) =
  if tape.n_signals <> Netlist.signal_count net then
    raise (Tape_mismatch "signal count");
  if Array.length tape.mem_commits <> List.length net.mems then
    raise (Tape_mismatch "memory count");
  if Array.length tape.reg_commits <> List.length net.regs then
    raise (Tape_mismatch "register count");
  let n_slots = tape.n_slots in
  let check what s = if s < 0 || s >= n_slots then raise (Tape_mismatch what) in
  Array.iter (fun (s, _) -> check "const slot" s) tape.consts;
  let check_code what (code : Tape.instr array) =
    Array.iter
      (fun (i : Tape.instr) ->
        check what i.dst;
        check what i.a;
        check what i.b;
        check what i.c)
      code
  in
  check_code "settle slot" tape.settle;
  check_code "tick slot" tape.tick;
  let n_tick = Array.length tape.tick in
  if tape.prologue < 0 || tape.prologue > n_tick then raise (Tape_mismatch "prologue");
  let check_seg off len =
    if len < 0 || off < tape.prologue || off + len > n_tick then
      raise (Tape_mismatch "segment range")
  in
  Array.iter
    (fun (r : Tape.reg_commit) ->
      check "reg q" r.rc_q;
      check "reg next" r.rc_next;
      if r.rc_en >= 0 then check "reg enable" r.rc_en;
      check_seg r.rc_off r.rc_len)
    tape.reg_commits;
  Array.iteri
    (fun i (m : Tape.mem_commit) ->
      (* The lowering emits commits in netlist memory order; [tick] and
         the reset images index the backing arrays by that position. *)
      if m.mc_mem <> i then raise (Tape_mismatch "memory order");
      check "mem raddr" m.mc_raddr;
      check "mem wen" m.mc_wen;
      check "mem waddr" m.mc_waddr;
      check "mem wdata" m.mc_wdata;
      check "mem rdata" m.mc_rdata;
      check_seg m.mc_off m.mc_len)
    tape.mem_commits

(* Pack a checked tape and specialize its tick program: the expensive,
   instance-independent half of instantiation. *)
let build_program (tape : Tape.t) (net : Netlist.t) =
  let mems_arr = Array.of_list net.mems in
  let reg_code = Array.make (6 * Array.length tape.reg_commits) 0 in
  Array.iteri
    (fun i (r : Tape.reg_commit) ->
      reg_code.(6 * i) <- r.rc_q;
      reg_code.((6 * i) + 1) <- r.rc_next;
      reg_code.((6 * i) + 2) <- r.rc_en;
      reg_code.((6 * i) + 3) <- r.rc_reset;
      reg_code.((6 * i) + 4) <- 6 * r.rc_off;
      reg_code.((6 * i) + 5) <- 6 * (r.rc_off + r.rc_len))
    tape.reg_commits;
  let mem_code = Array.make (8 * Array.length tape.mem_commits) 0 in
  Array.iteri
    (fun i (m : Tape.mem_commit) ->
      mem_code.(8 * i) <- m.mc_raddr;
      mem_code.((8 * i) + 1) <- m.mc_wen;
      mem_code.((8 * i) + 2) <- m.mc_waddr;
      mem_code.((8 * i) + 3) <- m.mc_wdata;
      mem_code.((8 * i) + 4) <- m.mc_rdata;
      mem_code.((8 * i) + 5) <- mems_arr.(m.mc_mem).size;
      mem_code.((8 * i) + 6) <- 6 * m.mc_off;
      mem_code.((8 * i) + 7) <- 6 * (m.mc_off + m.mc_len))
    tape.mem_commits;
  let inputs = Array.make (max 1 tape.n_signals) false in
  List.iter (fun (s : Netlist.signal) -> inputs.(s.sid) <- true) net.inputs;
  let spec_slot, spec_mask, spec, spec_consts, n_slots =
    match spec_candidate net with
    | None -> (-1, 0, [||], [||], tape.n_slots)
    | Some (slot, width, _) ->
      let variants, extra, n_slots = Opt.specialize_tick tape ~slot ~width in
      (slot, (1 lsl width) - 1, Array.map (pack_variant mems_arr) variants, extra, n_slots)
  in
  let store_init = Array.make (max tape.n_slots n_slots) 0 in
  Array.iter (fun (slot, v) -> store_init.(slot) <- v) tape.consts;
  Array.iter (fun (slot, v) -> store_init.(slot) <- v) spec_consts;
  Array.iter (fun (r : Tape.reg_commit) -> store_init.(r.rc_q) <- r.rc_reset) tape.reg_commits;
  let mem_init =
    Array.map
      (fun (m : Netlist.mem) ->
        match m.init with
        | Some init ->
          Array.init m.size (fun i ->
              if i < Array.length init then init.(i) land Soc_util.Bits.mask m.mem_width else 0)
        | None -> Array.make m.size 0)
      mems_arr
  in
  {
    tape;
    inputs;
    settle_code = pack_code tape.settle;
    tick_code = pack_code tape.tick;
    prologue_end = 6 * tape.prologue;
    reg_code;
    mem_code;
    mem_names = Array.map (fun (m : Netlist.mem) -> m.mem_name) mems_arr;
    mem_init;
    store_init;
    spec_slot;
    spec_mask;
    spec;
  }

(* ------------------------------------------------------------------ *)
(* Program table                                                       *)
(* ------------------------------------------------------------------ *)

(* Programs live for the whole process in a small fixed-capacity table
   keyed by {!Tape.netlist_key}, oldest entry evicted first. It is the
   only store of compiled simulators. An entry is reused only for a
   structurally equal tape: the same netlist lowered with other observed
   signals is another program, with its own entry. An entry lowered from
   the default observe set is [plain]; {!shared} reuses only those.
   Building happens under the lock, so concurrent instantiations of one
   netlist build its program once. *)
type entry = { e_key : string; e_plain : bool; e_prog : program }

let table_capacity = 64
let table : entry option array = Array.make table_capacity None
let table_next = ref 0
let table_lock = Mutex.create ()

let builds = Atomic.make 0
let program_builds () = Atomic.get builds

let clear_programs () =
  Mutex.protect table_lock (fun () ->
      Array.fill table 0 table_capacity None;
      table_next := 0)

(* Lock held. *)
let find_program p =
  let rec go i =
    if i = table_capacity then None
    else match table.(i) with Some e when p e -> Some e.e_prog | _ -> go (i + 1)
  in
  go 0

(* Lock held. *)
let add_program ~key ~plain tape net =
  let prog = build_program tape net in
  Atomic.incr builds;
  table.(!table_next) <- Some { e_key = key; e_plain = plain; e_prog = prog };
  table_next := (!table_next + 1) mod table_capacity;
  prog

(* Fresh instance state over a shared program. *)
let instance prog =
  let n_regs = Array.length prog.tape.reg_commits
  and n_mems = Array.length prog.tape.mem_commits in
  {
    prog;
    store = Array.copy prog.store_init;
    mem_data = Array.map Array.copy prog.mem_init;
    reg_scratch = Array.make n_regs disabled;
    mem_rd_scratch = Array.make n_mems 0;
    mem_wr_scratch = Array.make (2 * n_mems) (-1);
    cycle = 0;
    settled = false;
    quiet = false;
  }

(* Instantiate a compiled tape against the netlist it was lowered from:
   check it, fetch (or build) its program, and give the instance fresh
   state. *)
let instantiate ~plain (tape : Tape.t) (net : Netlist.t) =
  check_tape tape net;
  let key = Tape.netlist_key net in
  instance
    (Mutex.protect table_lock (fun () ->
         match
           find_program (fun e ->
               String.equal e.e_key key && (e.e_prog.tape == tape || e.e_prog.tape = tape))
         with
         | Some p -> p
         | None -> add_program ~key ~plain tape net))

let of_tape tape net = instantiate ~plain:false tape net

(* The verified compilation pipeline: lower, validate the lowering, then
   run the optimizer with the translation validator checkpointed after
   every pass — a miscompile surfaces as {!Verify.Tape_invalid} naming
   the pass that introduced it, never as wrong simulation output. The
   {!Soc_fault.Fault.Service.corrupt_tape} point (chaos campaigns, serve
   fault tests) mutates one lowered instruction here, upstream of the
   validator, to prove exactly that. *)
let compile_tape ?observe net =
  let tape = Tape.lower ?observe net in
  let tape =
    match Soc_fault.Fault.Service.corrupt_tape () with
    | None -> tape
    | Some seed -> fst (Verify.mutate ~seed tape)
  in
  let ctx = Verify.context net in
  Verify.check ~stage:"lower" ~ctx tape;
  Opt.run ~checkpoint:(fun stage t -> Verify.check ~stage ~ctx t) tape

let create ?(observe = []) net =
  instantiate ~plain:(observe = []) (compile_tape ~observe net) net

(* An instance of [net]'s plain program, [key] being its
   {!Tape.netlist_key}. On a miss [lower] makes the tape (it is expected
   to be {!compile_tape}), which is checked and built into the table,
   all under the lock: concurrent instantiations of one netlist lower it
   once, and a hit lowers nothing. *)
let shared ~key ~lower net =
  instance
    (Mutex.protect table_lock (fun () ->
         match find_program (fun e -> e.e_plain && String.equal e.e_key key) with
         | Some p -> p
         | None ->
           let tape = lower () in
           check_tape tape net;
           add_program ~key ~plain:true tape net))

let tape t = t.prog.tape
let stats t = t.prog.tape.stats

let set_input t (s : Netlist.signal) v =
  let inputs = t.prog.inputs in
  if s.sid < 0 || s.sid >= Array.length inputs || not inputs.(s.sid) then
    invalid_arg ("Csim.set_input: " ^ s.sname ^ " is not an input");
  let v = v land Soc_util.Bits.mask s.width in
  if t.store.(s.sid) <> v then begin
    t.store.(s.sid) <- v;
    t.settled <- false;
    t.quiet <- false
  end

let settle t =
  if not t.quiet then begin
    run_code t.store t.prog.settle_code;
    t.settled <- true
  end

let value t (s : Netlist.signal) = t.store.(s.sid)

(* The last memory of that name, as a name-keyed table would keep it. *)
let mem_contents t name =
  let names = t.prog.mem_names in
  let rec find i =
    if i < 0 then None else if String.equal names.(i) name then Some t.mem_data.(i) else find (i - 1)
  in
  find (Array.length names - 1)

(* Clock edge, mirroring Sim.tick phase for phase: run the prologue, run
   each enabled segment and gather its register next / memory port into
   scratch (reads see the pre-edge store and pre-write memory contents),
   then commit. When a specialization is installed, the pre-edge value of
   the dispatch register selects a partial-evaluated tick program; commit
   still goes through the generic reg_code/mem_code q and rdata slots,
   which the variants share. Commit compares before it stores: a tick
   that changes nothing leaves a settled instance quiet. *)
let tick_with t code prologue_end rc mc =
  let store = t.store in
  run_range store code 0 prologue_end;
  let scratch = t.reg_scratch in
  let n_regs = Array.length rc / 6 in
  for r = 0 to n_regs - 1 do
    let base = 6 * r in
    let en = Array.unsafe_get rc (base + 2) in
    if
      if en >= 0 then Array.unsafe_get store en <> 0
      else en = -1 (* -2: statically disabled in this variant *)
    then begin
      run_range store code (Array.unsafe_get rc (base + 4)) (Array.unsafe_get rc (base + 5));
      Array.unsafe_set scratch r (Array.unsafe_get store (Array.unsafe_get rc (base + 1)))
    end
    else Array.unsafe_set scratch r disabled
  done;
  let n_mems = Array.length mc / 8 in
  for m = 0 to n_mems - 1 do
    let base = 8 * m in
    let size = mc.(base + 5) in
    let data = t.mem_data.(m) in
    let raddr = store.(mc.(base)) in
    t.mem_rd_scratch.(m) <- (if raddr >= 0 && raddr < size then data.(raddr) else 0);
    let wen = mc.(base + 1) in
    if if wen >= 0 then store.(wen) <> 0 else wen = -1 then begin
      run_range store code mc.(base + 6) mc.(base + 7);
      let waddr = store.(mc.(base + 2)) in
      if waddr >= 0 && waddr < size then begin
        t.mem_wr_scratch.(2 * m) <- waddr;
        t.mem_wr_scratch.((2 * m) + 1) <- store.(mc.(base + 3))
      end
      else t.mem_wr_scratch.(2 * m) <- -1
    end
    else t.mem_wr_scratch.(2 * m) <- -1
  done;
  let changed = ref false in
  for r = 0 to n_regs - 1 do
    let next = Array.unsafe_get scratch r in
    let q = Array.unsafe_get rc (6 * r) in
    if next <> disabled && Array.unsafe_get store q <> next then begin
      Array.unsafe_set store q next;
      changed := true
    end
  done;
  for m = 0 to n_mems - 1 do
    let base = 8 * m in
    let rdata = mc.(base + 4) and rd = t.mem_rd_scratch.(m) in
    if store.(rdata) <> rd then begin
      store.(rdata) <- rd;
      changed := true
    end;
    let waddr = t.mem_wr_scratch.(2 * m) in
    if waddr >= 0 then begin
      let data = t.mem_data.(m) and wdata = t.mem_wr_scratch.((2 * m) + 1) in
      if data.(waddr) <> wdata then begin
        data.(waddr) <- wdata;
        changed := true
      end
    end
  done;
  if !changed then t.settled <- false;
  t.quiet <- t.settled;
  t.cycle <- t.cycle + 1

let tick t =
  let p = t.prog in
  if t.quiet then t.cycle <- t.cycle + 1
  else if p.spec_slot >= 0 then begin
    let v = p.spec.(t.store.(p.spec_slot) land p.spec_mask) in
    tick_with t v.v_code v.v_prologue_end v.v_reg v.v_mem
  end
  else tick_with t p.tick_code p.prologue_end p.reg_code p.mem_code

let cycle t = t.cycle
let quiet t = t.quiet

(* [k] cycles of a quiet instance at once: their ticks are the identity. *)
let skip t k = t.cycle <- t.cycle + k

let reset t =
  let p = t.prog in
  Array.blit p.store_init 0 t.store 0 (Array.length t.store);
  Array.iteri (fun i init -> Array.blit init 0 t.mem_data.(i) 0 (Array.length init)) p.mem_init;
  t.cycle <- 0;
  t.settled <- false;
  t.quiet <- false
