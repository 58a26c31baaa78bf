(** Static translation validator for {!Tape} programs.

    The compiled backend's dispatch loop runs unchecked array accesses
    against a tape produced by lowering and four optimizer passes. Each
    of those stages is a chance to miscompile; this module checks the structural
    invariants the executor's correctness argument rests on, so a broken
    tape is rejected as a structured [RTL51x] diagnostic {e before} the
    unsafe dispatch trusts it — and, because {!Opt.run} checkpoints after
    every pass, the diagnostic names the pass that introduced the damage.

    Checked invariants (code family [RTL51x]):
    - RTL510 — def-before-use: every temp is written before it is read, in
      program order of its own section; with the netlist, combinational
      signals are also read only after their settle write.
    - RTL511 — every slot index (operand, destination, constant, commit
      field) is inside the store.
    - RTL512 — opcodes are within the dispatch table and every result mask
      is [-1] or a contiguous low bit-mask no wider than 32 bits.
    - RTL513 — segment isolation: tick code writes only temporaries, the
      settle tape writes only combinational targets, and no instruction
      writes an interned-constant slot.
    - RTL514 — no cross-section value reuse: a segment never reads another
      segment's (or the settle tape's) temporaries — either might be
      skipped on any given cycle.
    - RTL515 — the keep set is sorted, within the signal range and (with
      the netlist) still covers every observable signal DCE must preserve.
    - RTL516 — commit-table / segment geometry: the gated segments tile
      the tick tape exactly, in commit order, and every commit field
      references a slot legible at its evaluation point.
    - RTL517 — single assignment: no slot is written twice across the
      settle tape, or twice across the tick tape.

    [check] is linear in tape size with small constants — every lowering
    runs it after every pass, and the cosim bench
    asserts its cost stays under 5% of lowering. *)

module Netlist = Soc_rtl.Netlist

type error = {
  v_code : string;  (** stable diagnostic code, [RTL510]..[RTL517] *)
  v_stage : string;  (** pipeline stage that produced the tape *)
  v_mod : string;  (** module name of the offending tape *)
  v_where : string;  (** program location, e.g. ["tick segment 3"] *)
  v_reason : string;
}

exception Tape_invalid of error

let () =
  Printexc.register_printer (function
    | Tape_invalid e ->
      Some
        (Printf.sprintf "Soc_rtl_compile.Verify.Tape_invalid(%s %s after %s at %s: %s)"
           e.v_code e.v_mod e.v_stage e.v_where e.v_reason)
    | _ -> None)

let to_diag ?subject (e : error) =
  Soc_util.Diag.error ~code:e.v_code
    ~subject:(match subject with Some s -> s | None -> e.v_mod)
    (Printf.sprintf "tape verification failed after %s at %s: %s" e.v_stage e.v_where
       e.v_reason)

(* Section ids for the def-tracking walk. 0 = never written; signals start
   as themselves (readable state); everything else is the section that
   wrote the slot. *)
let sec_settle = 1
let sec_prologue = 2
let sec_segment i = 3 + i

let sec_name = function
  | 1 -> "the settle tape"
  | 2 -> "the tick prologue"
  | s -> Printf.sprintf "tick segment %d" (s - 3)

(* A contiguous low mask: -1 (keep all bits) or 2^k - 1 for k in 1..32. *)
let mask_ok m = m = -1 || (m >= 1 && m <= 0xFFFFFFFF && m land (m + 1) = 0)

(* Operand arity by opcode, for the scan loops: binops (1..23) and mux
   read [b]; only mux reads [c]. Indexed lookups beat re-deriving the
   class from range tests on every instruction. *)
let reads_b =
  Array.init (Tape.op_mux + 1) (fun op -> (op >= 1 && op <= 23) || op = Tape.op_mux)

let reads_c = Array.init (Tape.op_mux + 1) (fun op -> op = Tape.op_mux)

(* Netlist-derived facts the checker needs, precomputed once so the five
   checkpoint runs of one compile don't each re-walk the netlist. *)
type ctx = {
  cx_signals : int;
  cx_comb : bool array;  (* sized [max 1 cx_signals]; combinational targets *)
  cx_regs : Netlist.reg array;
  cx_mems : Netlist.mem array;
  cx_keep : (string * Netlist.signal) array;  (* observables DCE must keep *)
  mutable cx_def : int array;
      (* scratch definition map reused across the checkpoint runs of one
         compile — cleared at the start of every check *)
}

let context (net : Netlist.t) =
  let ns = Netlist.signal_count net in
  let comb = Array.make (max 1 ns) false in
  List.iter (fun ((s : Netlist.signal), _) -> comb.(s.Netlist.sid) <- true) net.Netlist.combs;
  let keep =
    Array.of_list
      (List.concat
         [ List.map (fun s -> ("input", s)) net.Netlist.inputs;
           List.map (fun s -> ("output", s)) net.Netlist.outputs;
           List.map (fun (r : Netlist.reg) -> ("register output", r.Netlist.q)) net.Netlist.regs;
           List.map (fun (m : Netlist.mem) -> ("memory read port", m.Netlist.rdata)) net.Netlist.mems ])
  in
  { cx_signals = ns; cx_comb = comb;
    cx_regs = Array.of_list net.Netlist.regs;
    cx_mems = Array.of_list net.Netlist.mems; cx_keep = keep; cx_def = [||] }

let check ?(stage = "lower") ?net ?ctx (t : Tape.t) =
  let ctx =
    match (ctx, net) with
    | (Some _, _) -> ctx
    | (None, Some net) -> Some (context net)
    | (None, None) -> None
  in
  let fail code where fmt =
    Printf.ksprintf
      (fun reason ->
        raise
          (Tape_invalid
             { v_code = code; v_stage = stage; v_mod = t.mod_name; v_where = where;
               v_reason = reason }))
      fmt
  in
  if t.n_signals < 0 || t.n_slots < t.n_signals then
    fail "RTL511" "header" "store of %d slots cannot hold %d signals" t.n_slots t.n_signals;
  (match ctx with
  | None -> ()
  | Some c ->
    if t.n_signals <> c.cx_signals then
      fail "RTL516" "header" "tape carries %d signals, netlist has %d" t.n_signals
        c.cx_signals;
    let nr = Array.length c.cx_regs and nm = Array.length c.cx_mems in
    if Array.length t.reg_commits <> nr then
      fail "RTL516" "register commits" "%d commits for %d netlist registers"
        (Array.length t.reg_commits) nr;
    if Array.length t.mem_commits <> nm then
      fail "RTL516" "memory commits" "%d commits for %d netlist memories"
        (Array.length t.mem_commits) nm);
  let n_slots = t.n_slots and n_signals = t.n_signals in
  let slot_ok s = s >= 0 && s < n_slots in
  (* Definition map, merged with the constant pool so the hot loop reads
     one array: 0 = never written, -1 = interned constant (readable from
     any section, never writable), otherwise the section that wrote the
     slot. Interned constants must be distinct temp slots. *)
  let def =
    match ctx with
    | None -> Array.make (max 1 n_slots) 0
    | Some c ->
      if Array.length c.cx_def < n_slots then c.cx_def <- Array.make (max 1 n_slots) 0
      else Array.fill c.cx_def 0 n_slots 0;
      c.cx_def
  in
  let consts = t.consts in
  for k = 0 to Array.length consts - 1 do
    let s, _v = Array.unsafe_get consts k in
    if not (slot_ok s) then fail "RTL511" "constant pool" "constant slot %d out of range" s;
    if s < n_signals then
      fail "RTL513" "constant pool" "constant interned into signal slot %d" s;
    if Array.unsafe_get def s <> 0 then
      fail "RTL517" "constant pool" "constant slot %d interned twice" s;
    Array.unsafe_set def s (-1)
  done;
  (* Combinational targets (with the netlist): the settle tape may write
     exactly these signal slots, and must write them before reading. *)
  let comb = match ctx with None -> [||] | Some c -> c.cx_comb in
  let have_comb = Array.length comb > 0 in
  (* Failure locations are reconstructed from (section, instruction
     index) only when a check fails: the checker runs on every compile
     of every netlist, and formatting (or even closing over) a location
     label per instruction would cost more than the checking itself. *)
  let loc sec pos =
    if sec = sec_settle then Printf.sprintf "settle[%d]" pos
    else Printf.sprintf "tick[%d] (%s)" pos (sec_name sec)
  in
  (* Cold path: a temp read that is not plainly legal — name the cause. *)
  let bad_read sec pos s d =
    if d = 0 then fail "RTL510" (loc sec pos) "reads temp slot %d that is never written" s
    else fail "RTL514" (loc sec pos) "reads slot %d written by %s" s (sec_name d)
  in
  let bad_write sec pos d dd =
    if dd = -1 then fail "RTL513" (loc sec pos) "writes interned-constant slot %d" d
    else fail "RTL517" (loc sec pos) "writes slot %d already written by %s" d (sec_name dd)
  in
  (* The scans are the checker's inner loop — they run over every
     instruction of every tape after every pass, so the hot path is
     branch-lean: bounds are established up front for all four operand
     fields (the executor packs them unchecked), after which [def]/[comb]
     accesses are proven in range; the settle and tick section rules
     differ enough that each gets its own specialized loop body instead
     of re-testing the section kind per operand. *)
  (* Out-of-line failure reporter for the shared head checks, so the hot
     path carries one forward branch per concern. *)
  let bad_head sec pos op m a b c d =
    if op < 0 || op > Tape.op_mux then fail "RTL512" (loc sec pos) "invalid opcode %d" op;
    if not (mask_ok m) then fail "RTL512" (loc sec pos) "malformed result mask %#x" m;
    if d < 0 || d >= n_slots then
      fail "RTL511" (loc sec pos) "writes out-of-range slot %d" d
    else fail "RTL511" (loc sec pos) "operand slot out of range (a=%d b=%d c=%d)" a b c
  in
  (* Settle section: temps must be settle-defined (or consts); signal
     reads of combinational targets must follow their settle write; only
     combinational signal slots may be written. *)
  let settle_read pos x =
    if x >= n_signals then begin
      let dx = Array.unsafe_get def x in
      if dx <> sec_settle && dx <> -1 then bad_read sec_settle pos x dx
    end
    else if have_comb && Array.unsafe_get comb x && Array.unsafe_get def x <> sec_settle
    then
      fail "RTL510" (loc sec_settle pos) "reads combinational slot %d before its settle write"
        x
  in
  let settle = t.settle in
  (* The scan bodies are written out inside their loops rather than
     factored per instruction: without cross-module inlining a per-instr
     call (plus re-loading the closure environment) costs as much as the
     checks themselves. *)
  for pos = 0 to Array.length settle - 1 do
    let i = Array.unsafe_get settle pos in
    let op = i.Tape.op and m = i.Tape.msk in
    let a = i.Tape.a and b = i.Tape.b and c = i.Tape.c and d = i.Tape.dst in
    if
      op < 0 || op > Tape.op_mux
      || (m <> -1 && (m < 1 || m > 0xFFFFFFFF || m land (m + 1) <> 0))
      || a lor b lor c lor d < 0
      || a >= n_slots || b >= n_slots || c >= n_slots || d >= n_slots
    then bad_head sec_settle pos op m a b c d;
    settle_read pos a;
    if Array.unsafe_get reads_b op then begin
      settle_read pos b;
      if Array.unsafe_get reads_c op then settle_read pos c
    end;
    let dd = Array.unsafe_get def d in
    if dd <> 0 then bad_write sec_settle pos d dd;
    if d < n_signals && have_comb && not (Array.unsafe_get comb d) then
      fail "RTL513" (loc sec_settle pos) "settle tape writes non-combinational signal slot %d"
        d;
    Array.unsafe_set def d sec_settle
  done;
  let tick = t.tick in
  let n_tick = Array.length tick in
  (* Tick sections (prologue and gated segments): signal reads are state
     reads and always legal; temps must come from this section, the
     prologue, or the constant pool; signal writes are never legal. *)
  let scan_tick_range sec lo hi =
    for pos = lo to hi - 1 do
      let i = Array.unsafe_get tick pos in
      let op = i.Tape.op and m = i.Tape.msk in
      let a = i.Tape.a and b = i.Tape.b and c = i.Tape.c and d = i.Tape.dst in
      if
        op < 0 || op > Tape.op_mux
        || (m <> -1 && (m < 1 || m > 0xFFFFFFFF || m land (m + 1) <> 0))
        || a lor b lor c lor d < 0
        || a >= n_slots || b >= n_slots || c >= n_slots || d >= n_slots
      then bad_head sec pos op m a b c d;
      if a >= n_signals then begin
        let da = Array.unsafe_get def a in
        if da <> sec && da <> sec_prologue && da <> -1 then bad_read sec pos a da
      end;
      if Array.unsafe_get reads_b op then begin
        if b >= n_signals then begin
          let db = Array.unsafe_get def b in
          if db <> sec && db <> sec_prologue && db <> -1 then bad_read sec pos b db
        end;
        if Array.unsafe_get reads_c op then
          if c >= n_signals then begin
            let dc = Array.unsafe_get def c in
            if dc <> sec && dc <> sec_prologue && dc <> -1 then bad_read sec pos c dc
          end
      end;
      let dd = Array.unsafe_get def d in
      if dd <> 0 then bad_write sec pos d dd;
      if d < n_signals then
        fail "RTL513" (loc sec pos) "%s writes netlist-visible slot %d"
          (String.capitalize_ascii (sec_name sec)) d;
      Array.unsafe_set def d sec
    done
  in
  if t.prologue < 0 || t.prologue > n_tick then
    fail "RTL516" "tick tape" "prologue of %d instructions in a tick tape of %d" t.prologue
      n_tick;
  scan_tick_range sec_prologue 0 t.prologue;
  (* Gated segments must tile [prologue, n_tick) exactly, in commit order:
     registers first, then memory write ports — the layout both the
     optimizer's reassembly and the executor's packing assume. *)
  let cursor = ref t.prologue in
  let segs si off len =
      if len < 0 then
        fail "RTL516" (sec_name (sec_segment si)) "negative segment length %d" len;
      if off <> !cursor then
        fail "RTL516" (sec_name (sec_segment si))
          "segment starts at %d, expected %d (segments must tile the tick tape)" off !cursor;
      if off + len > n_tick then
        fail "RTL516" (sec_name (sec_segment si)) "segment [%d, %d) overruns the tick tape of %d"
          off (off + len) n_tick;
      scan_tick_range (sec_segment si) off (off + len);
      cursor := off + len
  in
  let reg_commits = t.reg_commits and mem_commits = t.mem_commits in
  let nrc = Array.length reg_commits in
  for i = 0 to nrc - 1 do
    let r = Array.unsafe_get reg_commits i in
    segs i r.Tape.rc_off r.Tape.rc_len
  done;
  for i = 0 to Array.length mem_commits - 1 do
    let m = Array.unsafe_get mem_commits i in
    segs (nrc + i) m.Tape.mc_off m.Tape.mc_len
  done;
  if !cursor <> n_tick then
    fail "RTL516" "tick tape" "%d trailing instruction(s) belong to no segment"
      (n_tick - !cursor);
  (* Commit fields: each must reference a slot legible at the point the
     executor samples it — state, a constant, a prologue value, or (for
     next/write-port data) the commit's own gated segment. *)
  (* Commit labels are rebuilt only at failure sites — a sprintf per
     commit per check costs more than the field checks themselves. *)
  let reg_loc i = Printf.sprintf "register commit %d" i
  and mem_loc i = Printf.sprintf "memory commit %d" i in
  let commit_read ~sec ~kloc ~idx s =
    if not (slot_ok s) then fail "RTL511" (kloc idx) "references out-of-range slot %d" s;
    if s >= n_signals then begin
      let d = def.(s) in
      if d = 0 then fail "RTL510" (kloc idx) "references slot %d that is never written" s
      else if d <> -1 && d <> sec && d <> sec_prologue then
        fail "RTL514" (kloc idx) "references slot %d written by %s" s (sec_name d)
    end
  in
  let regs_arr = match ctx with Some c -> c.cx_regs | None -> [||] in
  let have_regs = Array.length regs_arr > 0 in
  for i = 0 to nrc - 1 do
    let r = Array.unsafe_get reg_commits i in
    let q = r.Tape.rc_q in
    if q < 0 || q >= n_signals then fail "RTL516" (reg_loc i) "q slot %d is not a signal" q;
    commit_read ~sec:(sec_segment i) ~kloc:reg_loc ~idx:i r.Tape.rc_next;
    let en = r.Tape.rc_en in
    if en <> -1 then begin
      if en < 0 then fail "RTL516" (reg_loc i) "invalid enable slot %d" en;
      (* Enables are sampled after the prologue, before any segment. *)
      commit_read ~sec:sec_prologue ~kloc:reg_loc ~idx:i en
    end;
    if have_regs then begin
      let nr = Array.unsafe_get regs_arr i in
      if q <> nr.Netlist.q.sid then
        fail "RTL516" (reg_loc i) "commits to slot %d, netlist register %s is slot %d" q
          nr.Netlist.q.sname nr.Netlist.q.sid;
      if r.Tape.rc_reset <> nr.Netlist.reset_value then
        fail "RTL516" (reg_loc i) "reset value %d differs from the netlist's %d"
          r.Tape.rc_reset nr.Netlist.reset_value
    end
  done;
  let mems_arr = match ctx with Some c -> c.cx_mems | None -> [||] in
  let have_mems = Array.length mems_arr > 0 in
  for i = 0 to Array.length mem_commits - 1 do
    let m = Array.unsafe_get mem_commits i in
    let sec = sec_segment (nrc + i) in
    if m.Tape.mc_mem <> i then
      fail "RTL516" (mem_loc i) "commit is for memory %d (commits must follow netlist order)"
        m.Tape.mc_mem;
    commit_read ~sec:sec_prologue ~kloc:mem_loc ~idx:i m.Tape.mc_raddr;
    commit_read ~sec:sec_prologue ~kloc:mem_loc ~idx:i m.Tape.mc_wen;
    commit_read ~sec ~kloc:mem_loc ~idx:i m.Tape.mc_waddr;
    commit_read ~sec ~kloc:mem_loc ~idx:i m.Tape.mc_wdata;
    let rd = m.Tape.mc_rdata in
    if rd < 0 || rd >= n_signals then
      fail "RTL516" (mem_loc i) "rdata slot %d is not a signal" rd;
    if have_mems && rd <> mems_arr.(i).Netlist.rdata.sid then
      fail "RTL516" (mem_loc i) "rdata slot %d, netlist memory %s reads into slot %d" rd
        mems_arr.(i).Netlist.mem_name mems_arr.(i).Netlist.rdata.sid
  done;
  (* Keep set: sorted signal slots, still covering everything observable —
     a pass that drops one licenses DCE to delete live logic. *)
  let keep = t.keep in
  let prev = ref (-1) in
  for k = 0 to Array.length keep - 1 do
    let s = Array.unsafe_get keep k in
    if s < 0 || s >= n_signals then
      fail "RTL515" "keep set" "keep slot %d is outside the signal range" s;
    if !prev >= s then fail "RTL515" "keep set" "keep set not strictly sorted at slot %d" s;
    prev := s
  done;
  match ctx with
  | None -> ()
  | Some c ->
    (* The keep set was just validated strictly sorted, so coverage is a
       binary search per observable — no per-check presence array. *)
    let keep = t.keep in
    let covered sid =
      let lo = ref 0 and hi = ref (Array.length keep - 1) and found = ref false in
      while (not !found) && !lo <= !hi do
        let mid = (!lo + !hi) lsr 1 in
        let v = Array.unsafe_get keep mid in
        if v = sid then found := true
        else if v < sid then lo := mid + 1
        else hi := mid - 1
      done;
      !found
    in
    Array.iter
      (fun (what, (s : Netlist.signal)) ->
        if s.sid < 0 || s.sid >= n_signals || not (covered s.sid) then
          fail "RTL515" "keep set" "%s %s (slot %d) missing from the keep set" what s.sname
            s.sid)
      c.cx_keep

let check_result ?stage ?net ?ctx t =
  match check ?stage ?net ?ctx t with () -> Ok () | exception Tape_invalid e -> Error e

(* ------------------------------------------------------------------ *)
(* Seeded corruption (fault injection + mutation testing)              *)
(* ------------------------------------------------------------------ *)

(* Mutate one instruction (or one table entry) of a verified tape into a
   structurally invalid form. Every mutation class below violates an
   invariant [check] enforces, so the seeded mutation test can assert
   each one is caught; the serve fault point uses the same generator to
   prove a miscompile degrades instead of simulating wrong.

   Deliberately excluded: semantically observable but structurally valid
   edits (Add -> Sub, retargeting an operand at another defined slot) —
   no structural verifier can catch those; the differential qcheck oracle
   owns that ground. *)
let copy_tape (t : Tape.t) =
  { t with
    consts = Array.copy t.consts;
    settle = Array.copy t.settle;
    tick = Array.copy t.tick;
    reg_commits = Array.copy t.reg_commits;
    mem_commits = Array.copy t.mem_commits;
    keep = Array.copy t.keep }

let mutate ~seed (t : Tape.t) =
  let rng = Soc_util.Rng.create (0x7a9e5 + seed) in
  let t' = copy_tape t in
  let n_settle = Array.length t'.settle and n_tick = Array.length t'.tick in
  let have_code = n_settle + n_tick > 0 in
  let pick_instr () =
    let prog, name =
      if n_settle = 0 then (t'.tick, "tick")
      else if n_tick = 0 then (t'.settle, "settle")
      else if Soc_util.Rng.bool rng then (t'.settle, "settle")
      else (t'.tick, "tick")
    in
    let idx = Soc_util.Rng.int rng (Array.length prog) in
    (prog, idx, Printf.sprintf "%s[%d]" name idx)
  in
  (* Each class returns the mutated tape and a description, or None when
     the tape offers no applicable site; the driver rotates through the
     classes starting from the seeded pick until one applies. *)
  let class_count = 10 in
  let try_class cls =
    match cls with
    | 0 when have_code ->
      let prog, i, w = pick_instr () in
      prog.(i) <- { (prog.(i)) with a = t'.n_slots + 1 + Soc_util.Rng.int rng 64 };
      Some (t', Printf.sprintf "%s: operand a out of bounds" w)
    | 1 when have_code ->
      let prog, i, w = pick_instr () in
      prog.(i) <- { (prog.(i)) with dst = t'.n_slots + 1 + Soc_util.Rng.int rng 64 };
      Some (t', Printf.sprintf "%s: destination out of bounds" w)
    | 2 when have_code ->
      let prog, i, w = pick_instr () in
      prog.(i) <- { (prog.(i)) with op = Tape.op_mux + 1 + Soc_util.Rng.int rng 100 };
      Some (t', Printf.sprintf "%s: invalid opcode" w)
    | 3 when have_code ->
      let prog, i, w = pick_instr () in
      prog.(i) <- { (prog.(i)) with msk = 5 };
      Some (t', Printf.sprintf "%s: non-contiguous result mask" w)
    | 4 ->
      (* Use-before-def: point an earlier instruction at a later temp. *)
      let prog, name =
        if n_settle >= 2 then (t'.settle, "settle") else (t'.tick, "tick")
      in
      let n = Array.length prog in
      if n < 2 then None
      else begin
        let k = ref (-1) in
        for j = n - 1 downto 1 do
          if !k < 0 && prog.(j).Tape.dst >= t'.n_signals then k := j
        done;
        if !k < 1 then None
        else begin
          let j = Soc_util.Rng.int rng !k in
          prog.(j) <- { (prog.(j)) with a = prog.(!k).Tape.dst };
          Some (t', Printf.sprintf "%s[%d]: reads temp defined later at [%d]" name j !k)
        end
      end
    | 5 ->
      (* Segment isolation: make a gated instruction clobber a signal. *)
      let first_seg =
        let from_regs =
          Array.fold_left
            (fun acc (r : Tape.reg_commit) ->
              match acc with
              | Some _ -> acc
              | None -> if r.rc_len > 0 then Some r.rc_off else None)
            None t'.reg_commits
        in
        match from_regs with
        | Some _ -> from_regs
        | None ->
          Array.fold_left
            (fun acc (m : Tape.mem_commit) ->
              match acc with
              | Some _ -> acc
              | None -> if m.mc_len > 0 then Some m.mc_off else None)
            None t'.mem_commits
      in
      (match first_seg with
      | Some off when t'.n_signals > 0 ->
        t'.tick.(off) <- { (t'.tick.(off)) with dst = Soc_util.Rng.int rng t'.n_signals };
        Some (t', Printf.sprintf "tick[%d]: gated segment writes a signal slot" off)
      | _ -> None)
    | 6 ->
      (* Clobber an interned constant. *)
      if Array.length t'.consts = 0 || not have_code then None
      else begin
        let slot, _ = t'.consts.(Soc_util.Rng.int rng (Array.length t'.consts)) in
        let prog, i, w = pick_instr () in
        prog.(i) <- { (prog.(i)) with dst = slot };
        Some (t', Printf.sprintf "%s: writes interned-constant slot %d" w slot)
      end
    | 7 ->
      (* Drop an observable slot from the keep set. *)
      if Array.length t'.keep = 0 then None
      else begin
        let i = Soc_util.Rng.int rng (Array.length t'.keep) in
        let dropped = t'.keep.(i) in
        let keep =
          Array.append (Array.sub t'.keep 0 i)
            (Array.sub t'.keep (i + 1) (Array.length t'.keep - i - 1))
        in
        Some
          ({ t' with keep }, Printf.sprintf "keep set: dropped observable slot %d" dropped)
      end
    | 8 ->
      (* Commit-table slot out of bounds. *)
      if Array.length t'.reg_commits > 0 then begin
        let i = Soc_util.Rng.int rng (Array.length t'.reg_commits) in
        t'.reg_commits.(i) <- { (t'.reg_commits.(i)) with rc_next = t'.n_slots + 1 };
        Some (t', Printf.sprintf "register commit %d: next slot out of bounds" i)
      end
      else if Array.length t'.mem_commits > 0 then begin
        let i = Soc_util.Rng.int rng (Array.length t'.mem_commits) in
        t'.mem_commits.(i) <- { (t'.mem_commits.(i)) with mc_wdata = t'.n_slots + 1 };
        Some (t', Printf.sprintf "memory commit %d: wdata slot out of bounds" i)
      end
      else None
    | 9 ->
      (* Shift the prologue boundary: segments no longer tile the tape. *)
      Some ({ t' with prologue = t'.prologue + 1 }, "prologue boundary shifted")
    | _ -> None
  in
  let start = Soc_util.Rng.int rng class_count in
  let rec go i =
    if i >= class_count then
      (* Class 9 applies to any tape, so this is unreachable; keep the
         fallback total anyway. *)
      ({ t' with prologue = t'.prologue + 1 }, "prologue boundary shifted")
    else
      match try_class ((start + i) mod class_count) with
      | Some r -> r
      | None -> go (i + 1)
  in
  go 0
