(* Tests for the compiled co-simulation backend (lib/rtl/compile): the
   interpreter stays the differential oracle, so most tests here run both
   backends in lockstep and demand cycle-exact equality. *)

module NL = Soc_rtl.Netlist
module Sim = Soc_rtl.Sim
module Tape = Soc_rtl_compile.Tape
module Opt = Soc_rtl_compile.Opt
module Csim = Soc_rtl_compile.Csim
module Engine = Soc_rtl_compile.Engine

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Stack safety of the shared topological sort (satellite of the tape
   backend: lowering reuses [Sim.topo_combs])                          *)
(* ------------------------------------------------------------------ *)

let deep_chain_netlist n =
  let net = NL.create "deep" in
  let x = NL.input net ~name:"x" ~width:32 in
  let prev = ref (NL.Ref x) in
  for i = 1 to n do
    let s = NL.fresh net ~name:(Printf.sprintf "c%d" i) ~width:32 in
    NL.assign net s (NL.Bin (Soc_kernel.Ast.Add, !prev, NL.Const (1, 32)));
    prev := NL.Ref s
  done;
  let o = NL.output net ~name:"y" ~width:32 in
  NL.assign net o !prev;
  (net, x, o)

let test_deep_chain_stack_safe () =
  (* 50k chained combs: the old recursive DFS overflowed the stack long
     before this. Both backends must survive and agree. *)
  let n = 50_000 in
  let net, x, o = deep_chain_netlist n in
  let sim = Sim.create net in
  Sim.set_input sim x 5;
  Sim.settle sim;
  check Alcotest.int "interp deep chain" (5 + n) (Sim.value sim o);
  let c = Csim.create net in
  Csim.set_input c x 5;
  Csim.settle c;
  check Alcotest.int "compiled deep chain" (5 + n) (Csim.value c o)

let test_comb_cycle_still_detected () =
  let net = NL.create "loop" in
  let a = NL.fresh net ~name:"a" ~width:8 in
  let b = NL.fresh net ~name:"b" ~width:8 in
  NL.assign net a (NL.Ref b);
  NL.assign net b (NL.Ref a);
  (match Sim.create net with
  | exception Sim.Combinational_cycle names ->
    check Alcotest.bool "cycle names reported" true (List.length names >= 2)
  | _ -> Alcotest.fail "expected Combinational_cycle")

(* ------------------------------------------------------------------ *)
(* Random-netlist differential oracle                                  *)
(* ------------------------------------------------------------------ *)

let binops =
  Soc_kernel.Ast.
    [| Add; Sub; Mul; Div; Rem; Udiv; Urem; Band; Bor; Bxor; Shl; Shr; Ashr;
       Eq; Ne; Lt; Le; Gt; Ge; Ult; Ule; Ugt; Uge |]

let unops = Soc_kernel.Ast.[| Neg; Bnot; Lnot |]

(* Layered construction: every expression references only signals that
   already exist, so the combinational part is a DAG by construction
   (register outputs and memory read ports may feed anything). *)
let random_netlist seed =
  let rng = Soc_util.Rng.create seed in
  let rand n = Soc_util.Rng.int rng n in
  let net = NL.create "rand" in
  let inputs =
    List.init
      (1 + rand 3)
      (fun i -> NL.input net ~name:(Printf.sprintf "in%d" i) ~width:(1 + rand 32))
  in
  let pool = ref inputs in
  let pick () = List.nth !pool (rand (List.length !pool)) in
  let rec rexpr d =
    if d = 0 || rand 4 = 0 then
      if rand 3 = 0 then NL.Const (rand 0x10000, 1 + rand 32) else NL.Ref (pick ())
    else
      match rand 8 with
      | 0 -> NL.Un (unops.(rand 3), rexpr (d - 1))
      | 1 -> NL.Mux (rexpr (d - 1), rexpr (d - 1), rexpr (d - 1))
      | _ -> NL.Bin (binops.(rand 23), rexpr (d - 1), rexpr (d - 1))
  in
  let comb_layer tag n =
    for i = 0 to n - 1 do
      let s =
        NL.fresh net ~name:(Printf.sprintf "%s%d" tag i) ~width:(1 + rand 32)
      in
      NL.assign net s (rexpr (1 + rand 3));
      pool := s :: !pool
    done
  in
  comb_layer "w" (3 + rand 10);
  for i = 0 to rand 4 - 1 do
    let q =
      NL.register net ~reset_value:(rand 0x100)
        ~enable:(if rand 2 = 0 then NL.one else rexpr 2)
        ~name:(Printf.sprintf "r%d" i) ~width:(1 + rand 32)
        (fun q -> NL.Bin (Soc_kernel.Ast.Add, NL.Ref q, rexpr 2))
    in
    pool := q :: !pool
  done;
  if rand 2 = 0 then begin
    let size = 4 + rand 12 in
    let rdata =
      NL.add_mem net ~name:"m0" ~size ~width:(1 + rand 32) ~raddr:(rexpr 2)
        ~wen:(rexpr 1) ~waddr:(rexpr 2) ~wdata:(rexpr 2)
        ?init:
          (if rand 2 = 0 then Some (Array.init size (fun _ -> rand 0x10000))
           else None)
        ()
    in
    pool := rdata :: !pool
  end;
  comb_layer "z" (2 + rand 6);
  List.iteri
    (fun i s ->
      let o = NL.output net ~name:(Printf.sprintf "out%d" i) ~width:s.NL.width in
      NL.assign net o (NL.Ref s))
    (List.filteri (fun i _ -> i < 1 + rand 3) !pool);
  (net, inputs)

(* Everything the DCE contract keeps observable must agree cycle by
   cycle: outputs, register states, memory read ports; and the memory
   arrays must match at the end. *)
let diff_run seed =
  let net, inputs = random_netlist seed in
  let rng = Soc_util.Rng.create (seed lxor 0x5bd1e995) in
  let sim = Sim.create net in
  let c = Csim.create net in
  let observed =
    net.NL.outputs
    @ List.map (fun (r : NL.reg) -> r.NL.q) net.NL.regs
    @ List.map (fun (m : NL.mem) -> m.NL.rdata) net.NL.mems
  in
  for cyc = 1 to 15 do
    List.iter
      (fun i ->
        let v = Soc_util.Rng.int rng 0x40000000 in
        Sim.set_input sim i v;
        Csim.set_input c i v)
      inputs;
    Sim.settle sim;
    Csim.settle c;
    List.iter
      (fun s ->
        if Sim.value sim s <> Csim.value c s then
          Alcotest.failf "seed %d cycle %d: %s interp=%d compiled=%d" seed cyc
            s.NL.sname (Sim.value sim s) (Csim.value c s))
      observed;
    Sim.tick sim;
    Csim.tick c
  done;
  List.iter
    (fun (m : NL.mem) ->
      let a = Option.get (Sim.mem_contents sim m.NL.mem_name) in
      let b = Option.get (Csim.mem_contents c m.NL.mem_name) in
      if a <> b then Alcotest.failf "seed %d: memory %s diverged" seed m.NL.mem_name)
    net.NL.mems;
  true

let test_differential_random =
  QCheck.Test.make ~count:60 ~name:"compiled = interpreted on random netlists"
    QCheck.(make Gen.(0 -- 100_000))
    diff_run

(* ------------------------------------------------------------------ *)
(* Quiet memo: held inputs make settle and tick no-ops, exactly         *)
(* ------------------------------------------------------------------ *)

(* Inputs are held for random stretches of 1-50 cycles and re-driven with
   the same values every cycle, as a stepping accelerator does; one cycle
   in eight ticks without a settle, so the memo is also invalidated the
   hard way. After every settle and every tick, the compiled engine (on
   the DCE-observable signals) and a compiled instance that observes every
   signal must match the interpreter on each signal, each memory and the
   cycle count. Returns the number of ticks the memo skipped. *)
let quiet_lockstep_run seed =
  let net, inputs = random_netlist seed in
  let rng = Soc_util.Rng.create (seed lxor 0x61c88647) in
  let rand n = Soc_util.Rng.int rng n in
  let sim = Sim.create net in
  let eng = Engine.create ~backend:Engine.Compiled net in
  if Engine.backend_of eng <> Engine.Compiled then
    Alcotest.failf "seed %d: compiled backend fell back" seed;
  let full = Csim.create ~observe:net.NL.signals net in
  let kept =
    net.NL.inputs @ net.NL.outputs
    @ List.map (fun (r : NL.reg) -> r.NL.q) net.NL.regs
    @ List.map (fun (m : NL.mem) -> m.NL.rdata) net.NL.mems
  in
  let agree cyc phase =
    let fail what s want got =
      Alcotest.failf "seed %d cycle %d after %s: %s %s interp=%d compiled=%d" seed cyc phase
        what s.NL.sname want got
    in
    List.iter
      (fun s ->
        let want = Sim.value sim s in
        if Csim.value full s <> want then fail "signal" s want (Csim.value full s))
      net.NL.signals;
    List.iter
      (fun s ->
        let want = Sim.value sim s in
        if Engine.value eng s <> want then fail "engine signal" s want (Engine.value eng s))
      kept;
    List.iter
      (fun (m : NL.mem) ->
        let want = Sim.mem_contents sim m.NL.mem_name in
        if Engine.mem_contents eng m.NL.mem_name <> want
           || Csim.mem_contents full m.NL.mem_name <> want
        then Alcotest.failf "seed %d cycle %d after %s: memory %s diverged" seed cyc phase
            m.NL.mem_name)
      net.NL.mems;
    if Engine.cycle eng <> Sim.cycle sim || Csim.cycle full <> Sim.cycle sim then
      Alcotest.failf "seed %d cycle %d after %s: cycle interp=%d engine=%d" seed cyc phase
        (Sim.cycle sim) (Engine.cycle eng)
  in
  let held = Array.make (List.length inputs) 0 in
  let hold = ref 0 in
  let skipped = ref 0 in
  for cyc = 1 to 150 do
    if !hold = 0 then begin
      hold := 1 + rand 50;
      Array.iteri (fun i _ -> held.(i) <- rand 0x40000000) held
    end;
    decr hold;
    List.iteri
      (fun i s ->
        Sim.set_input sim s held.(i);
        Engine.set_input eng s held.(i);
        Csim.set_input full s held.(i))
      inputs;
    if rand 8 <> 0 then begin
      Sim.settle sim;
      Engine.settle eng;
      Csim.settle full;
      agree cyc "settle"
    end;
    if Engine.quiet eng then incr skipped;
    Sim.tick sim;
    Engine.tick eng;
    Csim.tick full;
    agree cyc "tick"
  done;
  !skipped

let test_quiet_lockstep_random =
  QCheck.Test.make ~count:60 ~name:"quiet memo = interpreted, inputs held 1-50 cycles"
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed -> quiet_lockstep_run seed >= 0)

(* The property above is vacuous if the memo never fires: over a fixed
   seed range, some ticks must be skipped, and the interpreter never is. *)
let test_quiet_memo_fires () =
  let skipped = ref 0 in
  for seed = 0 to 39 do
    skipped := !skipped + quiet_lockstep_run seed
  done;
  check Alcotest.bool "some ticks skipped" true (!skipped > 0);
  let net, _ = random_netlist 0 in
  let interp = Engine.create ~backend:Engine.Interp net in
  Engine.settle interp;
  Engine.tick interp;
  Engine.settle interp;
  Engine.tick interp;
  check Alcotest.bool "interpreter never quiet" false (Engine.quiet interp)

(* ------------------------------------------------------------------ *)
(* Optimizer: folds, specializes and sweeps without changing meaning   *)
(* ------------------------------------------------------------------ *)

let test_optimizer_folds_and_dce () =
  let net = NL.create "opt" in
  let x = NL.input net ~name:"x" ~width:32 in
  (* Constant subgraph: (3 + 4) * 2 folds to 14 at lowering time. *)
  let k = NL.fresh net ~name:"k" ~width:32 in
  NL.assign net k
    (NL.Bin
       ( Soc_kernel.Ast.Mul,
         NL.Bin (Soc_kernel.Ast.Add, NL.Const (3, 32), NL.Const (4, 32)),
         NL.Const (2, 32) ));
  (* Two structurally identical subexpressions: CSE shares them. *)
  let shared () = NL.Bin (Soc_kernel.Ast.Mul, NL.Ref x, NL.Ref x) in
  let a = NL.fresh net ~name:"a" ~width:32 in
  NL.assign net a (NL.Bin (Soc_kernel.Ast.Add, shared (), NL.Ref k));
  let b = NL.fresh net ~name:"b" ~width:32 in
  NL.assign net b (NL.Bin (Soc_kernel.Ast.Sub, shared (), NL.Ref k));
  (* A mux with a constant selector specializes to one arm. *)
  let m = NL.fresh net ~name:"m" ~width:32 in
  NL.assign net m (NL.Mux (NL.Const (1, 1), NL.Ref a, NL.Ref b));
  (* Dead logic: never reaches an output or state element. *)
  let dead = NL.fresh net ~name:"dead" ~width:32 in
  NL.assign net dead (NL.Bin (Soc_kernel.Ast.Mul, NL.Ref x, NL.Const (99, 32)));
  let o = NL.output net ~name:"o" ~width:32 in
  NL.assign net o (NL.Ref m);
  let c = Csim.create net in
  let st = Csim.stats c in
  check Alcotest.bool "constants folded" true (st.Tape.folded > 0);
  check Alcotest.bool "mux specialized" true (st.Tape.mux_selected > 0);
  check Alcotest.bool "CSE fired" true (st.Tape.cse_hits > 0);
  check Alcotest.bool "dead code removed" true (st.Tape.dce_removed > 0);
  check Alcotest.bool "tape shrank" true (st.Tape.final < st.Tape.lowered);
  (* And the optimized tape still agrees with the oracle. *)
  let sim = Sim.create net in
  List.iter
    (fun v ->
      Sim.set_input sim x v;
      Csim.set_input c x v;
      Sim.settle sim;
      Csim.settle c;
      check Alcotest.int (Printf.sprintf "o(x=%d)" v) (Sim.value sim o)
        (Csim.value c o))
    [ 0; 1; 7; 0xFFFFFFFF; 123456 ]

(* ------------------------------------------------------------------ *)
(* Executor safety checks                                              *)
(* ------------------------------------------------------------------ *)

let test_tape_mismatch_detected () =
  let net_a, _ = random_netlist 44 in
  let net_b = NL.create "other" in
  let x = NL.input net_b ~name:"x" ~width:8 in
  let o = NL.output net_b ~name:"o" ~width:8 in
  NL.assign net_b o (NL.Ref x);
  let tape_a = Opt.run (Tape.lower net_a) in
  match Csim.of_tape tape_a net_b with
  | exception Csim.Tape_mismatch _ -> ()
  | _ -> Alcotest.fail "expected Tape_mismatch on a foreign tape"

(* ------------------------------------------------------------------ *)
(* Engine dispatch and the program table                               *)
(* ------------------------------------------------------------------ *)

let test_engine_backend_dispatch () =
  let net, inputs = random_netlist 7 in
  let a = Engine.create ~backend:Engine.Interp net in
  let b = Engine.create ~backend:Engine.Compiled net in
  check Alcotest.bool "interp tag" true (Engine.backend_of a = Engine.Interp);
  check Alcotest.bool "compiled tag" true (Engine.backend_of b = Engine.Compiled);
  check Alcotest.bool "stats only on compiled" true
    (Engine.stats a = None && Engine.stats b <> None);
  List.iter
    (fun i ->
      Engine.set_input a i 3;
      Engine.set_input b i 3)
    inputs;
  Engine.settle a;
  Engine.settle b;
  List.iter
    (fun o -> check Alcotest.int o.NL.sname (Engine.value a o) (Engine.value b o))
    net.NL.outputs

(* The program table is the only store of compiled simulators: K
   instantiations of one netlist lower it once. A lowering fault armed
   after that first lowering never fires, because nothing is lowered,
   until the table is cleared and the netlist must be lowered again. *)
let test_engine_lowers_once () =
  let module F = Soc_fault.Fault.Service in
  F.reset ();
  Engine.clear_degraded ();
  Csim.clear_programs ();
  Fun.protect
    ~finally:(fun () ->
      F.reset ();
      Engine.clear_degraded ())
    (fun () ->
      let net, _ = random_netlist 11 in
      let l0 = Engine.lowering_count () in
      let es = List.init 5 (fun _ -> Engine.create ~backend:Engine.Compiled net) in
      check Alcotest.bool "every instance compiled" true
        (List.for_all (fun e -> Engine.backend_of e = Engine.Compiled) es);
      check Alcotest.int "five instantiations, one lowering" (l0 + 1) (Engine.lowering_count ());
      F.arm F.Csim ~times:1 (F.Raise "lowering dies");
      let fb0 = Engine.fallback_count () in
      let e = Engine.create ~backend:Engine.Compiled net in
      check Alcotest.bool "a table hit stays compiled" true (Engine.backend_of e = Engine.Compiled);
      check Alcotest.int "the armed fault did not fire" 0 (F.hits F.Csim);
      check Alcotest.int "still one lowering" (l0 + 1) (Engine.lowering_count ());
      Csim.clear_programs ();
      let e' = Engine.create ~backend:Engine.Compiled net in
      check Alcotest.int "cleared table: the fault fires" 1 (F.hits F.Csim);
      check Alcotest.bool "and the instance falls back" true (Engine.backend_of e' = Engine.Interp);
      check Alcotest.int "fallback counted" (fb0 + 1) (Engine.fallback_count ()))

(* A lowering failure must never fail the caller: the engine falls back
   to the interpreter, counts it, and remembers the bad key so repeat
   instantiations skip straight past the broken compile. *)
let test_engine_degradation_ladder () =
  let module F = Soc_fault.Fault.Service in
  F.reset ();
  Engine.clear_degraded ();
  Csim.clear_programs ();
  Fun.protect
    ~finally:(fun () ->
      F.reset ();
      Engine.clear_degraded ())
    (fun () ->
      let net, inputs = random_netlist 21 in
      let fb0 = Engine.fallback_count () in
      F.arm F.Csim ~times:1 (F.Raise "lowering dies");
      let e = Engine.create ~backend:Engine.Compiled net in
      check Alcotest.bool "fell back to the interpreter" true
        (Engine.backend_of e = Engine.Interp);
      check Alcotest.int "fallback counted" (fb0 + 1) (Engine.fallback_count ());
      check Alcotest.int "bad key remembered" 1 (Engine.degraded_key_count ());
      (* The degraded engine still simulates. *)
      List.iter (fun i -> Engine.set_input e i 1) inputs;
      Engine.settle e;
      (* The sticky key goes straight to the interpreter — the lowering
         is never re-attempted. *)
      let l0 = Engine.lowering_count () in
      let e2 = Engine.create ~backend:Engine.Compiled net in
      check Alcotest.bool "sticky: interpreter without a retry" true
        (Engine.backend_of e2 = Engine.Interp);
      check Alcotest.int "no lowering re-attempted" l0 (Engine.lowering_count ());
      check Alcotest.int "sticky fallback counted too" (fb0 + 2) (Engine.fallback_count ());
      (* Degradation is a memory, not a death sentence: cleared, the same
         netlist compiles again. *)
      Engine.clear_degraded ();
      let e3 = Engine.create ~backend:Engine.Compiled net in
      check Alcotest.bool "recovered to the compiled backend" true
        (Engine.backend_of e3 = Engine.Compiled);
      check Alcotest.int "by one real lowering" (l0 + 1) (Engine.lowering_count ()))

(* ------------------------------------------------------------------ *)
(* Shared programs: one build per netlist, independent instances       *)
(* ------------------------------------------------------------------ *)

(* Two compiled instances of one netlist share its program (built once)
   and nothing mutable: each runs in lockstep with its own interpreter on
   its own inputs, through a mid-run reset of one of them. *)
let shared_program_run seed =
  let net, inputs = random_netlist seed in
  Csim.clear_programs ();
  let b0 = Csim.program_builds () in
  let ea = Engine.create ~backend:Engine.Compiled net in
  let eb = Engine.create ~backend:Engine.Compiled net in
  if Engine.backend_of ea <> Engine.Compiled || Engine.backend_of eb <> Engine.Compiled then
    Alcotest.failf "seed %d: compiled backend fell back" seed;
  if Csim.program_builds () - b0 <> 1 then
    Alcotest.failf "seed %d: %d program builds for one netlist" seed (Csim.program_builds () - b0);
  let sa = Sim.create net and sb = Sim.create net in
  let rng = Soc_util.Rng.create (seed lxor 0x2545f491) in
  let observed =
    net.NL.outputs
    @ List.map (fun (r : NL.reg) -> r.NL.q) net.NL.regs
    @ List.map (fun (m : NL.mem) -> m.NL.rdata) net.NL.mems
  in
  let agree tag cyc e sim =
    List.iter
      (fun s ->
        if Engine.value e s <> Sim.value sim s then
          Alcotest.failf "seed %d cycle %d instance %s: %s interp=%d compiled=%d" seed cyc tag
            s.NL.sname (Sim.value sim s) (Engine.value e s))
      observed;
    List.iter
      (fun (m : NL.mem) ->
        if Engine.mem_contents e m.NL.mem_name <> Sim.mem_contents sim m.NL.mem_name then
          Alcotest.failf "seed %d cycle %d instance %s: memory %s diverged" seed cyc tag
            m.NL.mem_name)
      net.NL.mems;
    if Engine.cycle e <> Sim.cycle sim then
      Alcotest.failf "seed %d instance %s: cycle count diverged" seed tag
  in
  for cyc = 1 to 24 do
    if cyc = 12 then begin
      Engine.reset ea;
      Sim.reset sa;
      agree "a (reset)" cyc ea sa
    end;
    List.iter
      (fun i ->
        let v = Soc_util.Rng.int rng 0x40000000 and w = Soc_util.Rng.int rng 0x40000000 in
        Engine.set_input ea i v;
        Sim.set_input sa i v;
        Engine.set_input eb i w;
        Sim.set_input sb i w)
      inputs;
    List.iter Engine.settle [ ea; eb ];
    List.iter Sim.settle [ sa; sb ];
    agree "a" cyc ea sa;
    agree "b" cyc eb sb;
    List.iter Engine.tick [ ea; eb ];
    List.iter Sim.tick [ sa; sb ]
  done;
  agree "a" 25 ea sa;
  agree "b" 25 eb sb;
  true

let test_shared_program_instances_independent =
  QCheck.Test.make ~count:40 ~name:"instances sharing a program stay independent"
    QCheck.(make Gen.(0 -- 100_000))
    shared_program_run

(* A program is reused only for a structurally equal tape: observing an
   otherwise dead signal lowers another tape, hence another program. *)
let test_program_reuse_needs_equal_tape () =
  let net = NL.create "observe" in
  let x = NL.input net ~name:"x" ~width:32 in
  let dead = NL.fresh net ~name:"dead" ~width:32 in
  NL.assign net dead (NL.Bin (Soc_kernel.Ast.Mul, NL.Ref x, NL.Const (99, 32)));
  let o = NL.output net ~name:"o" ~width:32 in
  NL.assign net o (NL.Ref x);
  Csim.clear_programs ();
  let b0 = Csim.program_builds () in
  let plain = Csim.create net in
  ignore (Csim.create net);
  check Alcotest.int "equal tapes share one program" (b0 + 1) (Csim.program_builds ());
  let seen = Csim.create ~observe:[ dead ] net in
  check Alcotest.int "another tape builds another program" (b0 + 2) (Csim.program_builds ());
  ignore (Csim.create net);
  check Alcotest.int "both stay in the table" (b0 + 2) (Csim.program_builds ());
  Csim.set_input plain x 3;
  Csim.set_input seen x 3;
  Csim.settle plain;
  Csim.settle seen;
  check Alcotest.int "observed signal computed" 297 (Csim.value seen dead);
  check Alcotest.int "output unaffected" 3 (Csim.value plain o)

(* ------------------------------------------------------------------ *)
(* VCD byte-identity on a real HLS netlist (Otsu grayScale)            *)
(* ------------------------------------------------------------------ *)

let test_vcd_byte_identical_on_otsu () =
  let width = 8 and height = 8 in
  (* Arch1's one hardware node: computeHistogram (BRAM + streams). *)
  let kernels = Soc_apps.Graphs.arch_kernels Soc_apps.Graphs.Arch1 ~width ~height in
  let _, k = List.hd kernels in
  let accel = Soc_hls.Engine.synthesize k in
  let fsmd = accel.Soc_hls.Engine.fsmd in
  let net = fsmd.Soc_hls.Fsmd.netlist in
  let sim = Sim.create net in
  let c = Csim.create net in
  let vcd_i = Soc_rtl.Vcd.create net sim in
  let vcd_c = Soc_rtl.Vcd.create_with net ~read:(Csim.value c) in
  let rng = Soc_util.Rng.create 99 in
  let _, xs = List.hd fsmd.Soc_hls.Fsmd.stream_in in
  let drive s v =
    Sim.set_input sim s v;
    Csim.set_input c s v
  in
  drive fsmd.Soc_hls.Fsmd.ap_start 1;
  for _ = 1 to 400 do
    drive xs.Soc_hls.Fsmd.in_tvalid 1;
    drive xs.Soc_hls.Fsmd.in_tdata (Soc_util.Rng.int rng 0x1000000);
    List.iter
      (fun (_, ys) -> drive ys.Soc_hls.Fsmd.out_tready 1)
      fsmd.Soc_hls.Fsmd.stream_out;
    Sim.settle sim;
    Csim.settle c;
    Soc_rtl.Vcd.sample vcd_i;
    Soc_rtl.Vcd.sample vcd_c;
    Sim.tick sim;
    Csim.tick c
  done;
  check Alcotest.bool "VCD byte-identical" true
    (Soc_rtl.Vcd.to_string vcd_i = Soc_rtl.Vcd.to_string vcd_c)

let suite =
  [
    Alcotest.test_case "topo: 50k-deep comb chain, both backends" `Quick
      test_deep_chain_stack_safe;
    Alcotest.test_case "topo: combinational cycle still detected" `Quick
      test_comb_cycle_still_detected;
    qtest test_differential_random;
    qtest test_quiet_lockstep_random;
    Alcotest.test_case "quiet memo fires on held inputs" `Quick test_quiet_memo_fires;
    Alcotest.test_case "optimizer folds, specializes, sweeps; meaning kept" `Quick
      test_optimizer_folds_and_dce;
    Alcotest.test_case "foreign tape rejected by executor" `Quick
      test_tape_mismatch_detected;
    Alcotest.test_case "engine dispatches both backends" `Quick
      test_engine_backend_dispatch;
    Alcotest.test_case "engine: K instantiations lower once" `Quick
      test_engine_lowers_once;
    Alcotest.test_case "engine degradation ladder: compiled -> interp" `Quick
      test_engine_degradation_ladder;
    qtest test_shared_program_instances_independent;
    Alcotest.test_case "program reuse needs a structurally equal tape" `Quick
      test_program_reuse_needs_equal_tape;
    Alcotest.test_case "VCD byte-identical across backends (Otsu)" `Quick
      test_vcd_byte_identical_on_otsu;
  ]
