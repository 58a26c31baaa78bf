(* Tests for the RTL-level static verifier: the netlist lint (RTL50x)
   and the tape translation validator (RTL51x) that runs after lowering
   and after every optimizer pass. *)

module NL = Soc_rtl.Netlist
module Sim = Soc_rtl.Sim
module Lint = Soc_rtl.Lint
module Reader = Soc_rtl.Netlist_reader
module Tape = Soc_rtl_compile.Tape
module Opt = Soc_rtl_compile.Opt
module Csim = Soc_rtl_compile.Csim
module Verify = Soc_rtl_compile.Verify
module Engine = Soc_rtl_compile.Engine
module Diag = Soc_util.Diag

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Netlist lint                                                        *)
(* ------------------------------------------------------------------ *)

(* The same shapes as the examples/broken corpus, via the .ntl reader —
   one stone for both the reader and the lint. *)
let test_lint_corpus_shapes () =
  let expect source code =
    let ds = Lint.check (Reader.parse source) in
    if not (List.mem code (codes ds)) then
      Alcotest.failf "expected %s, got [%s]" code (String.concat "; " (codes ds))
  in
  expect
    "module md\ninput a 8\ninput b 8\noutput y 8\nassign y (add a b)\nassign y (sub a b)\n"
    "RTL500";
  expect
    "module de\ninput d 8\noutput y 8\n\
     reg q 8 reset 0 enable (const 0 1) next (add d (const 1 8))\nassign y q\n"
    "RTL502";
  expect
    "module us\ninput go 1\noutput busy 1\n\
     reg state 2 reset 0 enable (const 1 1) next (mux go (const 1 2) state)\n\
     assign busy (eq state (const 2 2))\n"
    "RTL503";
  expect "module tr\noutput y 4\nassign y (const 300 4)\n" "RTL501";
  expect
    "module nw\ninput a 4\noutput y 8\n\
     mem m 16 8 rdata rd raddr (ref a) wen (const 0 1) waddr (ref a) wdata (const 0 8)\n\
     assign y rd\n"
    "RTL504";
  expect
    "module lp\noutput y 8\nwire a 8\nwire b 8\nassign a b\nassign b a\nassign y a\n"
    "RTL505"

let test_lint_hold_idiom_not_flagged () =
  (* enable = 0 with next = q is how the FSMD generator freezes a
     register after reset — RTL502 must not fire on it. *)
  let net = NL.create "hold" in
  let q =
    NL.register net ~reset_value:3 ~enable:NL.zero ~name:"q" ~width:8 (fun q ->
        NL.Ref q)
  in
  let o = NL.output net ~name:"y" ~width:8 in
  NL.assign net o (NL.Ref q);
  check (Alcotest.list Alcotest.string) "no findings" [] (codes (Lint.check net))

let test_lint_clean_on_generated () =
  let kernels = Soc_apps.Graphs.arch_kernels Soc_apps.Graphs.Arch1 ~width:8 ~height:8 in
  List.iter
    (fun (_, k) ->
      let accel = Soc_hls.Engine.synthesize k in
      let ds = Lint.check accel.Soc_hls.Engine.fsmd.netlist in
      if ds <> [] then
        Alcotest.failf "%s: generated netlist not lint-clean: %s"
          k.Soc_kernel.Ast.kname
          (String.concat "; " (List.map (fun d -> Diag.to_string d) ds)))
    kernels

let test_reader_rejects_garbage () =
  let reject s =
    match Reader.parse s with
    | exception Reader.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected Parse_error on %S" s
  in
  reject "";
  reject "wire x 8\n" (* no module *);
  reject "module m\nfrob x\n";
  reject "module m\nwire x\n" (* truncated statement *);
  reject "module m\nwire x 8\nassign x (add x\n";
  reject "module m\nwire x 8\nassign x (mumble x x)\n";
  reject "module m\nwire x 8\nwire x 8\n";
  (* Values Netlist's constructors would refuse with Invalid_argument, or
     (memory sizes) accept silently, are source errors with a line. *)
  let reject_at line s =
    match Reader.parse s with
    | exception Reader.Parse_error msg ->
      check Alcotest.bool (Printf.sprintf "line %d in %S" line msg) true
        (String.starts_with ~prefix:(Printf.sprintf "line %d: " line) msg)
    | _ -> Alcotest.failf "expected Parse_error on %S" s
  in
  reject_at 2 "module m\ninput a 88\noutput y 8\nassign y (add a a)\n";
  reject_at 2 "module m\ninput a 0\n";
  reject_at 2 "module m\nwire w -1\n";
  reject_at 2 "module m\nreg r 33 reset 0 enable (const 1 1) next r\n";
  reject_at 4 "module m\ninput a 8\noutput y 8\nassign y (add a (const 5 0))\n";
  reject_at 3 "module m\noutput y 8\nassign y (const 5 40)\n";
  let mem size width =
    Printf.sprintf
      "module m\ninput a 8\nmem q %s %s rdata r raddr a wen (const 0 1) waddr a wdata a\n"
      size width
  in
  reject_at 3 (mem "0" "8");
  reject_at 3 (mem "-4" "8");
  reject_at 3 (mem "4" "0");
  ignore (Reader.parse (mem "1" "32"))

(* The flow refuses to integrate a netlist the lint rejects. *)
let test_flow_lint_gate () =
  let net = NL.create "bad" in
  let a = NL.input net ~name:"a" ~width:8 in
  let y = NL.output net ~name:"y" ~width:8 in
  NL.assign net y (NL.Ref a);
  NL.assign net y (NL.Ref a);
  (match Soc_core.Flow.lint_impl_netlist ~name:"bad" net with
  | exception Soc_core.Flow.Build_error msg ->
    check Alcotest.bool "names the code" true (contains ~sub:"RTL500" msg)
  | () -> Alcotest.fail "expected Build_error from the lint gate");
  let ok = NL.create "ok" in
  let a = NL.input ok ~name:"a" ~width:8 in
  let y = NL.output ok ~name:"y" ~width:8 in
  NL.assign ok y (NL.Ref a);
  Soc_core.Flow.lint_impl_netlist ~name:"ok" ok

(* ------------------------------------------------------------------ *)
(* Tape translation validation                                         *)
(* ------------------------------------------------------------------ *)

let test_verify_clean_on_generated () =
  let kernels = Soc_apps.Graphs.arch_kernels Soc_apps.Graphs.Arch1 ~width:8 ~height:8 in
  List.iter
    (fun (_, k) ->
      let accel = Soc_hls.Engine.synthesize k in
      (* compile_tape re-checks after lowering and after every pass. *)
      ignore (Csim.compile_tape accel.Soc_hls.Engine.fsmd.netlist))
    kernels

(* Every optimizer pass preserves tape well-formedness on random
   netlists — the per-pass checkpoint is exactly the production hook. *)
let test_passes_preserve_verification =
  QCheck.Test.make ~count:40 ~name:"optimizer passes preserve tape verification"
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let net, _ = Test_csim.random_netlist seed in
      let tape = Tape.lower net in
      Verify.check ~stage:"lower" ~net tape;
      ignore (Opt.run ~checkpoint:(fun stage t -> Verify.check ~stage ~net t) tape);
      true)

(* Seeded structural mutations: every class [Verify.mutate] generates
   violates an invariant, so every mutation must be caught. *)
let test_mutations_caught =
  QCheck.Test.make ~count:60 ~name:"seeded tape mutations are caught"
    QCheck.(make Gen.(0 -- 10_000))
    (fun seed ->
      let net, _ = Test_csim.random_netlist (seed * 7 + 1) in
      let tape = Opt.run (Tape.lower net) in
      let mutated, desc = Verify.mutate ~seed tape in
      match Verify.check_result ~net mutated with
      | Error _ -> true
      | Ok () -> QCheck.Test.fail_reportf "mutation not caught: %s" desc)

(* The complement: a structurally valid edit the verifier deliberately
   does not reject (retargeting a copy's unread [b]/[c] operands at an
   arbitrary in-range slot — bounds are checked on every field, but
   def-before-use only on the fields the op reads) must also be
   semantically unobservable — the verifier's blind spot is exactly the
   set of edits that change nothing. *)
let test_benign_mutation_unobservable () =
  let net = NL.create "benign" in
  let x = NL.input net ~name:"x" ~width:16 in
  let y = NL.output net ~name:"y" ~width:16 in
  NL.assign net y (NL.Ref x);
  let tape = Opt.run (Tape.lower net) in
  let t' = Verify.copy_tape tape in
  let copies = ref 0 in
  Array.iteri
    (fun i (ins : Tape.instr) ->
      if ins.Tape.op = Tape.op_copy then begin
        incr copies;
        t'.Tape.settle.(i) <- { ins with b = t'.Tape.n_slots - 1; c = t'.Tape.n_slots - 1 }
      end)
    t'.Tape.settle;
  check Alcotest.bool "netlist has a copy to mutate" true (!copies > 0);
  (match Verify.check_result ~net t' with
  | Ok () -> ()
  | Error e -> Alcotest.failf "benign mutation rejected: %s" e.Verify.v_reason);
  let sim = Sim.create net in
  let c = Csim.of_tape t' net in
  List.iter
    (fun v ->
      Sim.set_input sim x v;
      Csim.set_input c x v;
      Sim.settle sim;
      Csim.settle c;
      check Alcotest.int (Printf.sprintf "y(x=%d)" v) (Sim.value sim y) (Csim.value c y))
    [ 0; 1; 0xFFFF; 1234 ]

(* ------------------------------------------------------------------ *)
(* Engine integration: the fault point                                 *)
(* ------------------------------------------------------------------ *)

(* The service fault point corrupts one lowered tape in-flight: the
   verifier rejects it at stage "lower" and the engine rides the
   degradation ladder down to the interpreter. *)
let test_fault_corrupt_tape_degrades () =
  let module F = Soc_fault.Fault.Service in
  F.reset ();
  Engine.clear_degraded ();
  Csim.clear_programs ();
  Fun.protect
    ~finally:(fun () ->
      F.reset ();
      Engine.clear_degraded ())
    (fun () ->
      let net, inputs = Test_csim.random_netlist 2718 in
      let fb0 = Engine.fallback_count () and vr0 = Engine.verify_reject_count () in
      F.arm_corrupt_tape ~times:1 ~seed:5 ();
      let e = Engine.create ~backend:Engine.Compiled net in
      check Alcotest.int "fault point consumed" 1 (F.corrupt_hits ());
      check Alcotest.bool "degraded to the interpreter" true
        (Engine.backend_of e = Engine.Interp);
      check Alcotest.int "fallback counted" (fb0 + 1) (Engine.fallback_count ());
      check Alcotest.int "rejection counted" (vr0 + 1) (Engine.verify_reject_count ());
      (match Engine.verify_diags () with
      | d :: _ ->
        check Alcotest.bool "RTL51x diag" true
          (String.length d.Diag.code = 6 && String.sub d.Diag.code 0 5 = "RTL51")
      | [] -> Alcotest.fail "expected a verify diagnostic");
      check Alcotest.bool "bad key remembered" true (Engine.degraded_key_count () >= 1);
      (* The interpreter serves the same netlist. *)
      List.iter (fun i -> Engine.set_input e i 1) inputs;
      Engine.settle e)

let suite =
  [
    Alcotest.test_case "lint: corpus shapes detected via the .ntl reader" `Quick
      test_lint_corpus_shapes;
    Alcotest.test_case "lint: const-register hold idiom not flagged" `Quick
      test_lint_hold_idiom_not_flagged;
    Alcotest.test_case "lint: generated FSMD netlists are clean" `Quick
      test_lint_clean_on_generated;
    Alcotest.test_case "reader: rejects malformed .ntl sources" `Quick
      test_reader_rejects_garbage;
    Alcotest.test_case "flow: lint gate refuses an RTL500 netlist" `Quick
      test_flow_lint_gate;
    Alcotest.test_case "verify: clean after lowering and every pass (generated)" `Quick
      test_verify_clean_on_generated;
    qtest test_passes_preserve_verification;
    qtest test_mutations_caught;
    Alcotest.test_case "verify: benign mutation passes and is unobservable" `Quick
      test_benign_mutation_unobservable;
    Alcotest.test_case "engine: corrupt-tape fault degrades to interpreter" `Quick
      test_fault_corrupt_tape_degrades;
  ]
