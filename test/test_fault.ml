(* Tests for the fault-injection subsystem and the fault-tolerant runtime:
   plan determinism, per-fault recovery behaviour (watchdog, soft reset,
   retry, software fallback), structured failure reports, and the two
   acceptance properties — recoverable campaigns leave the Otsu output
   bit-identical to golden, and a disarmed injector leaves the timeline
   untouched. *)

module P = Soc_platform
module Exec = Soc_platform.Executive
module Fault = Soc_fault.Fault
module Chaos = Soc_apps.Chaos_runner
module Graphs = Soc_apps.Graphs
module Counters = Soc_util.Metrics.Counters

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

let inv : Fault.inventory =
  {
    Fault.accels = [ "A"; "B" ];
    mm2s = [ "m0" ];
    s2mm = [ "s0" ];
    fifos = [ "f0"; "f1" ];
    slaves = [ "A"; "B" ];
    dram_range = Some (0x100, 64);
  }

let test_campaign_deterministic () =
  let c1 = Fault.random_campaign ~seed:11 ~n:20 ~horizon:10_000 inv in
  let c2 = Fault.random_campaign ~seed:11 ~n:20 ~horizon:10_000 inv in
  let c3 = Fault.random_campaign ~seed:12 ~n:20 ~horizon:10_000 inv in
  check Alcotest.int "20 faults" 20 (List.length c1);
  check Alcotest.bool "same seed, same campaign" true (c1 = c2);
  check Alcotest.bool "different seed, different campaign" true (c1 <> c3);
  List.iter
    (fun (f : Fault.fault) ->
      check Alcotest.bool "cycle within horizon" true
        (f.Fault.at_cycle >= 0 && f.Fault.at_cycle < 10_000))
    c1

let test_campaign_default_excludes_flagged_kinds () =
  let c = Fault.random_campaign ~seed:3 ~n:200 ~horizon:5_000 inv in
  List.iter
    (fun (f : Fault.fault) ->
      (match f.Fault.kind with
      | Fault.Bit_flip _ -> Alcotest.fail "bit flip without opt-in"
      | Fault.Hang when f.Fault.duration = Fault.permanent ->
        Alcotest.fail "permanent hang without opt-in"
      | _ -> ()))
    c;
  let c = Fault.random_campaign ~seed:3 ~n:200 ~horizon:5_000 ~include_bit_flips:true inv in
  check Alcotest.bool "bit flips when opted in" true
    (List.exists
       (fun (f : Fault.fault) ->
         match f.Fault.kind with Fault.Bit_flip _ -> true | _ -> false)
       c)

let test_due_returns_each_fault_once () =
  let f at = { Fault.at_cycle = at; target = Fault.Accel "A"; kind = Fault.Hang; duration = 1 } in
  let plan = Fault.plan_of_faults [ f 30; f 10; f 20 ] in
  check Alcotest.int "sorted" 10 (List.hd (Fault.faults plan)).Fault.at_cycle;
  check Alcotest.int "none due early" 0 (List.length (Fault.due plan ~cycle:5));
  check Alcotest.int "two due" 2 (List.length (Fault.due plan ~cycle:20));
  check Alcotest.int "not re-delivered" 0 (List.length (Fault.due plan ~cycle:20));
  check Alcotest.int "last one" 1 (List.length (Fault.due plan ~cycle:1000))

(* ------------------------------------------------------------------ *)
(* Direct executive-level injection                                    *)
(* ------------------------------------------------------------------ *)

let test_bit_flip_lands_in_dram () =
  let sys = P.System.create ~dram_words:64 () in
  let exec = Exec.create sys in
  Soc_axi.Dram.write (Exec.dram exec) 5 0b1010;
  let plan =
    Fault.plan_of_faults
      [ { Fault.at_cycle = 0; target = Fault.Dram_word 5; kind = Fault.Bit_flip 0; duration = 0 } ]
  in
  Exec.set_fault_plan exec plan;
  ignore (Exec.step_fabric exec);
  check Alcotest.int "bit 0 flipped" 0b1011 (Soc_axi.Dram.read (Exec.dram exec) 5);
  check Alcotest.int "injected counted" 1 (Counters.get (Fault.counters plan) "injected")

let test_unknown_target_skipped () =
  let sys = P.System.create () in
  let exec = Exec.create sys in
  let plan =
    Fault.plan_of_faults
      [ { Fault.at_cycle = 0; target = Fault.Accel "ghost"; kind = Fault.Hang; duration = 9 } ]
  in
  Exec.set_fault_plan exec plan;
  ignore (Exec.step_fabric exec);
  check Alcotest.int "nothing injected" 0 (Counters.get (Fault.counters plan) "injected");
  check Alcotest.int "skipped counted" 1 (Counters.get (Fault.counters plan) "skipped");
  match Fault.events plan with
  | [ Fault.Skipped { reason; _ } ] ->
    check Alcotest.string "reason" "no such accelerator" reason
  | _ -> Alcotest.fail "expected a single Skipped event"

let test_slverr_recovery_via_retry () =
  let sys = P.System.create () in
  ignore (P.System.add_accel sys ~name:"ADD" (Soc_hls.Engine.synthesize Soc_apps.Filters.add_kernel).Soc_hls.Engine.fsmd);
  let exec = Exec.create sys in
  (* Two SLVERRs to burn: attempt 1 and attempt 2 each die on a bus access,
     attempt 3 runs clean. *)
  let plan =
    Fault.plan_of_faults
      [ { Fault.at_cycle = 0; target = Fault.Lite_slave "ADD"; kind = Fault.Slave_error; duration = 2 } ]
  in
  Exec.set_fault_plan exec plan;
  (* Land the fault before the task starts. *)
  ignore (Exec.step_fabric exec);
  let report =
    Exec.run_task_resilient exec ~task:"add-call" ~timeout:50_000
      (fun () ->
        Exec.set_arg exec ~accel:"ADD" ~port:"A" 40;
        Exec.set_arg exec ~accel:"ADD" ~port:"B" 2;
        Exec.start_accel exec "ADD";
        Exec.wait_accel exec "ADD")
  in
  check Alcotest.int "third attempt succeeds" 3 report.Exec.attempts_made;
  check Alcotest.bool "hardware outcome" true (report.Exec.outcome = Exec.Hardware);
  List.iter
    (fun (f : Exec.failure) ->
      check Alcotest.bool "cause names SLVERR" true
        (String.length f.Exec.cause > 0
        && List.exists
             (fun i -> i + 6 <= String.length f.Exec.cause && String.sub f.Exec.cause i 6 = "SLVERR")
             (List.init (String.length f.Exec.cause) Fun.id)))
    report.Exec.failures;
  check Alcotest.int "result survives recovery" 42
    (Exec.get_arg exec ~accel:"ADD" ~port:"return_");
  check Alcotest.int "recovered counted" 1 (Counters.get (Fault.counters plan) "recovered")

(* ------------------------------------------------------------------ *)
(* Chaos harness: per-fault recovery behaviour on the case study        *)
(* ------------------------------------------------------------------ *)

let mm2s_arch1 = "dma_mm2s->computeHistogram.grayScaleImage"

let test_transient_hang_self_heals () =
  let scenario =
    [ { Fault.at_cycle = 100; target = Fault.Accel "computeHistogram"; kind = Fault.Hang; duration = 300 } ]
  in
  let o = Chaos.run ~width:16 ~height:16 ~seed:1 ~scenario Graphs.Arch1 in
  check Alcotest.int "one attempt" 1 o.Chaos.report.Exec.attempts_made;
  check Alcotest.bool "hardware outcome" true (o.Chaos.report.Exec.outcome = Exec.Hardware);
  check Alcotest.bool "output golden" true o.Chaos.output_ok;
  check Alcotest.int "injected" 1 (Counters.get (Fault.counters o.Chaos.plan) "injected");
  check Alcotest.int "no detections" 0 (Counters.get (Fault.counters o.Chaos.plan) "detected")

let test_permanent_hang_falls_back () =
  let scenario =
    [ { Fault.at_cycle = 100; target = Fault.Accel "computeHistogram"; kind = Fault.Hang;
        duration = Fault.permanent } ]
  in
  let o = Chaos.run ~width:16 ~height:16 ~seed:1 ~scenario ~timeout:5_000 Graphs.Arch1 in
  check Alcotest.int "all attempts burned" 3 o.Chaos.report.Exec.attempts_made;
  check Alcotest.bool "fallback outcome" true (o.Chaos.report.Exec.outcome = Exec.Fallback);
  check Alcotest.bool "output still golden" true o.Chaos.output_ok;
  let c = Fault.counters o.Chaos.plan in
  check Alcotest.int "detected" 3 (Counters.get c "detected");
  check Alcotest.int "resets" 3 (Counters.get c "resets");
  check Alcotest.int "retried" 2 (Counters.get c "retried");
  check Alcotest.int "fell back" 1 (Counters.get c "fell_back");
  check Alcotest.int "not unrecovered" 0 (Counters.get c "unrecovered");
  (* The narrative starts with the injection. *)
  match Fault.events o.Chaos.plan with
  | Fault.Injected _ :: _ -> ()
  | _ -> Alcotest.fail "expected the injection to open the event log"

let test_unrecoverable_without_fallback () =
  let hang =
    { Fault.at_cycle = 100; target = Fault.Accel "computeHistogram"; kind = Fault.Hang;
      duration = Fault.permanent }
  in
  match
    Chaos.run ~width:16 ~height:16 ~seed:1 ~scenario:[ hang ] ~timeout:5_000
      ~fallback:false Graphs.Arch1
  with
  | _ -> Alcotest.fail "expected Unrecoverable"
  | exception Exec.Unrecoverable { task; failures; injected; _ } ->
    check Alcotest.string "task named" "computeHistogram" task;
    check Alcotest.int "attempt history complete" 3 (List.length failures);
    List.iteri
      (fun i (f : Exec.failure) ->
        check Alcotest.int "attempts numbered" (i + 1) f.Exec.attempt)
      failures;
    check Alcotest.bool "injected fault reported" true
      (List.exists (fun (f : Fault.fault) -> f.Fault.kind = Fault.Hang) injected)

let test_dma_error_detected_and_retried () =
  let scenario =
    [ { Fault.at_cycle = 60; target = Fault.Mm2s mm2s_arch1; kind = Fault.Dma_error; duration = 0 } ]
  in
  let o = Chaos.run ~width:16 ~height:16 ~seed:1 ~scenario ~timeout:8_000 Graphs.Arch1 in
  check Alcotest.bool "needed a retry" true (o.Chaos.report.Exec.attempts_made >= 2);
  check Alcotest.bool "hardware outcome" true (o.Chaos.report.Exec.outcome = Exec.Hardware);
  check Alcotest.bool "output golden" true o.Chaos.output_ok;
  check Alcotest.int "recovered counted" 1
    (Counters.get (Fault.counters o.Chaos.plan) "recovered")

let test_spurious_done_caught () =
  let scenario =
    [ { Fault.at_cycle = 40; target = Fault.Accel "computeHistogram";
        kind = Fault.Spurious_done; duration = Fault.permanent } ]
  in
  let o = Chaos.run ~width:16 ~height:16 ~seed:1 ~scenario ~timeout:5_000 Graphs.Arch1 in
  (* A permanently lying core cannot complete in hardware: the runtime must
     degrade gracefully and the output must stay golden. *)
  check Alcotest.bool "fallback outcome" true (o.Chaos.report.Exec.outcome = Exec.Fallback);
  check Alcotest.bool "output golden" true o.Chaos.output_ok

let test_fifo_stuck_delays_only () =
  let clean = Chaos.run ~width:16 ~height:16 ~seed:1 ~scenario:[] Graphs.Arch1 in
  (* Long enough that the producer stall cannot hide in pipeline slack. *)
  let scenario =
    [ { Fault.at_cycle = 20; target = Fault.Fifo mm2s_arch1; kind = Fault.Fifo_stuck; duration = 5_000 } ]
  in
  let o = Chaos.run ~width:16 ~height:16 ~seed:1 ~scenario Graphs.Arch1 in
  check Alcotest.int "one attempt" 1 o.Chaos.report.Exec.attempts_made;
  check Alcotest.bool "output golden" true o.Chaos.output_ok;
  check Alcotest.bool "backpressure cost cycles" true (o.Chaos.cycles > clean.Chaos.cycles)

(* ------------------------------------------------------------------ *)
(* Acceptance properties                                               *)
(* ------------------------------------------------------------------ *)

let test_zero_overhead_when_off () =
  List.iter
    (fun arch ->
      let plain = Soc_apps.Otsu_runner.run_arch ~width:16 ~height:16 arch in
      let chaos = Chaos.run ~width:16 ~height:16 ~seed:1 ~scenario:[] arch in
      check Alcotest.int
        ("timeline unchanged under disarmed injector: " ^ Graphs.arch_name arch)
        plain.Soc_apps.Otsu_runner.cycles chaos.Chaos.cycles;
      check Alcotest.bool "golden" true chaos.Chaos.output_ok)
    Graphs.all_archs

let prop_recoverable_campaigns_end_golden =
  QCheck.Test.make ~name:"chaos: seeded recoverable campaigns end bit-identical" ~count:6
    QCheck.(int_bound 10_000)
    (fun seed ->
      let arch = List.nth Graphs.all_archs (seed mod 4) in
      let o =
        Chaos.run ~width:16 ~height:16 ~seed ~n_faults:3 ~horizon:4_000 ~timeout:30_000
          arch
      in
      o.Chaos.output_ok)

(* ------------------------------------------------------------------ *)
(* Quiescent-fabric fast-forward: pinned to the interpreter oracle     *)
(* ------------------------------------------------------------------ *)

module Engine = Soc_rtl_compile.Engine
module Runner = Soc_apps.Otsu_runner

let with_backend b f =
  let saved = Engine.default_backend () in
  Engine.set_default_backend b;
  Fun.protect ~finally:(fun () -> Engine.set_default_backend saved) f

(* Everything a co-simulation run can be observed by, except the count of
   fast-forwarded cycles. *)
type observed = {
  timeline : int * int * int * int; (* total, gpp_compute, bus, hw *)
  events : Fault.event list;
  violations : Soc_axi.Stream_rules.violation list;
  fifos : string list;
  output : int array * int;
  result : (Exec.report, string) result;
}

let timeline_of exec =
  let tl = exec.Exec.timeline in
  (tl.Exec.total, tl.Exec.gpp_compute, tl.Exec.bus, tl.Exec.hw)

let observe (h : Runner.host) plan result =
  let exec = h.Runner.exec in
  ( {
      timeline = timeline_of exec;
      events = Fault.events plan;
      violations = P.System.protocol_violations exec.Exec.sys;
      fifos = P.System.fifo_stats exec.Exec.sys;
      output = ((Runner.read_output h).Soc_apps.Image.pixels, Runner.read_threshold h);
      result;
    },
    exec.Exec.timeline.Exec.skipped )

let boot_arch ~width ~height arch =
  let _, live = Runner.build_arch ~width ~height arch in
  Runner.boot ~width ~height (Some live)

(* The whole host program of [arch] with a seeded campaign (permanent
   faults on odd seeds) armed around its hardware phase, as the chaos
   harness runs it. *)
let campaign_run backend ~seed arch =
  with_backend backend (fun () ->
      let h = boot_arch ~width:12 ~height:12 arch in
      let exec = h.Runner.exec in
      let ph = Runner.phases h in
      ph.Runner.pre ();
      let plan =
        Fault.plan_of_faults ~seed
          (Fault.random_campaign ~seed ~n:4 ~horizon:3_000 ~include_permanent:(seed mod 2 = 1)
             (Exec.inventory exec))
      in
      Exec.set_fault_plan exec plan;
      let result =
        match
          Exec.run_task_resilient exec ~task:ph.Runner.task ~timeout:6_000
            ~fallback:ph.Runner.sw_fallback ph.Runner.hw
        with
        | r -> Ok r
        | exception Exec.Unrecoverable { cycle; _ } -> Error (Printf.sprintf "unrecoverable @%d" cycle)
      in
      Exec.clear_fault_plan exec;
      ph.Runner.post ();
      observe h plan result)

let test_fast_forward_matches_oracle () =
  List.iter
    (fun arch ->
      List.iter
        (fun seed ->
          let name = Printf.sprintf "%s seed %d" (Graphs.arch_name arch) seed in
          let oracle, oracle_skipped = campaign_run Engine.Interp ~seed arch in
          let fast, skipped = campaign_run Engine.Compiled ~seed arch in
          check Alcotest.bool (name ^ ": timeline") true (fast.timeline = oracle.timeline);
          check Alcotest.bool (name ^ ": fault log") true (fast.events = oracle.events);
          check Alcotest.bool (name ^ ": violations") true (fast.violations = oracle.violations);
          check (Alcotest.list Alcotest.string) (name ^ ": fifo stats") oracle.fifos fast.fifos;
          check Alcotest.bool (name ^ ": output") true (fast.output = oracle.output);
          check Alcotest.bool (name ^ ": report") true (fast.result = oracle.result);
          check Alcotest.int (name ^ ": interpreter never skips") 0 oracle_skipped;
          (* Arch1-3 run their first stage in software. *)
          if arch <> Graphs.Arch4 then
            check Alcotest.bool (name ^ ": software time skipped") true (skipped > 0))
        [ 7; 8 ])
    Graphs.all_archs

(* The software stage of Arch1, run twice: the first run leaves the fabric
   quiescent, and the plan is armed between them. The first fault is due
   one cycle after the first step of the second run, a quiescent step
   inside [advance_gpp]: the skip must stop short of it. A long DMA stall
   and then a short hang land on idle units, both ending inside the
   stage; neither may be skipped over, or the hardware phase that follows
   starts late. *)
let test_fault_caps_skip () =
  let run backend =
    with_backend backend (fun () ->
        let h = boot_arch ~width:12 ~height:12 Graphs.Arch1 in
        let exec = h.Runner.exec in
        let ph = Runner.phases h in
        ph.Runner.pre ();
        let armed_at = Exec.elapsed_cycles exec in
        let stage = armed_at (* the software stage, which started at cycle 0 *) in
        let fault at target kind duration = { Fault.at_cycle = at; target; kind; duration } in
        let plan =
          Fault.plan_of_faults
            [ fault 1 (Fault.Fifo mm2s_arch1) Fault.Fifo_stuck 3;
              fault 10 (Fault.Mm2s mm2s_arch1) Fault.Dma_stall (stage - 40);
              fault (stage - 25) (Fault.Accel "computeHistogram") Fault.Hang 20 ]
        in
        Exec.set_fault_plan exec plan;
        ph.Runner.pre ();
        ph.Runner.hw ();
        Exec.clear_fault_plan exec;
        (armed_at, observe h plan (Error "not run")))
  in
  let oracle_at, (oracle, _) = run Engine.Interp in
  let at, (fast, skipped) = run Engine.Compiled in
  check Alcotest.bool "fast path active" true (skipped > 0);
  check Alcotest.bool "timeline" true (fast.timeline = oracle.timeline);
  check Alcotest.bool "fault log" true (fast.events = oracle.events);
  check Alcotest.int "armed at the same cycle" oracle_at at;
  match fast.events with
  | Fault.Injected { cycle; _ } :: _ -> check Alcotest.int "first fault lands" (at + 1) cycle
  | _ -> Alcotest.fail "expected the first fault to be injected"

(* A watchdog deadline that falls inside a software stage's skip window:
   every attempt must expire on the deadline cycle itself. *)
let test_watchdog_caps_skip () =
  let timeout = 1_001 in
  let run backend =
    with_backend backend (fun () ->
        let h = boot_arch ~width:12 ~height:12 Graphs.Arch1 in
        let exec = h.Runner.exec in
        let ph = Runner.phases h in
        ph.Runner.pre ();
        let plan = Fault.plan_of_faults [] in
        Exec.set_fault_plan exec plan;
        let started = Exec.elapsed_cycles exec in
        let report =
          Exec.run_task_resilient exec ~task:"sw-stage" ~timeout ~fallback:ignore ph.Runner.pre
        in
        (started, observe h plan (Ok report)))
  in
  let oracle_start, (oracle, _) = run Engine.Interp in
  let start, (fast, skipped) = run Engine.Compiled in
  check Alcotest.bool "fast path active" true (skipped > 0);
  check Alcotest.bool "timeline" true (fast.timeline = oracle.timeline);
  check Alcotest.bool "fault log" true (fast.events = oracle.events);
  check Alcotest.bool "report" true (fast.result = oracle.result);
  check Alcotest.int "same start" oracle_start start;
  match fast.result with
  | Ok { Exec.failures = first :: _ :: _; outcome = Exec.Fallback; _ } ->
    check Alcotest.int "expires on the deadline" (start + timeout) first.Exec.at_cycle
  | _ -> Alcotest.fail "expected every attempt to expire, then the fallback"

let suite =
  [
    ("campaign deterministic in seed", `Quick, test_campaign_deterministic);
    ("campaign default is recoverable", `Quick, test_campaign_default_excludes_flagged_kinds);
    ("plan delivers each fault once", `Quick, test_due_returns_each_fault_once);
    ("bit flip lands in dram", `Quick, test_bit_flip_lands_in_dram);
    ("unknown target skipped", `Quick, test_unknown_target_skipped);
    ("slverr recovered via retry", `Quick, test_slverr_recovery_via_retry);
    ("transient hang self-heals", `Quick, test_transient_hang_self_heals);
    ("permanent hang falls back", `Quick, test_permanent_hang_falls_back);
    ("unrecoverable carries attempt history", `Quick, test_unrecoverable_without_fallback);
    ("dma error detected and retried", `Quick, test_dma_error_detected_and_retried);
    ("spurious done degrades gracefully", `Quick, test_spurious_done_caught);
    ("stuck fifo delays only", `Quick, test_fifo_stuck_delays_only);
    ("zero overhead when off", `Quick, test_zero_overhead_when_off);
    qtest prop_recoverable_campaigns_end_golden;
    ("fast-forward = interpreter under seeded campaigns", `Quick,
     test_fast_forward_matches_oracle);
    ("fast-forward stops at the next fault", `Quick, test_fault_caps_skip);
    ("fast-forward stops at the watchdog deadline", `Quick, test_watchdog_caps_skip);
  ]
