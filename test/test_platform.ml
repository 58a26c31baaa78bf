(* Tests for the platform co-simulation: GPP cost model, accelerator
   adapter (AXI-Lite control protocol), system composition, executive and
   driver API, deadlock detection. *)

open Soc_kernel.Ast.Build
module P = Soc_platform
module Exec = Soc_platform.Executive

let check = Alcotest.check

let adder = Soc_apps.Filters.add_kernel

let passthrough n =
  {
    Soc_kernel.Ast.kname = "pass";
    ports = [ in_stream "xin" Soc_kernel.Ty.U32; out_stream "xout" Soc_kernel.Ty.U32 ];
    locals = [ ("i", Soc_kernel.Ty.U32); ("x", Soc_kernel.Ty.U32) ];
    arrays = [];
    body =
      [ for_ "i" ~from:(int 0) ~below:(int n) [ pop "x" "xin"; push "xout" (v "x" +: int 1) ] ];
  }

let synth k = (Soc_hls.Engine.synthesize k).Soc_hls.Engine.fsmd

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let test_clock_conversion () =
  let c = P.Config.zedboard in
  (* 666.7 MHz GPP work shrinks when expressed in 100 MHz PL cycles. *)
  check Alcotest.bool "conversion shrinks" true (P.Config.gpp_to_pl_cycles c 1000.0 < 1000);
  check (Alcotest.float 0.001) "cycles to us" 1.0 (P.Config.pl_cycles_to_us c 100)

(* ------------------------------------------------------------------ *)
(* GPP model                                                           *)
(* ------------------------------------------------------------------ *)

let test_gpp_runs_kernel_over_dram () =
  let dram = Soc_axi.Dram.create ~words:1024 () in
  Soc_axi.Dram.write_block dram ~addr:0 [| 1; 2; 3; 4 |];
  let r =
    P.Gpp.run_task P.Config.zedboard dram (passthrough 4) ~scalars:[]
      ~stream_bufs_in:[ ("xin", (0, 4)) ]
      ~stream_bufs_out:[ ("xout", (16, 4)) ]
  in
  check (Alcotest.list Alcotest.int) "incremented in DRAM" [ 2; 3; 4; 5 ]
    (Array.to_list (Soc_axi.Dram.read_block dram ~addr:16 ~len:4));
  check Alcotest.bool "charged time" true (r.P.Gpp.pl_cycles > 0)

let test_gpp_buffer_overflow_detected () =
  let dram = Soc_axi.Dram.create ~words:1024 () in
  Soc_axi.Dram.write_block dram ~addr:0 [| 1; 2; 3; 4 |];
  match
    P.Gpp.run_task P.Config.zedboard dram (passthrough 4) ~scalars:[]
      ~stream_bufs_in:[ ("xin", (0, 4)) ]
      ~stream_bufs_out:[ ("xout", (16, 2)) ]
  with
  | exception P.Gpp.Software_fault _ -> ()
  | _ -> Alcotest.fail "expected software fault"

let test_gpp_cost_scales_with_work () =
  let dram = Soc_axi.Dram.create ~words:4096 () in
  let cost n =
    (P.Gpp.run_task P.Config.zedboard dram (passthrough n) ~scalars:[]
       ~stream_bufs_in:[ ("xin", (0, n)) ]
       ~stream_bufs_out:[ ("xout", (2048, n)) ])
      .P.Gpp.pl_cycles
  in
  check Alcotest.bool "10x data costs more" true (cost 100 > cost 10)

(* ------------------------------------------------------------------ *)
(* System + driver API                                                 *)
(* ------------------------------------------------------------------ *)

let lite_system () =
  let sys = P.System.create () in
  ignore (P.System.add_accel sys ~name:"ADD" (synth adder));
  (sys, Exec.create sys)

let test_lite_accelerator_call () =
  let _, exec = lite_system () in
  Exec.set_arg exec ~accel:"ADD" ~port:"A" 40;
  Exec.set_arg exec ~accel:"ADD" ~port:"B" 2;
  Exec.start_accel exec "ADD";
  Exec.wait_accel exec "ADD";
  check Alcotest.int "result" 42 (Exec.get_arg exec ~accel:"ADD" ~port:"return_");
  check Alcotest.bool "bus time charged" true (Exec.elapsed_cycles exec > 0)

let test_lite_accelerator_rerun () =
  let _, exec = lite_system () in
  let call a b =
    Exec.set_arg exec ~accel:"ADD" ~port:"A" a;
    Exec.set_arg exec ~accel:"ADD" ~port:"B" b;
    Exec.start_accel exec "ADD";
    Exec.wait_accel exec "ADD";
    Exec.get_arg exec ~accel:"ADD" ~port:"return_"
  in
  check Alcotest.int "first" 3 (call 1 2);
  check Alcotest.int "second" 300 (call 100 200)

let test_duplicate_accel_rejected () =
  let sys = P.System.create () in
  ignore (P.System.add_accel sys ~name:"X" (synth adder));
  match P.System.add_accel sys ~name:"X" (synth adder) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected duplicate rejection"

let diag_testable =
  Alcotest.testable Soc_util.Diag.pp (fun a b -> Soc_util.Diag.compare a b = 0)

let test_unbound_stream_reported () =
  let sys = P.System.create () in
  ignore (P.System.add_accel sys ~name:"P" (synth (passthrough 4)));
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "both ports unbound"
    [ ("SOC050", "P.in:xin"); ("SOC050", "P.out:xout") ]
    (List.sort compare
       (List.map
          (fun (d : Soc_util.Diag.t) -> (d.Soc_util.Diag.code, d.Soc_util.Diag.subject))
          (P.System.validate sys)))

let test_duplicate_dma_channel_reported () =
  let sys = P.System.create () in
  ignore (P.System.add_accel sys ~name:"P" (synth (passthrough 4)));
  let name, dma = P.System.add_mm2s sys ~dst:("P", "xin") in
  ignore (P.System.add_s2mm sys ~src:("P", "xout"));
  (* A buggy integration frontend registering the same channel twice. *)
  sys.P.System.mm2s <- (name, dma) :: sys.P.System.mm2s;
  check Alcotest.bool "duplicate flagged" true
    (List.exists
       (fun (d : Soc_util.Diag.t) ->
         d.Soc_util.Diag.code = "SOC051"
         && d.Soc_util.Diag.subject = "dma_mm2s->P.xin")
       (P.System.validate sys))

let test_unattached_fifo_reported () =
  let sys = P.System.create () in
  ignore (P.System.add_accel sys ~name:"P" (synth (passthrough 4)));
  ignore (P.System.add_mm2s sys ~dst:("P", "xin"));
  ignore (P.System.add_s2mm sys ~src:("P", "xout"));
  ignore (P.System.new_fifo sys ~name:"orphan");
  (match P.System.validate sys with
  | [ d ] ->
    check Alcotest.string "orphan code" "SOC052" d.Soc_util.Diag.code;
    check Alcotest.string "orphan subject" "orphan" d.Soc_util.Diag.subject;
    check Alcotest.bool "orphan is a warning" true
      (d.Soc_util.Diag.severity = Soc_util.Diag.Warning)
  | ds ->
    Alcotest.failf "expected exactly the orphan warning, got %d diagnostics"
      (List.length ds))

let test_bus_error () =
  let _, exec = lite_system () in
  match Exec.bus_read exec 0x10 with
  | exception Exec.Bus_error { addr = 0x10; dir = `Read; kind = `Decode } -> ()
  | _ -> Alcotest.fail "expected bus error"

let test_bus_error_direction () =
  let _, exec = lite_system () in
  match Exec.bus_write exec 0x10 1 with
  | exception Exec.Bus_error { addr = 0x10; dir = `Write; kind = `Decode } -> ()
  | _ -> Alcotest.fail "expected bus error"

let test_exception_printers () =
  let has needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  let s =
    Printexc.to_string (Exec.Bus_error { addr = 0x40000010; dir = `Read; kind = `Slverr })
  in
  check Alcotest.bool "bus error printer names address" true (has "0x40000010" s);
  check Alcotest.bool "bus error printer names SLVERR" true (has "SLVERR" s);
  let s = Printexc.to_string (Exec.Deadlock { cycle = 99; detail = [ "P: done=false" ] }) in
  check Alcotest.bool "deadlock printer has cycle" true (has "99" s);
  check Alcotest.bool "deadlock printer has detail" true (has "P: done=false" s)

(* ------------------------------------------------------------------ *)
(* Streaming phase through DMA                                         *)
(* ------------------------------------------------------------------ *)

let stream_system n =
  let sys = P.System.create () in
  ignore (P.System.add_accel sys ~name:"P" (synth (passthrough n)));
  let in_ch, _ = P.System.add_mm2s sys ~dst:("P", "xin") in
  let out_ch, _ = P.System.add_s2mm sys ~src:("P", "xout") in
  check (Alcotest.list diag_testable) "fully bound" [] (P.System.validate sys);
  (sys, Exec.create sys, in_ch, out_ch)

let test_stream_phase_end_to_end () =
  let n = 64 in
  let sys, exec, in_ch, out_ch = stream_system n in
  Soc_axi.Dram.write_block (Exec.dram exec) ~addr:0
    (Array.init n (fun i -> i * 3));
  Exec.start_accel exec "P";
  Exec.start_read_dma exec ~channel:out_ch ~addr:1024 ~len:n;
  Exec.start_write_dma exec ~channel:in_ch ~addr:0 ~len:n;
  Exec.run_phase exec ~accels:[ "P" ];
  check (Alcotest.list Alcotest.int) "incremented through fabric"
    (List.init n (fun i -> (i * 3) + 1))
    (Array.to_list (Soc_axi.Dram.read_block (Exec.dram exec) ~addr:1024 ~len:n));
  check (Alcotest.list Alcotest.string) "no protocol violations" []
    (List.map (Format.asprintf "%a" Soc_axi.Stream_rules.pp_violation)
       (P.System.protocol_violations sys))

let test_blocking_dma_calls () =
  let n = 16 in
  let _, exec, in_ch, out_ch = stream_system n in
  Soc_axi.Dram.write_block (Exec.dram exec) ~addr:0 (Array.init n Fun.id);
  Exec.start_accel exec "P";
  (* Blocking readDMA must be armed before writeDMA finishes pushing,
     otherwise beats pile into the FIFO: use non-blocking arm then blocking
     drain, like the generated host code does. *)
  Exec.start_read_dma exec ~channel:out_ch ~addr:512 ~len:n;
  (* Blocking writeDMA returns once the input buffer is fully streamed. *)
  Exec.write_dma exec ~channel:in_ch ~addr:0 ~len:n;
  Exec.run_phase exec ~accels:[ "P" ];
  check Alcotest.int "last word" n
    (Soc_axi.Dram.read (Exec.dram exec) (512 + n - 1))

let test_timeline_components () =
  let n = 32 in
  let _, exec, in_ch, out_ch = stream_system n in
  Exec.start_accel exec "P";
  Exec.start_read_dma exec ~channel:out_ch ~addr:512 ~len:n;
  Exec.start_write_dma exec ~channel:in_ch ~addr:0 ~len:n;
  Exec.run_phase exec ~accels:[ "P" ];
  let tl = exec.Exec.timeline in
  check Alcotest.bool "bus time from start_accel" true (tl.Exec.bus > 0);
  check Alcotest.bool "hw time" true (tl.Exec.hw > 0);
  check Alcotest.int "total = sum of parts" tl.Exec.total (Exec.elapsed_cycles exec)

let test_deadlock_detection () =
  (* Accelerator waits for 4 beats but the DMA only delivers 2. *)
  let sys = P.System.create ~config:{ P.Config.zedboard with P.Config.deadlock_window = 2000 } () in
  ignore (P.System.add_accel sys ~name:"P" (synth (passthrough 4)));
  let in_ch, _ = P.System.add_mm2s sys ~dst:("P", "xin") in
  let _out_ch, _ = P.System.add_s2mm sys ~src:("P", "xout") in
  let exec = Exec.create sys in
  Exec.start_accel exec "P";
  Exec.start_write_dma exec ~channel:in_ch ~addr:0 ~len:2;
  match Exec.run_phase exec ~accels:[ "P" ] with
  | exception Exec.Deadlock _ -> ()
  | () -> Alcotest.fail "expected deadlock"

let test_fifo_too_small_deadlocks () =
  (* Producer pushes 32 beats into an 8-deep FIFO with no consumer armed:
     classic sizing bug, must be caught by the deadlock detector. *)
  let config =
    { P.Config.zedboard with P.Config.default_fifo_depth = 8; deadlock_window = 3000 }
  in
  let sys = P.System.create ~config () in
  ignore (P.System.add_accel sys ~name:"P" (synth (passthrough 32)));
  let in_ch, _ = P.System.add_mm2s sys ~dst:("P", "xin") in
  let _ = P.System.add_s2mm sys ~src:("P", "xout") in
  let exec = Exec.create sys in
  Exec.start_accel exec "P";
  Exec.start_write_dma exec ~channel:in_ch ~addr:0 ~len:32;
  (* S2MM never started: output fifo fills, accel stalls, input fifo fills,
     MM2S stalls. *)
  match Exec.run_phase exec ~accels:[ "P" ] with
  | exception Exec.Deadlock { cycle; detail } ->
    check Alcotest.bool "detail lists fifo stats" true (detail <> []);
    check Alcotest.bool "cycle is plausible" true (cycle > 3000);
    (* The detail must name the stuck accelerator and its state, not just
       say "deadlock". *)
    check Alcotest.bool "detail names the accelerator" true
      (List.exists
         (fun line ->
           String.length line >= 2 && String.sub line 0 2 = "P:"
           && List.exists (fun s -> s = line)
                [ "P: done=false idle=false"; "P: done=false idle=true" ])
         detail)
  | () -> Alcotest.fail "expected deadlock"

let test_accel_to_accel_link () =
  let n = 16 in
  let sys = P.System.create () in
  ignore (P.System.add_accel sys ~name:"A" (synth (passthrough n)));
  ignore (P.System.add_accel sys ~name:"B" (synth { (passthrough n) with Soc_kernel.Ast.kname = "pass2" }));
  ignore (P.System.link_stream sys ~src:("A", "xout") ~dst:("B", "xin"));
  let in_ch, _ = P.System.add_mm2s sys ~dst:("A", "xin") in
  let out_ch, _ = P.System.add_s2mm sys ~src:("B", "xout") in
  let exec = Exec.create sys in
  Soc_axi.Dram.write_block (Exec.dram exec) ~addr:0 (Array.init n Fun.id);
  Exec.start_accel exec "A";
  Exec.start_accel exec "B";
  Exec.start_read_dma exec ~channel:out_ch ~addr:256 ~len:n;
  Exec.start_write_dma exec ~channel:in_ch ~addr:0 ~len:n;
  Exec.run_phase exec ~accels:[ "A"; "B" ];
  check (Alcotest.list Alcotest.int) "two increments"
    (List.init n (fun i -> i + 2))
    (Array.to_list (Soc_axi.Dram.read_block (Exec.dram exec) ~addr:256 ~len:n))

let test_double_driven_port_reported () =
  let sys = P.System.create () in
  ignore (P.System.add_accel sys ~name:"A" (synth (passthrough 4)));
  ignore
    (P.System.add_accel sys ~name:"B"
       (synth { (passthrough 4) with Soc_kernel.Ast.kname = "pass2" }));
  let link = P.System.link_stream sys ~src:("A", "xout") ~dst:("B", "xin") in
  ignore (P.System.add_mm2s sys ~dst:("A", "xin"));
  ignore (P.System.add_s2mm sys ~src:("B", "xout"));
  check (Alcotest.list diag_testable) "consistent before injection" []
    (P.System.validate sys);
  (* A buggy frontend aiming a DMA channel at the FIFO that A already
     drives: B.xin now has two writers. *)
  let rogue =
    Soc_axi.Dma.create_mm2s ~name:"rogue" ~dram:sys.P.System.dram ~dest:link
  in
  sys.P.System.mm2s <- ("rogue", rogue) :: sys.P.System.mm2s;
  check Alcotest.bool "double-driven flagged" true
    (List.exists
       (fun (d : Soc_util.Diag.t) ->
         d.Soc_util.Diag.code = "SOC053"
         && d.Soc_util.Diag.subject = "B.xin"
         && d.Soc_util.Diag.severity = Soc_util.Diag.Error)
       (P.System.validate sys))

let test_double_bind_rejected () =
  let sys = P.System.create () in
  ignore (P.System.add_accel sys ~name:"P" (synth (passthrough 4)));
  ignore (P.System.add_mm2s sys ~dst:("P", "xin"));
  match P.System.add_mm2s sys ~dst:("P", "xin") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let suite =
  [
    ("clock conversion", `Quick, test_clock_conversion);
    ("gpp task over dram", `Quick, test_gpp_runs_kernel_over_dram);
    ("gpp buffer overflow fault", `Quick, test_gpp_buffer_overflow_detected);
    ("gpp cost scales", `Quick, test_gpp_cost_scales_with_work);
    ("axi-lite accelerator call", `Quick, test_lite_accelerator_call);
    ("axi-lite accelerator rerun", `Quick, test_lite_accelerator_rerun);
    ("duplicate accel rejected", `Quick, test_duplicate_accel_rejected);
    ("unbound streams reported", `Quick, test_unbound_stream_reported);
    ("duplicate dma channel reported", `Quick, test_duplicate_dma_channel_reported);
    ("unattached fifo reported", `Quick, test_unattached_fifo_reported);
    ("double-driven port reported", `Quick, test_double_driven_port_reported);
    ("bus error", `Quick, test_bus_error);
    ("bus error carries direction", `Quick, test_bus_error_direction);
    ("exception printers", `Quick, test_exception_printers);
    ("stream phase end to end", `Quick, test_stream_phase_end_to_end);
    ("blocking dma calls", `Quick, test_blocking_dma_calls);
    ("timeline accounting", `Quick, test_timeline_components);
    ("deadlock: missing data", `Quick, test_deadlock_detection);
    ("deadlock: fifo too small", `Quick, test_fifo_too_small_deadlocks);
    ("accel-to-accel link", `Quick, test_accel_to_accel_link);
    ("double bind rejected", `Quick, test_double_bind_rejected);
  ]
