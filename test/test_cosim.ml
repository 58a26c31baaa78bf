(* Tests for the mixed-abstraction co-simulation (behavioural accelerator
   engine) and for the VCD waveform recorder. *)

module Exec = Soc_platform.Executive

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Behavioural engine                                                  *)
(* ------------------------------------------------------------------ *)

let test_behavioral_lite_accel () =
  let sys = Soc_platform.System.create () in
  ignore (Soc_platform.System.add_accel_behavioral sys ~name:"ADD" Soc_apps.Filters.add_kernel);
  let exec = Exec.create sys in
  Exec.set_arg exec ~accel:"ADD" ~port:"A" 40;
  Exec.set_arg exec ~accel:"ADD" ~port:"B" 2;
  Exec.start_accel exec "ADD";
  Exec.wait_accel exec "ADD";
  check Alcotest.int "result" 42 (Exec.get_arg exec ~accel:"ADD" ~port:"return_")

let test_behavioral_stream_system () =
  (* Whole Otsu Arch4 with behavioural accelerators: same image as RTL. *)
  let width = 16 and height = 16 in
  let pixels = width * height in
  let golden, _ = Soc_apps.Otsu_runner.golden ~width ~height () in
  let spec = Soc_apps.Graphs.arch_spec Soc_apps.Graphs.Arch4 in
  let build =
    Soc_core.Flow.build ~fifo_depth:(pixels + 16) spec
      ~kernels:(Soc_apps.Graphs.arch_kernels Soc_apps.Graphs.Arch4 ~width ~height)
  in
  let live = Soc_core.Flow.instantiate ~fifo_depth:(pixels + 16) ~mode:`Behavioral build in
  let exec = live.Soc_core.Flow.exec in
  let rgb = Soc_apps.Image.synthetic_rgb ~width ~height () in
  Soc_axi.Dram.write_block (Exec.dram exec) ~addr:0 rgb.Soc_apps.Image.rgb;
  List.iter (fun n -> Exec.start_accel exec n)
    [ "grayScale"; "computeHistogram"; "halfProbability"; "segment" ];
  Exec.start_read_dma exec
    ~channel:(Soc_core.Flow.channel live ~node:"segment" ~port:"segmentedGrayImage")
    ~addr:4096 ~len:pixels;
  Exec.start_write_dma exec
    ~channel:(Soc_core.Flow.channel live ~node:"grayScale" ~port:"imageIn")
    ~addr:0 ~len:pixels;
  Exec.run_phase exec
    ~accels:[ "grayScale"; "computeHistogram"; "halfProbability"; "segment" ];
  let out = Soc_axi.Dram.read_block (Exec.dram exec) ~addr:4096 ~len:pixels in
  check Alcotest.bool "behavioural mode bit-exact" true
    (out = golden.Soc_apps.Image.pixels)

let run_mode mode =
  let n = 32 in
  let spec = Soc_apps.Xtea.encrypt_spec in
  let blocks = n / 2 in
  let build =
    Soc_core.Flow.build spec ~kernels:[ ("xteaEnc", Soc_apps.Xtea.encrypt_kernel ~blocks) ]
  in
  let live = Soc_core.Flow.instantiate ~mode build in
  let exec = live.Soc_core.Flow.exec in
  let rng = Soc_util.Rng.create 4 in
  let pt = Array.init n (fun _ -> Soc_util.Rng.int rng 0x3FFFFFFF) in
  Soc_axi.Dram.write_block (Exec.dram exec) ~addr:0 pt;
  Array.iteri
    (fun i kw -> Exec.set_arg exec ~accel:"xteaEnc" ~port:(Printf.sprintf "key%d" i) kw)
    [| 1; 2; 3; 4 |];
  Exec.start_accel exec "xteaEnc";
  Exec.start_read_dma exec
    ~channel:(Soc_core.Flow.channel live ~node:"xteaEnc" ~port:"ct")
    ~addr:2048 ~len:n;
  Exec.start_write_dma exec
    ~channel:(Soc_core.Flow.channel live ~node:"xteaEnc" ~port:"pt")
    ~addr:0 ~len:n;
  Exec.run_phase exec ~accels:[ "xteaEnc" ];
  (Array.to_list (Soc_axi.Dram.read_block (Exec.dram exec) ~addr:2048 ~len:n),
   Exec.elapsed_cycles exec)

let test_modes_agree_functionally () =
  let rtl_out, rtl_cycles = run_mode `Rtl in
  let beh_out, beh_cycles = run_mode `Behavioral in
  check (Alcotest.list Alcotest.int) "same ciphertext" rtl_out beh_out;
  (* The behavioural engine is the idealized pipelined upper bound. *)
  check Alcotest.bool "behavioural no slower than RTL" true (beh_cycles <= rtl_cycles)

let test_behavioral_rerun () =
  let sys = Soc_platform.System.create () in
  ignore (Soc_platform.System.add_accel_behavioral sys ~name:"MUL" Soc_apps.Filters.mul_kernel);
  let exec = Exec.create sys in
  let call a b =
    Exec.set_arg exec ~accel:"MUL" ~port:"A" a;
    Exec.set_arg exec ~accel:"MUL" ~port:"B" b;
    Exec.start_accel exec "MUL";
    Exec.wait_accel exec "MUL";
    Exec.get_arg exec ~accel:"MUL" ~port:"return_"
  in
  check Alcotest.int "first" 6 (call 2 3);
  check Alcotest.int "second" 56 (call 7 8)

let test_behavioral_backpressure () =
  (* Behavioural engine must respect a full output FIFO (blocked push). *)
  let config =
    { Soc_platform.Config.zedboard with
      Soc_platform.Config.default_fifo_depth = 4; deadlock_window = 5_000 }
  in
  let sys = Soc_platform.System.create ~config () in
  let open Soc_kernel.Ast.Build in
  let burst =
    {
      Soc_kernel.Ast.kname = "burst";
      ports = [ in_stream "i" Soc_kernel.Ty.U32; out_stream "o" Soc_kernel.Ty.U32 ];
      locals = [ ("k", Soc_kernel.Ty.U32); ("x", Soc_kernel.Ty.U32) ];
      arrays = [];
      body =
        [ pop "x" "i";
          for_ "k" ~from:(int 0) ~below:(int 64) [ push "o" (v "x" +: v "k") ] ];
    }
  in
  ignore (Soc_platform.System.add_accel_behavioral sys ~name:"burst" burst);
  let in_ch, _ = Soc_platform.System.add_mm2s sys ~dst:("burst", "i") in
  let out_ch, _ = Soc_platform.System.add_s2mm sys ~src:("burst", "o") in
  let exec = Exec.create sys in
  Soc_axi.Dram.write_block (Exec.dram exec) ~addr:0 [| 100 |];
  Exec.start_accel exec "burst";
  Exec.start_read_dma exec ~channel:out_ch ~addr:64 ~len:64;
  Exec.start_write_dma exec ~channel:in_ch ~addr:0 ~len:1;
  Exec.run_phase exec ~accels:[ "burst" ];
  check (Alcotest.list Alcotest.int) "all beats through a 4-deep fifo"
    (List.init 64 (fun k -> 100 + k))
    (Array.to_list (Soc_axi.Dram.read_block (Exec.dram exec) ~addr:64 ~len:64))

(* ------------------------------------------------------------------ *)
(* VCD recorder                                                        *)
(* ------------------------------------------------------------------ *)

let test_vcd_structure () =
  let accel = Soc_hls.Engine.synthesize Soc_apps.Filters.add_kernel in
  let net = accel.Soc_hls.Engine.fsmd.Soc_hls.Fsmd.netlist in
  let sim = Soc_rtl.Sim.create net in
  let vcd = Soc_rtl.Vcd.create net sim in
  Soc_rtl.Sim.set_input sim accel.Soc_hls.Engine.fsmd.Soc_hls.Fsmd.ap_start 1;
  for _ = 1 to 8 do
    Soc_rtl.Sim.settle sim;
    Soc_rtl.Vcd.sample vcd;
    Soc_rtl.Sim.tick sim
  done;
  let text = Soc_rtl.Vcd.to_string vcd in
  check Alcotest.bool "header" true (Tstr.contains text "$enddefinitions $end");
  check Alcotest.bool "declares state reg" true (Tstr.contains text "state");
  check Alcotest.bool "time marks" true (Tstr.contains text "#0");
  check Alcotest.bool "vector values" true (Tstr.contains text "b")

let test_vcd_only_changes () =
  (* A held-constant design emits exactly one time frame. *)
  let net = Soc_rtl.Netlist.create "const mod" in
  let o = Soc_rtl.Netlist.output net ~name:"o" ~width:8 in
  Soc_rtl.Netlist.assign net o (Soc_rtl.Netlist.Const (7, 8));
  let sim = Soc_rtl.Sim.create net in
  let vcd = Soc_rtl.Vcd.create net sim in
  for _ = 1 to 5 do
    Soc_rtl.Sim.settle sim;
    Soc_rtl.Vcd.sample vcd;
    Soc_rtl.Sim.tick sim
  done;
  let text = Soc_rtl.Vcd.to_string vcd in
  check Alcotest.bool "module name sanitized" true
    (Tstr.contains text "$scope module const_mod $end");
  check Alcotest.bool "one #0 frame" true (Tstr.contains text "#0");
  check Alcotest.bool "no #1 frame" false (Tstr.contains text "#1");
  check Alcotest.bool "no #4 frame" false (Tstr.contains text "#4")

let test_vcd_ids_unique () =
  let ids = List.init 300 Soc_rtl.Vcd.id_of_index in
  check Alcotest.int "300 unique ids" 300 (List.length (List.sort_uniq compare ids))

let test_vcd_binary () =
  check Alcotest.string "b101" "101" (Soc_rtl.Vcd.binary_of_int ~width:3 5);
  check Alcotest.string "leading zeros" "0001" (Soc_rtl.Vcd.binary_of_int ~width:4 1)

let suite =
  [
    ("behavioural lite accel", `Quick, test_behavioral_lite_accel);
    ("behavioural stream system (otsu)", `Quick, test_behavioral_stream_system);
    ("modes agree functionally (xtea)", `Quick, test_modes_agree_functionally);
    ("behavioural rerun", `Quick, test_behavioral_rerun);
    ("behavioural backpressure", `Quick, test_behavioral_backpressure);
    ("vcd structure", `Quick, test_vcd_structure);
    ("vcd only changes", `Quick, test_vcd_only_changes);
    ("vcd ids unique", `Quick, test_vcd_ids_unique);
    ("vcd binary rendering", `Quick, test_vcd_binary);
  ]
