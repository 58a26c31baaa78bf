(* End-to-end integration tests: DSL source -> flow -> simulated platform
   -> bit-exact application results. These are the "boot the board and run
   it" checks of the reproduction. *)

open Soc_apps

let check = Alcotest.check

let width = 16
let height = 16

let golden () = Otsu_runner.golden ~width ~height ()

(* ------------------------------------------------------------------ *)
(* Case study: all four architectures match the golden model           *)
(* ------------------------------------------------------------------ *)

let arch_test arch () =
  let g, gthr = golden () in
  let r = Otsu_runner.run_arch ~width ~height arch in
  check Alcotest.bool "bit-exact segmented image" true (Image.equal r.Otsu_runner.output g);
  check Alcotest.int "threshold" gthr r.Otsu_runner.threshold;
  check Alcotest.bool "nonzero time" true (r.Otsu_runner.cycles > 0)

let test_sw_baseline_matches () =
  let g, _ = golden () in
  let r = Otsu_runner.run_software_only ~width ~height () in
  check Alcotest.bool "software baseline matches" true
    (Image.equal r.Otsu_runner.output g)

(* The host program's timeline, pinned: 16x16, seed 42. *)
let pinned_cycles =
  [ ("Arch1", 16747); ("Arch2", 19709); ("Arch3", 18781); ("Arch4", 15158); ("SW", 16371) ]

let test_timeline_pinned () =
  let runs =
    List.map (fun arch -> Otsu_runner.run_arch ~width ~height arch) Graphs.all_archs
    @ [ Otsu_runner.run_software_only ~width ~height () ]
  in
  List.iter
    (fun (r : Otsu_runner.result) ->
      check Alcotest.int (r.Otsu_runner.label ^ " cycles")
        (List.assoc r.Otsu_runner.label pinned_cycles)
        r.Otsu_runner.cycles)
    runs

let test_phases_from_plan () =
  (* The chaos harness's split of each architecture: the first hardware
     run, labelled as in chaos reports, and the DRAM buffers it drains. *)
  List.iter
    (fun (arch, task, drains) ->
      let _, live = Otsu_runner.build_arch ~width ~height arch in
      let ph = Otsu_runner.phases (Otsu_runner.boot ~width ~height (Some live)) in
      check Alcotest.string (Graphs.arch_name arch ^ " task") task ph.Otsu_runner.task;
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        (Graphs.arch_name arch ^ " drains") drains ph.Otsu_runner.drains)
    [
      (Graphs.Arch1, "computeHistogram", [ ("computeHistogram", "histogram") ]);
      (Graphs.Arch2, "halfProbability", [ ("halfProbability", "probability") ]);
      (Graphs.Arch3, "computeHistogram+halfProbability", [ ("halfProbability", "probability") ]);
      (Graphs.Arch4, "full-pipeline", [ ("segment", "segmentedGrayImage") ]);
    ]

let test_archs_have_expected_core_counts () =
  List.iter
    (fun (arch, n) ->
      let r = Otsu_runner.run_arch ~width ~height arch in
      match r.Otsu_runner.build with
      | Some b -> check Alcotest.int (Graphs.arch_name arch ^ " cores") n (List.length b.Soc_core.Flow.impls)
      | None -> Alcotest.fail "build missing")
    [ (Graphs.Arch1, 1); (Graphs.Arch2, 1); (Graphs.Arch3, 2); (Graphs.Arch4, 4) ]

let test_resource_shape_table2 () =
  (* Table II shape: LUT monotone across Arch1 < Arch2 <= Arch3 < Arch4;
     DSPs appear only with otsuMethod/grayScale. *)
  let res arch =
    match (Otsu_runner.run_arch ~width ~height arch).Otsu_runner.build with
    | Some b -> b.Soc_core.Flow.resources
    | None -> Alcotest.fail "no build"
  in
  let r1 = res Graphs.Arch1
  and r2 = res Graphs.Arch2
  and r3 = res Graphs.Arch3
  and r4 = res Graphs.Arch4 in
  check Alcotest.bool "lut: arch1 < arch2" true Soc_hls.Report.(r1.lut < r2.lut);
  check Alcotest.bool "lut: arch2 <= arch3" true Soc_hls.Report.(r2.lut <= r3.lut);
  check Alcotest.bool "lut: arch3 < arch4" true Soc_hls.Report.(r3.lut < r4.lut);
  check Alcotest.int "arch1 has no dsp" 0 Soc_hls.Report.(r1.dsp);
  check Alcotest.bool "arch2 uses dsp" true Soc_hls.Report.(r2.dsp > 0);
  check Alcotest.bool "arch4 uses most dsp" true Soc_hls.Report.(r4.dsp >= r3.dsp)

(* ------------------------------------------------------------------ *)
(* Fig. 4 system end-to-end                                            *)
(* ------------------------------------------------------------------ *)

let test_fig4_system_runs () =
  let w = 12 and h = 10 in
  let n = w * h in
  let spec = Graphs.fig4_spec in
  let build = Soc_core.Flow.build spec ~kernels:(Graphs.fig4_kernels ~width:w ~height:h) in
  let live = Soc_core.Flow.instantiate ~fifo_depth:(n + 8) build in
  let exec = live.Soc_core.Flow.exec in
  let module Exec = Soc_platform.Executive in
  (* AXI-Lite path: ADD and MUL invoked over the bus. *)
  Exec.set_arg exec ~accel:"ADD" ~port:"A" 1200;
  Exec.set_arg exec ~accel:"ADD" ~port:"B" 34;
  Exec.start_accel exec "ADD";
  Exec.wait_accel exec "ADD";
  check Alcotest.int "ADD over AXI-Lite" 1234 (Exec.get_arg exec ~accel:"ADD" ~port:"return_");
  Exec.set_arg exec ~accel:"MUL" ~port:"A" 25;
  Exec.set_arg exec ~accel:"MUL" ~port:"B" 4;
  Exec.start_accel exec "MUL";
  Exec.wait_accel exec "MUL";
  check Alcotest.int "MUL over AXI-Lite" 100 (Exec.get_arg exec ~accel:"MUL" ~port:"return_");
  (* AXI-Stream path: image through GAUSS -> EDGE via DMA. *)
  let rng = Soc_util.Rng.create 17 in
  let input = Array.init n (fun _ -> Soc_util.Rng.int rng 256) in
  Soc_axi.Dram.write_block (Exec.dram exec) ~addr:0 input;
  Exec.start_accel exec "GAUSS";
  Exec.start_accel exec "EDGE";
  Exec.start_read_dma exec
    ~channel:(Soc_core.Flow.channel live ~node:"EDGE" ~port:"out")
    ~addr:4096 ~len:n;
  Exec.start_write_dma exec
    ~channel:(Soc_core.Flow.channel live ~node:"GAUSS" ~port:"in")
    ~addr:0 ~len:n;
  Exec.run_phase exec ~accels:[ "GAUSS"; "EDGE" ];
  let out = Soc_axi.Dram.read_block (Exec.dram exec) ~addr:4096 ~len:n in
  let expected =
    Filters.Golden.edge ~width:w ~height:h (Filters.Golden.gauss ~width:w ~height:h input)
  in
  check (Alcotest.list Alcotest.int) "gauss->edge pipeline" (Array.to_list expected)
    (Array.to_list out);
  check (Alcotest.list Alcotest.string) "no protocol violations" []
    (List.map
       (Format.asprintf "%a" Soc_axi.Stream_rules.pp_violation)
       (Soc_platform.System.protocol_violations live.Soc_core.Flow.system))

(* ------------------------------------------------------------------ *)
(* Listing-4 source all the way to hardware                            *)
(* ------------------------------------------------------------------ *)

let test_listing4_text_to_simulation () =
  (* Parse the paper's Listing 4 text, attach kernels, build, instantiate,
     run: the complete "execute the DSL" story on the external syntax. *)
  let g, _ = golden () in
  let r = Otsu_runner.run_arch ~width ~height Graphs.Arch4 in
  (match r.Otsu_runner.build with
  | Some b ->
    check Alcotest.string "spec came from the listing" "otsu"
      b.Soc_core.Flow.spec.Soc_core.Spec.design_name
  | None -> Alcotest.fail "no build");
  check Alcotest.bool "output matches golden" true (Image.equal r.Otsu_runner.output g)

(* Determinism: the whole co-simulation is reproducible. *)
let test_full_run_deterministic () =
  let r1 = Otsu_runner.run_arch ~width ~height Graphs.Arch4 in
  let r2 = Otsu_runner.run_arch ~width ~height Graphs.Arch4 in
  check Alcotest.int "same cycle count" r1.Otsu_runner.cycles r2.Otsu_runner.cycles;
  check Alcotest.bool "same image" true
    (Image.equal r1.Otsu_runner.output r2.Otsu_runner.output)

(* Different image content still matches golden (data independence). *)
let test_other_seeds () =
  List.iter
    (fun seed ->
      let g, _ = Otsu_runner.golden ~width ~height ~seed () in
      let r = Otsu_runner.run_arch ~width ~height ~seed Graphs.Arch3 in
      check Alcotest.bool (Printf.sprintf "seed %d" seed) true
        (Image.equal r.Otsu_runner.output g))
    [ 1; 99; 2024 ]

(* Non-square geometry. *)
let test_non_square_image () =
  let w = 24 and h = 10 in
  let g, _ = Otsu_runner.golden ~width:w ~height:h () in
  let r = Otsu_runner.run_arch ~width:w ~height:h Graphs.Arch4 in
  check Alcotest.bool "non-square arch4" true (Image.equal r.Otsu_runner.output g)

let suite =
  [
    ("software baseline matches golden", `Quick, test_sw_baseline_matches);
    ("arch1 end-to-end", `Quick, arch_test Graphs.Arch1);
    ("arch2 end-to-end", `Quick, arch_test Graphs.Arch2);
    ("arch3 end-to-end", `Quick, arch_test Graphs.Arch3);
    ("arch4 end-to-end", `Quick, arch_test Graphs.Arch4);
    ("host program timeline pinned", `Quick, test_timeline_pinned);
    ("chaos phases from the plan", `Quick, test_phases_from_plan);
    ("arch core counts", `Quick, test_archs_have_expected_core_counts);
    ("table2 resource shape", `Quick, test_resource_shape_table2);
    ("fig4 system end-to-end", `Quick, test_fig4_system_runs);
    ("listing4 text to simulation", `Quick, test_listing4_text_to_simulation);
    ("full run deterministic", `Quick, test_full_run_deterministic);
    ("other seeds", `Quick, test_other_seeds);
    ("non-square image", `Quick, test_non_square_image);
  ]
