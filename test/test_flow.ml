(* Tests for the flow coordinator (Section IV), the Tcl backends, the
   software generation (Section V) and the tool-runtime model. *)

open Soc_core

let check = Alcotest.check

let fig4_build () =
  Flow.build Soc_apps.Graphs.fig4_spec
    ~kernels:(Soc_apps.Graphs.fig4_kernels ~width:16 ~height:16)

(* ------------------------------------------------------------------ *)
(* Kernel/interface consistency                                        *)
(* ------------------------------------------------------------------ *)

let test_build_fig4 () =
  let b = fig4_build () in
  check Alcotest.int "four accelerators" 4 (List.length b.Flow.impls);
  check Alcotest.int "two DMA channels" 2 (List.length b.Flow.dma_channels)

let test_missing_kernel_rejected () =
  match
    Flow.build Soc_apps.Graphs.fig4_spec
      ~kernels:(List.tl (Soc_apps.Graphs.fig4_kernels ~width:16 ~height:16))
  with
  | exception Flow.Build_error msg ->
    check Alcotest.bool "names the node" true (Tstr.contains msg "MUL")
  | _ -> Alcotest.fail "expected build error"

let test_port_kind_mismatch_rejected () =
  (* Declare GAUSS ports as AXI-Lite while the kernel uses streams. *)
  let open Edsl in
  let spec =
    design "bad" @@ fun tg ->
    nodes tg;
    node tg "GAUSS" |> i "in" |> i "out" |> end_;
    end_nodes tg;
    edges tg;
    connect tg "GAUSS";
    end_edges tg
  in
  match
    Flow.build spec ~kernels:[ ("GAUSS", Soc_apps.Filters.gauss_kernel ~width:8 ~height:8) ]
  with
  | exception Flow.Build_error msg ->
    check Alcotest.bool "kind mismatch" true (Tstr.contains msg "kind")
  | _ -> Alcotest.fail "expected kind mismatch"

let test_direction_mismatch_rejected () =
  (* Link drives GAUSS.out as an input: kernel says it is an output. *)
  let open Edsl in
  let spec =
    design "bad2" @@ fun tg ->
    nodes tg;
    node tg "GAUSS" |> is "in" |> is "out" |> end_;
    end_nodes tg;
    edges tg;
    link tg soc ~to_:(port "GAUSS" "out");
    link tg (port "GAUSS" "in") ~to_:soc;
    end_edges tg
  in
  match
    Flow.build spec ~kernels:[ ("GAUSS", Soc_apps.Filters.gauss_kernel ~width:8 ~height:8) ]
  with
  | exception Flow.Build_error msg ->
    check Alcotest.bool "direction mismatch" true (Tstr.contains msg "direction")
  | _ -> Alcotest.fail "expected direction mismatch"

let test_extra_kernel_port_rejected () =
  let open Edsl in
  let spec =
    design "bad3" @@ fun tg ->
    nodes tg;
    node tg "segment" |> is "grayScaleImage" |> is "segmentedGrayImage" |> end_;
    end_nodes tg;
    edges tg;
    link tg soc ~to_:(port "segment" "grayScaleImage");
    link tg (port "segment" "segmentedGrayImage") ~to_:soc;
    end_edges tg
  in
  (* The segment kernel also has an otsuThreshold port not in the DSL. *)
  match Flow.build spec ~kernels:[ ("segment", Soc_apps.Otsu.segment_kernel ~pixels:16) ] with
  | exception Flow.Build_error msg ->
    check Alcotest.bool "undeclared port" true (Tstr.contains msg "otsuThreshold")
  | _ -> Alcotest.fail "expected extra port error"

(* ------------------------------------------------------------------ *)
(* Integration artifacts                                               *)
(* ------------------------------------------------------------------ *)

let test_address_map_disjoint () =
  let b = fig4_build () in
  let segs = List.map (fun (_, base, size) -> (base, base + size)) b.Flow.address_map in
  let rec disjoint = function
    | [] | [ _ ] -> true
    | (lo1, hi1) :: rest ->
      List.for_all (fun (lo2, hi2) -> hi1 <= lo2 || hi2 <= lo1) rest && disjoint rest
  in
  check Alcotest.bool "disjoint segments" true (disjoint segs);
  check Alcotest.int "nodes + dma entries" 6 (List.length b.Flow.address_map)

let test_resources_aggregate () =
  let b = fig4_build () in
  let per_core = Soc_hls.Report.sum (List.map snd b.Flow.resources_by_core) in
  check Alcotest.bool "system > sum of cores (integration glue)" true
    (b.Flow.resources.Soc_hls.Report.lut > per_core.Soc_hls.Report.lut);
  check Alcotest.bool "dma adds brams" true
    (b.Flow.resources.Soc_hls.Report.bram18 > per_core.Soc_hls.Report.bram18)

let test_bitstream_named () =
  let b = fig4_build () in
  check Alcotest.string "bitstream artifact" "fig4_bd_wrapper.bit" b.Flow.bitstream

(* ------------------------------------------------------------------ *)
(* Tcl backends                                                        *)
(* ------------------------------------------------------------------ *)

let test_tcl_contains_all_blocks () =
  let b = fig4_build () in
  let tcl = b.Flow.tcl_2014 in
  List.iter
    (fun frag ->
      check Alcotest.bool ("tcl has " ^ frag) true (Tstr.contains tcl frag))
    [ "create_project"; "processing_system7"; "axi_dma"; "GAUSS_0"; "EDGE_0"; "MUL_0";
      "ADD_0"; "launch_runs synth_1"; "write_bitstream"; "assign_bd_address" ]

let test_tcl_stream_topology () =
  let b = fig4_build () in
  check Alcotest.bool "internal gauss->edge link" true
    (Tstr.contains b.Flow.tcl_2014 "GAUSS_0/out] [get_bd_intf_pins EDGE_0/in")

let test_tcl_versions_differ_slightly () =
  let d = Tcl.diff_backends Soc_apps.Graphs.fig4_spec in
  check Alcotest.bool "some commands changed" true (d.Tcl.changed_commands > 0);
  check Alcotest.bool "most commands stable" true (d.Tcl.changed_fraction < 0.25)

let test_tcl_version_strings () =
  let b = fig4_build () in
  check Alcotest.bool "5.3 in 2014.2" true
    (Tstr.contains b.Flow.tcl_2014 "processing_system7:5.3");
  check Alcotest.bool "5.5 in 2015.3" true
    (Tstr.contains b.Flow.tcl_2015 "processing_system7:5.5")

let test_conciseness_ratios_in_paper_range () =
  (* Section VI.C: tcl ~4x lines, 4-10x chars vs the DSL text. *)
  let b =
    Flow.build (Soc_apps.Graphs.arch_spec Soc_apps.Graphs.Arch4)
      ~kernels:(Soc_apps.Graphs.arch_kernels Soc_apps.Graphs.Arch4 ~width:16 ~height:16)
  in
  let dsl = Soc_util.Metrics.of_string b.Flow.dsl_source in
  let tcl = Soc_util.Metrics.of_string b.Flow.tcl_2014 in
  let line_ratio = Soc_util.Metrics.ratio ~num:tcl.Soc_util.Metrics.lines ~den:dsl.Soc_util.Metrics.lines in
  let char_ratio = Soc_util.Metrics.ratio ~num:tcl.Soc_util.Metrics.chars ~den:dsl.Soc_util.Metrics.chars in
  check Alcotest.bool "line ratio in [2,8]" true (line_ratio >= 2.0 && line_ratio <= 8.0);
  check Alcotest.bool "char ratio in [3,12]" true (char_ratio >= 3.0 && char_ratio <= 12.0)

(* ------------------------------------------------------------------ *)
(* Software generation                                                 *)
(* ------------------------------------------------------------------ *)

let test_device_tree () =
  let b = fig4_build () in
  let dt = b.Flow.sw.Swgen.device_tree in
  check Alcotest.bool "dts header" true (Tstr.contains dt "/dts-v1/");
  check Alcotest.bool "accelerator node" true (Tstr.contains dt "GAUSS");
  check Alcotest.bool "dma compatible" true (Tstr.contains dt "xlnx,axi-dma");
  check Alcotest.bool "reg property" true (Tstr.contains dt "reg = <0x40000000")

let test_api_header () =
  let b = fig4_build () in
  let h = b.Flow.sw.Swgen.api_header in
  check Alcotest.bool "readDMA" true (Tstr.contains h "int readDMA(");
  check Alcotest.bool "writeDMA" true (Tstr.contains h "int writeDMA(");
  check Alcotest.bool "MUL wrapper" true (Tstr.contains h "void MUL_start(uint32_t A, uint32_t B");
  check Alcotest.bool "wait wrapper" true (Tstr.contains h "uint32_t MUL_wait(void)")

let test_api_source () =
  let b = fig4_build () in
  let c = b.Flow.sw.Swgen.api_source in
  check Alcotest.bool "mmap" true (Tstr.contains c "mmap");
  check Alcotest.bool "ap_start write" true (Tstr.contains c "r[0] = 1");
  check Alcotest.bool "done poll" true (Tstr.contains c "while (!(r[1] & 1))")

let test_boot_manifest () =
  let b = fig4_build () in
  check Alcotest.bool "bitstream in BOOT.BIN" true
    (List.mem "fig4_bd_wrapper.bit" b.Flow.sw.Swgen.boot_bin_manifest);
  check Alcotest.bool "devicetree in BOOT.BIN" true
    (List.mem "devicetree.dtb" b.Flow.sw.Swgen.boot_bin_manifest)

let test_dev_entries () =
  let b = fig4_build () in
  check Alcotest.int "one /dev node per dma" 2 (List.length b.Flow.sw.Swgen.dev_entries)

(* ------------------------------------------------------------------ *)
(* Tool-runtime model (Fig. 9 anchors)                                 *)
(* ------------------------------------------------------------------ *)

let test_toolsim_anchors () =
  check Alcotest.bool "scala ~6s" true (abs_float (Toolsim.scala_time ~dsl_lines:15 -. 6.75) < 1.0);
  check Alcotest.bool "project ~50s" true
    (abs_float (Toolsim.project_gen_time ~cells:9 -. 47.6) < 5.0)

let test_toolsim_reused_free () =
  let b1 =
    Toolsim.estimate_costed ~arch:"a1" ~dsl_lines:10
      ~kernel_costs:
        [ { Toolsim.kname = "k1"; complexity = 50; reused = false };
          { Toolsim.kname = "k2"; complexity = 60; reused = false } ]
      ~cells:5 ~luts:5000
  in
  let b2 =
    Toolsim.estimate_costed ~arch:"a2" ~dsl_lines:10
      ~kernel_costs:[ { Toolsim.kname = "k1"; complexity = 50; reused = true } ]
      ~cells:5 ~luts:5000
  in
  let hls b = List.assoc Toolsim.Hls b.Toolsim.seconds in
  check Alcotest.bool "first run pays" true (hls b1 > 50.0);
  check (Alcotest.float 0.001) "cached run free" 0.0 (hls b2)

let test_toolsim_total_positive () =
  let b =
    Toolsim.estimate_costed ~arch:"a" ~dsl_lines:12
      ~kernel_costs:[ { Toolsim.kname = "k"; complexity = 40; reused = false } ]
      ~cells:6 ~luts:9000
  in
  check Alcotest.bool "total in minutes range" true
    (Toolsim.total b > 300.0 && Toolsim.total b < 1200.0)

let test_flow_tool_times_use_shared_cache () =
  let hls = Soc_farm.Cache.hls_engine (Soc_farm.Cache.create ()) in
  let mk arch =
    Flow.build ~hls (Soc_apps.Graphs.arch_spec arch)
      ~kernels:(Soc_apps.Graphs.arch_kernels arch ~width:8 ~height:8)
  in
  (* Arch4 first, like the paper; then Arch1 reuses the histogram core. *)
  let b4 = mk Soc_apps.Graphs.Arch4 in
  let b1 = mk Soc_apps.Graphs.Arch1 in
  let hls b = List.assoc Toolsim.Hls b.Flow.tool_times.Toolsim.seconds in
  check Alcotest.bool "arch4 pays all kernels" true (hls b4 > 100.0);
  check (Alcotest.float 0.001) "arch1 fully cached" 0.0 (hls b1)

(* ------------------------------------------------------------------ *)
(* Block diagram (Fig. 10)                                             *)
(* ------------------------------------------------------------------ *)

let test_block_diagram_dot () =
  let b = fig4_build () in
  let dot = Block_diagram.to_dot b in
  check Alcotest.bool "PS colored blue" true (Tstr.contains dot "steelblue");
  check Alcotest.bool "DMA colored green" true (Tstr.contains dot "mediumseagreen");
  check Alcotest.bool "gauss core present" true (Tstr.contains dot "GAUSS")

let test_block_diagram_ascii () =
  let b = fig4_build () in
  let a = Block_diagram.to_ascii b in
  check Alcotest.bool "lite rows" true (Tstr.contains a "AXI-Lite: MUL");
  check Alcotest.bool "dma rows" true (Tstr.contains a "DMA MM2S ==> GAUSS.in");
  check Alcotest.bool "internal link" true (Tstr.contains a "GAUSS.out ==AXIS==> EDGE.in")

(* ------------------------------------------------------------------ *)
(* Instantiation                                                       *)
(* ------------------------------------------------------------------ *)

let test_instantiate_binds_everything () =
  let b = fig4_build () in
  let live = Flow.instantiate b in
  check Alcotest.int "two channels" 2 (List.length live.Flow.channels);
  check Alcotest.bool "gauss channel resolvable" true
    (Flow.channel live ~node:"GAUSS" ~port:"in" <> "");
  match Flow.channel live ~node:"GAUSS" ~port:"nope" with
  | exception Flow.Build_error _ -> ()
  | _ -> Alcotest.fail "expected channel error"

let suite =
  [
    ("build fig4", `Quick, test_build_fig4);
    ("missing kernel rejected", `Quick, test_missing_kernel_rejected);
    ("port kind mismatch rejected", `Quick, test_port_kind_mismatch_rejected);
    ("direction mismatch rejected", `Quick, test_direction_mismatch_rejected);
    ("extra kernel port rejected", `Quick, test_extra_kernel_port_rejected);
    ("address map disjoint", `Quick, test_address_map_disjoint);
    ("resources aggregate", `Quick, test_resources_aggregate);
    ("bitstream artifact named", `Quick, test_bitstream_named);
    ("tcl contains all blocks", `Quick, test_tcl_contains_all_blocks);
    ("tcl stream topology", `Quick, test_tcl_stream_topology);
    ("tcl backend versions differ slightly", `Quick, test_tcl_versions_differ_slightly);
    ("tcl ip versions per release", `Quick, test_tcl_version_strings);
    ("conciseness ratios in paper range", `Quick, test_conciseness_ratios_in_paper_range);
    ("device tree", `Quick, test_device_tree);
    ("api header", `Quick, test_api_header);
    ("api source", `Quick, test_api_source);
    ("boot manifest", `Quick, test_boot_manifest);
    ("dev entries", `Quick, test_dev_entries);
    ("toolsim anchors", `Quick, test_toolsim_anchors);
    ("toolsim hls cache", `Quick, test_toolsim_reused_free);
    ("toolsim totals", `Quick, test_toolsim_total_positive);
    ("flow shares hls cache", `Quick, test_flow_tool_times_use_shared_cache);
    ("block diagram dot", `Quick, test_block_diagram_dot);
    ("block diagram ascii", `Quick, test_block_diagram_ascii);
    ("instantiate binds everything", `Quick, test_instantiate_binds_everything);
  ]
