(* Tests for the whole-design static analyzer: the Diag framework, rate
   derivation, every diagnostic-code family over a corpus of seeded-broken
   designs, cleanliness of the case-study architectures, and the
   parse/print diagnostic-identity law. *)

open Soc_core
module Diag = Soc_util.Diag
module Analyze = Soc_analysis.Analyze
module Rates = Soc_analysis.Rates
module Layout = Soc_analysis.Layout

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let codes ds = List.sort_uniq compare (List.map (fun (d : Diag.t) -> d.Diag.code) ds)
let has_code c ds = List.exists (fun (d : Diag.t) -> d.Diag.code = c) ds

let kernels32 () =
  Soc_apps.Otsu.kernels ~width:32 ~height:32
  @ Soc_apps.Graphs.fig4_kernels ~width:32 ~height:32

(* ------------------------------------------------------------------ *)
(* Diag framework                                                      *)
(* ------------------------------------------------------------------ *)

let test_diag_rendering () =
  let d =
    Diag.error
      ~span:{ Diag.line = 4; col = 7 }
      ~code:"SOC031" ~subject:"a.x->b.y" "rates differ"
  in
  check Alcotest.string "text with file" "t.tg:4:7: error[SOC031] a.x->b.y: rates differ"
    (Diag.to_string ~file:"t.tg" d);
  check Alcotest.string "text without file" "4:7: error[SOC031] a.x->b.y: rates differ"
    (Diag.to_string d);
  let j = Diag.to_json ~file:"t.tg" d in
  check Alcotest.string "json"
    {|{"file":"t.tg","line":4,"col":7,"code":"SOC031","severity":"error","subject":"a.x->b.y","message":"rates differ"}|}
    j

let test_diag_sort_and_filters () =
  let w = Diag.warning ~code:"SOC030" ~subject:"w" "w" in
  let e = Diag.error ~code:"SOC031" ~subject:"e" "e" in
  let i = Diag.info ~code:"SOC032" ~subject:"i" "i" in
  let sorted = Diag.sort [ i; w; e ] in
  check (Alcotest.list Alcotest.string) "severity order" [ "SOC031"; "SOC030"; "SOC032" ]
    (List.map (fun (d : Diag.t) -> d.Diag.code) sorted);
  check Alcotest.int "error count" 1 (Diag.error_count sorted);
  check Alcotest.int "warning count" 1 (Diag.warning_count sorted);
  check Alcotest.bool "promote makes warnings errors" true
    (Diag.error_count (Diag.promote_warnings sorted) = 2);
  check (Alcotest.list Alcotest.string) "suppress drops by code" [ "SOC031"; "SOC032" ]
    (List.map
       (fun (d : Diag.t) -> d.Diag.code)
       (Diag.suppress ~codes:[ "SOC030" ] sorted))

(* ------------------------------------------------------------------ *)
(* Rate derivation                                                     *)
(* ------------------------------------------------------------------ *)

let test_otsu_rates_exact () =
  let pixels = 32 * 32 in
  let ks = Soc_apps.Otsu.kernels ~width:32 ~height:32 in
  let r name = Rates.of_kernel (List.assoc name ks) in
  let exact c = Option.get (Rates.exact c) in
  check Alcotest.int "grayScale pops pixels" pixels
    (exact (Rates.pop_count (r "grayScale") "imageIn"));
  check Alcotest.int "grayScale pushes pixels on CH" pixels
    (exact (Rates.push_count (r "grayScale") "imageOutCH"));
  check Alcotest.int "histogram pushes 256 bins" 256
    (exact (Rates.push_count (r "computeHistogram") "histogram"));
  check Alcotest.int "halfProbability pops 256 bins" 256
    (exact (Rates.pop_count (r "halfProbability") "histogram"));
  check Alcotest.int "halfProbability pushes one threshold" 1
    (exact (Rates.push_count (r "halfProbability") "probability"));
  check Alcotest.int "segment pops one threshold" 1
    (exact (Rates.pop_count (r "segment") "otsuThreshold"))

let test_rate_bounds_branch_and_while () =
  let open Soc_kernel.Ast.Build in
  let k =
    {
      Soc_kernel.Ast.kname = "bounds";
      ports =
        [ in_stream "a" Soc_kernel.Ty.U32; out_stream "y" Soc_kernel.Ty.U32 ];
      locals = [ ("t", Soc_kernel.Ty.U32) ];
      arrays = [];
      body =
        [
          pop "t" "a";
          if_ (v "t" >: int 0) [ push "y" (v "t") ] [];
          while_ (v "t" >: int 0) [ set "t" (v "t" -: int 1); push "y" (v "t") ];
        ];
    }
  in
  let r = Rates.of_kernel k in
  check Alcotest.string "pop exact" "1" (Rates.count_to_string (Rates.pop_count r "a"));
  (* 0..1 from the branch, then 0..unbounded from the while. *)
  check Alcotest.string "push unbounded" "0..?"
    (Rates.count_to_string (Rates.push_count r "y"))

let test_first_op_index_orders_reads () =
  let seg = List.assoc "segment" (Soc_apps.Otsu.kernels ~width:32 ~height:32) in
  let thr = Option.get (Rates.first_op_index seg "otsuThreshold") in
  let img = Option.get (Rates.first_op_index seg "grayScaleImage") in
  check Alcotest.bool "segment reads the threshold before the image" true (thr < img)

(* ------------------------------------------------------------------ *)
(* Clean designs stay clean                                            *)
(* ------------------------------------------------------------------ *)

let test_case_studies_clean () =
  List.iter
    (fun arch ->
      let spec = Soc_apps.Graphs.arch_spec arch in
      let kernels = Soc_apps.Graphs.arch_kernels arch ~width:32 ~height:32 in
      check (Alcotest.list Alcotest.string)
        (Soc_apps.Graphs.arch_name arch ^ " has no findings")
        [] (codes (Analyze.run ~kernels spec)))
    Soc_apps.Graphs.all_archs;
  check (Alcotest.list Alcotest.string) "fig4 has no findings" []
    (codes
       (Analyze.run
          ~kernels:(Soc_apps.Graphs.fig4_kernels ~width:32 ~height:32)
          Soc_apps.Graphs.fig4_spec))

(* ------------------------------------------------------------------ *)
(* Broken-spec corpus: one design per graph code                       *)
(* ------------------------------------------------------------------ *)

(* Each entry: expected code, DSL source (parsed without validation so the
   analyzer is the one reporting). *)
let graph_corpus =
  let d body = Printf.sprintf "object bad extends App {\n%s\n}" body in
  [
    ( "SOC001",
      d
        {|  tg nodes;
    tg node "A" is "p" end;
    tg node "A" is "q" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("A", "p") end;
  tg end_edges;|}
    );
    ( "SOC002",
      d
        {|  tg nodes;
    tg node "A" is "p" is "p" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("A", "p") end;
  tg end_edges;|}
    );
    ( "SOC003",
      d
        {|  tg nodes;
    tg node "A" is "p" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("A", "p") end;
    tg link 'soc to ("B", "p") end;
  tg end_edges;|}
    );
    ( "SOC004",
      d
        {|  tg nodes;
    tg node "A" is "p" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("A", "p") end;
    tg link ("A", "nope") to 'soc end;
  tg end_edges;|}
    );
    ( "SOC005",
      d
        {|  tg nodes;
    tg node "A" i "r" is "p" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("A", "p") end;
    tg link ("A", "r") to 'soc end;
  tg end_edges;|}
    );
    ( "SOC006",
      d
        {|  tg nodes;
    tg node "A" is "p" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("A", "p") end;
    tg connect "A";
  tg end_edges;|}
    );
    ( "SOC007",
      d
        {|  tg nodes;
    tg node "A" is "p" end;
    tg node "B" is "q" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("A", "p") end;
    tg link ("A", "p") to ("B", "q") end;
  tg end_edges;|}
    );
    ( "SOC008",
      d
        {|  tg nodes;
    tg node "A" is "p" end;
    tg node "B" is "q" end;
    tg node "C" is "r" end;
  tg end_nodes;
  tg edges;
    tg link ("A", "p") to ("B", "q") end;
    tg link ("A", "p") to ("C", "r") end;
  tg end_edges;|}
    );
    ( "SOC009",
      d
        {|  tg nodes;
    tg node "A" is "p" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("A", "p") end;
    tg link 'soc to 'soc end;
  tg end_edges;|}
    );
    ( "SOC010",
      d
        {|  tg nodes;
    tg node "A" is "p" is "q" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("A", "p") end;
  tg end_edges;|}
    );
  ]

let test_graph_corpus () =
  List.iter
    (fun (code, src) ->
      let spec = Parser.parse ~validate:false src in
      let ds = Spec.validate_diags spec in
      check Alcotest.bool (code ^ " reported") true (has_code code ds);
      check Alcotest.bool (code ^ " has a span") true
        (List.exists
           (fun (d : Diag.t) -> d.Diag.code = code && d.Diag.span <> None)
           ds))
    graph_corpus

let test_unattached_lite_node_warns () =
  (* SOC011 (no interface) and SOC012 (register node never referenced) are
     not expressible in the concrete syntax, so build the spec directly. *)
  let spec =
    {
      Spec.design_name = "d";
      nodes = [ Spec.make_node "A" [ ("r", Spec.Lite) ] ];
      edges = [];
    }
  in
  let ds = Spec.validate_diags spec in
  check Alcotest.bool "SOC012 reported" true (has_code "SOC012" ds);
  check Alcotest.bool "as a warning" true
    (List.for_all
       (fun (d : Diag.t) ->
         d.Diag.code <> "SOC012" || d.Diag.severity = Diag.Warning)
       ds);
  let empty = { spec with Spec.nodes = [ Spec.make_node "A" [] ] } in
  check Alcotest.bool "SOC011 reported" true
    (has_code "SOC011" (Spec.validate_diags empty))

(* ------------------------------------------------------------------ *)
(* Kernel-level codes                                                  *)
(* ------------------------------------------------------------------ *)

let spec_one_node ports =
  {
    Spec.design_name = "d";
    nodes = [ Spec.make_node "N" ports ];
    edges =
      List.filter_map
        (fun (p, kind) ->
          if kind <> Spec.Stream then None
          else if p = "a" then Some (Spec.link_edge Spec.Soc (Spec.Port ("N", p)))
          else Some (Spec.link_edge (Spec.Port ("N", p)) Spec.Soc))
        ports;
  }

let test_interface_codes () =
  let open Soc_kernel.Ast.Build in
  let u32 = Soc_kernel.Ty.U32 in
  let kernel ports body =
    { Soc_kernel.Ast.kname = "k"; ports; locals = [ ("t", u32) ]; arrays = []; body }
  in
  let passthrough =
    kernel
      [ in_stream "a" u32; out_stream "y" u32 ]
      [ pop "t" "a"; push "y" (v "t") ]
  in
  let spec = spec_one_node [ ("a", Spec.Stream); ("y", Spec.Stream) ] in
  (* SOC020: no kernel for the node. *)
  check Alcotest.bool "SOC020" true
    (has_code "SOC020" (Analyze.run ~kernels:[ ("M", passthrough) ] spec));
  (* SOC021: DSL declares a port the kernel lacks. *)
  let spec3 =
    spec_one_node [ ("a", Spec.Stream); ("y", Spec.Stream); ("extra", Spec.Lite) ]
  in
  check Alcotest.bool "SOC021" true
    (has_code "SOC021" (Analyze.run ~kernels:[ ("N", passthrough) ] spec3));
  (* SOC022: kernel has a port the DSL does not declare. *)
  let spec2 = spec_one_node [ ("a", Spec.Stream) ] in
  check Alcotest.bool "SOC022" true
    (has_code "SOC022" (Analyze.run ~kernels:[ ("N", passthrough) ] spec2));
  (* SOC023: DSL says 'lite where the kernel has a stream. *)
  let spec_kind = spec_one_node [ ("a", Spec.Stream); ("y", Spec.Lite) ] in
  check Alcotest.bool "SOC023" true
    (has_code "SOC023" (Analyze.run ~kernels:[ ("N", passthrough) ] spec_kind));
  (* SOC024: links drive a port as input, kernel pushes to it. *)
  let backwards =
    kernel
      [ out_stream "a" u32; in_stream "y" u32 ]
      [ pop "t" "y"; push "a" (v "t") ]
  in
  check Alcotest.bool "SOC024" true
    (has_code "SOC024" (Analyze.run ~kernels:[ ("N", backwards) ] spec))

let test_typecheck_codes_lifted () =
  let open Soc_kernel.Ast.Build in
  let u32 = Soc_kernel.Ty.U32 in
  let base body arrays =
    {
      Soc_kernel.Ast.kname = "k";
      ports = [ in_stream "a" u32; out_stream "y" u32 ];
      locals = [ ("t", u32) ];
      arrays;
      body;
    }
  in
  let cases =
    [
      ("KRN101", base [ pop "t" "a"; push "y" (v "ghost") ] []);
      ("KRN102", base [ pop "t" "a"; push "y" (load "ghost" (int 0)) ] []);
      ("KRN103", base [ pop "t" "ghost"; push "y" (v "t") ] []);
      ( "KRN104",
        {
          (base [ pop "t" "a"; push "y" (v "t") ] []) with
          Soc_kernel.Ast.locals = [ ("t", u32); ("t", u32) ];
        } );
      ("KRN105", base [ pop "t" "y"; push "y" (v "t") ] []);
      ("KRN106", base [ pop "t" "a"; push "a" (v "t") ] []);
      ( "KRN107",
        {
          (base [ set "a" (int 1); pop "t" "s"; push "y" (v "t") ] []) with
          Soc_kernel.Ast.ports =
            [ in_scalar "a" u32; in_stream "s" u32; out_stream "y" u32 ];
        } );
      ( "KRN108",
        base
          [ pop "t" "a"; push "y" (load "m" (int 9)) ]
          [ array "m" u32 4 ] );
      ( "KRN109",
        base [ pop "t" "a"; push "y" (v "t") ] [ array "m" u32 0 ] );
      ( "KRN110",
        base
          [ pop "t" "a"; push "y" (v "t") ]
          [ array ~init:[| 1; 2; 3 |] "m" u32 4 ] );
    ]
  in
  List.iter
    (fun (code, k) ->
      match Soc_kernel.Typecheck.check k with
      | Ok () -> Alcotest.failf "%s: kernel unexpectedly typechecks" code
      | Error errs ->
        check Alcotest.bool (code ^ " mapped") true
          (List.exists (fun e -> Analyze.typecheck_code e = code) errs))
    cases;
  (* And the lift: a broken kernel surfaces through Analyze.run. *)
  let spec = spec_one_node [ ("a", Spec.Stream); ("y", Spec.Stream) ] in
  let broken = base [ pop "t" "a"; push "y" (v "ghost") ] [] in
  check Alcotest.bool "lifted into the run" true
    (has_code "KRN101" (Analyze.run ~kernels:[ ("N", broken) ] spec))

(* ------------------------------------------------------------------ *)
(* Rate and deadlock codes                                             *)
(* ------------------------------------------------------------------ *)

let rate_deadlock_source =
  {|object RateDeadlock extends App {
  tg nodes;
    tg node "grayScale" is "imageIn" is "imageOutCH" is "imageOutSEG" end;
    tg node "computeHistogram" is "grayScaleImage" is "histogram" end;
    tg node "segment" is "grayScaleImage" is "otsuThreshold" is "segmentedGrayImage" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("grayScale", "imageIn") end;
    tg link ("grayScale", "imageOutCH") to ("computeHistogram", "grayScaleImage") end;
    tg link ("grayScale", "imageOutSEG") to 'soc end;
    tg link ("computeHistogram", "histogram") to ("segment", "grayScaleImage") end;
    tg link 'soc to ("segment", "otsuThreshold") end;
    tg link ("segment", "segmentedGrayImage") to 'soc end;
  tg end_edges;
}|}

let test_rate_codes () =
  (* SOC031: histogram pushes 256 beats, segment pops 1024 — starvation. *)
  let spec = Parser.parse rate_deadlock_source in
  let ds = Analyze.run ~kernels:(kernels32 ()) spec in
  check Alcotest.bool "SOC031 reported" true (has_code "SOC031" ds);
  check Alcotest.bool "SOC031 is an error" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.code = "SOC031" && d.Diag.severity = Diag.Error)
       ds);
  (* SOC030: reversed — segment's image stream into halfProbability, which
     pops only 256 of the 1024 beats. *)
  let flood =
    {|object Flood extends App {
  tg nodes;
    tg node "grayScale" is "imageIn" is "imageOutCH" is "imageOutSEG" end;
    tg node "halfProbability" is "histogram" is "probability" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("grayScale", "imageIn") end;
    tg link ("grayScale", "imageOutCH") to ("halfProbability", "histogram") end;
    tg link ("grayScale", "imageOutSEG") to 'soc end;
    tg link ("halfProbability", "probability") to 'soc end;
  tg end_edges;
}|}
  in
  let ds = Analyze.run ~kernels:(kernels32 ()) (Parser.parse flood) in
  check Alcotest.bool "SOC030 reported as warning" true
    (List.exists
       (fun (d : Diag.t) ->
         d.Diag.code = "SOC030" && d.Diag.severity = Diag.Warning)
       ds);
  check Alcotest.bool "SOC030 alone does not make errors" false (Diag.has_errors ds)

let test_unknown_rate_is_info () =
  let open Soc_kernel.Ast.Build in
  let u32 = Soc_kernel.Ty.U32 in
  (* A data-dependent producer: pushes while the popped value is nonzero. *)
  let producer =
    {
      Soc_kernel.Ast.kname = "p";
      ports = [ in_stream "a" u32; out_stream "y" u32 ];
      locals = [ ("t", u32) ];
      arrays = [];
      body = [ pop "t" "a"; while_ (v "t" >: int 0) [ push "y" (v "t"); set "t" (v "t" -: int 1) ] ];
    }
  in
  let consumer =
    {
      Soc_kernel.Ast.kname = "c";
      ports = [ in_stream "x" u32; out_stream "z" u32 ];
      locals = [ ("t", u32) ];
      arrays = [];
      body = [ pop "t" "x"; push "z" (v "t") ];
    }
  in
  let spec =
    {
      Spec.design_name = "d";
      nodes =
        [
          Spec.make_node "P" [ ("a", Spec.Stream); ("y", Spec.Stream) ];
          Spec.make_node "C" [ ("x", Spec.Stream); ("z", Spec.Stream) ];
        ];
      edges =
        [
          Spec.link_edge Spec.Soc (Spec.Port ("P", "a"));
          Spec.link_edge (Spec.Port ("P", "y")) (Spec.Port ("C", "x"));
          Spec.link_edge (Spec.Port ("C", "z")) Spec.Soc;
        ];
    }
  in
  let ds = Analyze.run ~kernels:[ ("P", producer); ("C", consumer) ] spec in
  check Alcotest.bool "SOC032 reported" true (has_code "SOC032" ds);
  check Alcotest.bool "only info" false (Diag.has_errors ds)

let test_fifo_depth_deadlock_warning () =
  (* Arch4's diamond at 48x48: grayScale buffers 2304 beats on the SEG
     branch while segment first waits for the threshold — more than the
     default 1024-deep FIFO holds. *)
  let spec = Soc_apps.Graphs.arch_spec Soc_apps.Graphs.Arch4 in
  let kernels = Soc_apps.Graphs.arch_kernels Soc_apps.Graphs.Arch4 ~width:48 ~height:48 in
  let ds = Analyze.run ~kernels spec in
  check Alcotest.bool "SOC033 reported" true (has_code "SOC033" ds);
  check Alcotest.bool "as a warning, not an error" false (Diag.has_errors ds);
  (* A deep enough FIFO silences it. *)
  let deep =
    { Soc_platform.Config.zedboard with Soc_platform.Config.default_fifo_depth = 4096 }
  in
  check Alcotest.bool "silent at depth 4096" false
    (has_code "SOC033" (Analyze.run ~config:deep ~kernels spec))

let test_preflight_refuses_deadlock_design () =
  (* The acceptance case: this design used to pass the flow and only die
     at co-simulation with Deadlock; the analyzer now refuses the build
     with a diagnostic. *)
  let spec = Parser.parse rate_deadlock_source in
  let kernels = kernels32 () in
  check Alcotest.bool "pre-flight has errors" true
    (Diag.has_errors (Flow.pre_flight spec ~kernels));
  match Flow.build spec ~kernels with
  | exception Flow.Build_error msg ->
    check Alcotest.bool "names the code" true
      (Tstr.contains msg "SOC031");
    check Alcotest.bool "names the link" true
      (Tstr.contains msg "computeHistogram.histogram->segment.grayScaleImage");
    (* A farm batch analyzes the entry once, at plan time: the plan keeps
       the verdict (no HLS jobs), and the integrate job refuses with the
       same text as the single-design flow. *)
    let entry = { Soc_farm.Jobgraph.spec; kernels } in
    let g = Soc_farm.Jobgraph.plan [ entry ] in
    check Alcotest.bool "plan keeps the verdict" true
      (Diag.has_errors g.Soc_farm.Jobgraph.pre_flight.(0));
    check Alcotest.int "no HLS jobs planned" 0 (Soc_farm.Jobgraph.distinct_kernels g);
    let r = Soc_farm.Farm.build_batch [ entry ] in
    (match r.Soc_farm.Farm.failures with
    | [ { Soc_farm.Pool.reason = Soc_farm.Pool.Exception text; _ } ] ->
      check Alcotest.string "farm refusal text" (Printexc.to_string (Flow.Build_error msg))
        text
    | _ -> Alcotest.fail "expected one integrate failure")
  | _ -> Alcotest.fail "expected the build to be refused"

(* ------------------------------------------------------------------ *)
(* Shared-memory races (SOC040)                                        *)
(* ------------------------------------------------------------------ *)

let test_race_detection () =
  let htg = Soc_apps.Graphs.fig1_htg in
  (* ADD and MUL are concurrently schedulable (both fan out of N1). *)
  let overlapping =
    [ ("ADD", (0x1000, 0x100)); ("MUL", (0x1080, 0x100)) ]
  in
  let ds = Analyze.races ~htg ~regions:overlapping in
  check Alcotest.bool "SOC040 reported" true (has_code "SOC040" ds);
  (* N1 -> ADD are ordered by a precedence edge: same region is fine. *)
  let ordered = [ ("N1", (0x1000, 0x100)); ("ADD", (0x1000, 0x100)) ] in
  check (Alcotest.list Alcotest.string) "ordered nodes may share" []
    (codes (Analyze.races ~htg ~regions:ordered));
  (* Disjoint regions between concurrent nodes are fine. *)
  let disjoint = [ ("ADD", (0x1000, 0x100)); ("MUL", (0x2000, 0x100)) ] in
  check (Alcotest.list Alcotest.string) "disjoint regions are clean" []
    (codes (Analyze.races ~htg ~regions:disjoint));
  (* And through run, driven by the HTG + region plan. *)
  let spec = Soc_apps.Graphs.arch_spec Soc_apps.Graphs.Arch1 in
  let kernels = Soc_apps.Graphs.arch_kernels Soc_apps.Graphs.Arch1 ~width:32 ~height:32 in
  check Alcotest.bool "run surfaces the race" true
    (has_code "SOC040" (Analyze.run ~kernels ~htg ~regions:overlapping spec))

(* ------------------------------------------------------------------ *)
(* Address map and resource budget (RES2xx)                            *)
(* ------------------------------------------------------------------ *)

let test_address_overlap () =
  let map = [ ("a", 0x4000_0000, 0x1_0000); ("b", 0x4000_8000, 0x1_0000) ] in
  (match Layout.address_overlaps map with
  | [ ("a", "b", addr) ] -> check Alcotest.int "first overlap" 0x4000_8000 addr
  | _ -> Alcotest.fail "expected exactly one overlap");
  let spec = Soc_apps.Graphs.arch_spec Soc_apps.Graphs.Arch1 in
  check Alcotest.bool "derived maps never overlap" true
    (Layout.address_overlaps (Layout.address_map_of_spec spec) = []);
  check Alcotest.bool "RES201 through run" true
    (has_code "RES201" (Analyze.run ~address_map:map spec))

let test_resource_budget () =
  let spec = Soc_apps.Graphs.arch_spec Soc_apps.Graphs.Arch4 in
  let kernels = Soc_apps.Graphs.arch_kernels Soc_apps.Graphs.Arch4 ~width:32 ~height:32 in
  let huge = { Soc_hls.Report.lut = 60_000; ff = 10_000; bram18 = 10; dsp = 0 } in
  let ds =
    Analyze.run ~kernels ~resources:[ ("grayScale", huge) ] spec
  in
  check Alcotest.bool "RES210 over budget" true (has_code "RES210" ds);
  check Alcotest.bool "RES210 is an error" true (Diag.has_errors ds);
  (* Pick a grayScale usage that lands the whole design at ~95% LUT:
     warn-but-fit territory, computed against the same estimates the
     analyzer uses for the other nodes. *)
  let fifo_depth =
    Soc_platform.Config.zedboard.Soc_platform.Config.default_fifo_depth
  in
  let others =
    Soc_hls.Report.sum
      (Layout.integration_resources spec ~fifo_depth
      :: List.filter_map
           (fun (name, k) ->
             if name = "grayScale" then None
             else Some (Analyze.estimate_kernel_resources k))
           kernels)
  in
  let device = Soc_hls.Report.zynq_7z020 in
  let near =
    {
      Soc_hls.Report.lut = (device.Soc_hls.Report.d_lut * 95 / 100) - others.Soc_hls.Report.lut;
      ff = 1_000;
      bram18 = 2;
      dsp = 0;
    }
  in
  let ds = Analyze.run ~kernels ~resources:[ ("grayScale", near) ] spec in
  check Alcotest.bool "RES211 near budget" true (has_code "RES211" ds);
  check Alcotest.bool "RES211 is only a warning" false (Diag.has_errors ds)

let test_estimates_are_sane () =
  List.iter
    (fun (name, k) ->
      let u = Analyze.estimate_kernel_resources k in
      check Alcotest.bool (name ^ " estimate positive") true
        (u.Soc_hls.Report.lut > 0 && u.Soc_hls.Report.ff > 0);
      check Alcotest.bool (name ^ " estimate fits alone") true
        (Soc_hls.Report.fits u))
    (kernels32 ())

(* ------------------------------------------------------------------ *)
(* Runtime findings share the renderer                                 *)
(* ------------------------------------------------------------------ *)

let test_stream_violation_diags () =
  let d =
    Soc_axi.Stream_rules.to_diag
      (Soc_axi.Stream_rules.Valid_dropped { channel = "ch"; cycle = 7 })
  in
  check Alcotest.string "code" "RUN301" d.Diag.code;
  check Alcotest.string "subject" "ch" d.Diag.subject;
  let d =
    Soc_axi.Stream_rules.to_diag
      (Soc_axi.Stream_rules.Data_changed
         { channel = "ch"; cycle = 9; before = 1; after = 2 })
  in
  check Alcotest.string "code" "RUN302" d.Diag.code;
  check Alcotest.bool "renders like static diags" true
    (Tstr.contains (Diag.to_string d) "error[RUN302] ch:")

let test_chaos_outcome_diags () =
  (* A clean campaign yields no findings; recovery yields RUN31x. *)
  let clean =
    Soc_apps.Chaos_runner.run ~width:8 ~height:8 ~seed:3 ~n_faults:0
      Soc_apps.Graphs.Arch1
  in
  check (Alcotest.list Alcotest.string) "clean campaign" []
    (codes (Soc_apps.Chaos_runner.diags clean));
  let noisy =
    Soc_apps.Chaos_runner.run ~width:8 ~height:8 ~seed:3 ~n_faults:4
      Soc_apps.Graphs.Arch1
  in
  List.iter
    (fun (d : Diag.t) ->
      check Alcotest.bool "RUN31x code" true
        (List.mem d.Diag.code [ "RUN310"; "RUN311"; "RUN312" ]))
    (Soc_apps.Chaos_runner.diags noisy)

(* ------------------------------------------------------------------ *)
(* Spans and the parse/print diagnostic-identity law                   *)
(* ------------------------------------------------------------------ *)

let test_spans_point_at_source () =
  let src =
    "object d extends App {\n  tg nodes;\n    tg node \"A\" is \"p\" is \"q\" end;\n\
     \  tg end_nodes;\n  tg edges;\n    tg link 'soc to (\"A\", \"p\") end;\n\
     \  tg end_edges;\n}"
  in
  let spec = Parser.parse ~validate:false src in
  (match Spec.node_span spec "A" with
  | Some { Diag.line = 3; _ } -> ()
  | other ->
    Alcotest.failf "node span %s"
      (match other with
      | None -> "missing"
      | Some { Diag.line; col } -> Printf.sprintf "%d:%d" line col));
  (* SOC010 for the dangling "q" port carries the node's span. *)
  check Alcotest.bool "diagnostic carries the span" true
    (List.exists
       (fun (d : Diag.t) ->
         d.Diag.code = "SOC010"
         && d.Diag.span = Some { Diag.line = 3; col = 5 })
       (Spec.validate_diags spec))

let strip_spans_of_diags ds =
  List.map (fun (d : Diag.t) -> { d with Diag.span = None }) ds

(* Parsing the printed form of a spec yields the very same diagnostics
   (modulo source spans, which programmatic specs lack). Mutating the spec
   first makes the property meaningful for broken designs too. *)
let prop_print_parse_same_diags =
  QCheck.Test.make ~name:"parse-of-print preserves diagnostics" ~count:100
    (QCheck.make Test_dsl.random_spec_gen)
    (fun spec ->
      let mutated =
        match spec.Spec.edges with
        | [] -> spec
        | _ :: rest -> { spec with Spec.edges = rest }
      in
      let reparsed = Parser.parse ~validate:false (Printer.to_source mutated) in
      strip_spans_of_diags (Spec.validate_diags mutated)
      = strip_spans_of_diags (Spec.validate_diags reparsed))

let suite =
  [
    ("diag rendering (text + json)", `Quick, test_diag_rendering);
    ("diag sort / Werror / suppress", `Quick, test_diag_sort_and_filters);
    ("otsu kernel rates are exact", `Quick, test_otsu_rates_exact);
    ("rate bounds: branches and while", `Quick, test_rate_bounds_branch_and_while);
    ("first-op index orders reads", `Quick, test_first_op_index_orders_reads);
    ("case studies analyze clean", `Quick, test_case_studies_clean);
    ("graph corpus: one design per code", `Quick, test_graph_corpus);
    ("SOC011/SOC012: interface-less and unattached nodes", `Quick,
     test_unattached_lite_node_warns);
    ("SOC02x: interface mismatches", `Quick, test_interface_codes);
    ("KRN1xx: typecheck errors lifted", `Quick, test_typecheck_codes_lifted);
    ("SOC030/031: rate mismatches", `Quick, test_rate_codes);
    ("SOC032: data-dependent rates are info", `Quick, test_unknown_rate_is_info);
    ("SOC033: FIFO-depth deadlock warning", `Quick, test_fifo_depth_deadlock_warning);
    ("pre-flight refuses the cosim-deadlock design", `Quick,
     test_preflight_refuses_deadlock_design);
    ("SOC040: shared-memory races", `Quick, test_race_detection);
    ("RES201: address overlaps", `Quick, test_address_overlap);
    ("RES210/211: resource budget", `Quick, test_resource_budget);
    ("resource estimates sane", `Quick, test_estimates_are_sane);
    ("RUN301/302: protocol violations as diags", `Quick, test_stream_violation_diags);
    ("RUN31x: chaos outcomes as diags", `Quick, test_chaos_outcome_diags);
    ("spans point at source", `Quick, test_spans_point_at_source);
    qtest prop_print_parse_same_diags;
  ]
