(** The flow coordinator: what "executing" the DSL does (Section IV).

    From a validated {!Spec.t} plus one kernel ("synthesizable C") per node,
    [build] performs, in order:
    + consistency checks between the DSL interfaces and the kernel ports;
    + HLS on every node (through {!Soc_hls.Engine});
    + system integration: Tcl generation for both backend versions, address
      map assignment, DMA planning for every 'soc-crossing stream;
    + logic synthesis cost aggregation (the Table II numbers);
    + software generation: device tree, boot set, C API ({!Swgen});
    + tool-runtime estimation (the Fig. 9 numbers).

    [instantiate] then turns a build into a live simulated system
    ({!Soc_platform.System}) ready to run under the co-simulation
    executive — the equivalent of booting the generated bitstream on the
    Zedboard. *)

module Ast = Soc_kernel.Ast

type mismatch =
  | Missing_kernel of string
  | Missing_port of string * string
  | Extra_port of string * string
  | Kind_mismatch of string * string (* node, port *)
  | Direction_mismatch of string * string

let pp_mismatch fmt = function
  | Missing_kernel n -> Format.fprintf fmt "no kernel provided for node %S" n
  | Missing_port (n, p) -> Format.fprintf fmt "kernel for %S lacks port %S" n p
  | Extra_port (n, p) -> Format.fprintf fmt "kernel for %S has undeclared port %S" n p
  | Kind_mismatch (n, p) ->
    Format.fprintf fmt "node %S port %S: DSL interface kind differs from kernel port" n p
  | Direction_mismatch (n, p) ->
    Format.fprintf fmt "node %S port %S: link direction conflicts with kernel port direction" n p

(* Check one node's kernel against its DSL declaration. *)
let check_kernel (spec : Spec.t) (node : Spec.node_spec) (k : Ast.kernel) : mismatch list =
  let errs = ref [] in
  let kports = List.map (fun p -> (Ast.port_name p, p)) k.ports in
  List.iter
    (fun (pname, kind) ->
      match List.assoc_opt pname kports with
      | None -> errs := Missing_port (node.node_name, pname) :: !errs
      | Some kp -> (
        let kernel_kind = if Ast.is_stream kp then Spec.Stream else Spec.Lite in
        if kernel_kind <> kind then errs := Kind_mismatch (node.node_name, pname) :: !errs
        else if kind = Spec.Stream then
          match Spec.stream_direction spec ~node:node.node_name ~port:pname with
          | Some Spec.Input when Ast.port_dir kp <> Ast.In ->
            errs := Direction_mismatch (node.node_name, pname) :: !errs
          | Some Spec.Output when Ast.port_dir kp <> Ast.Out ->
            errs := Direction_mismatch (node.node_name, pname) :: !errs
          | _ -> ()))
    node.node_ports;
  List.iter
    (fun (pname, _) ->
      if not (List.mem_assoc pname node.node_ports) then
        errs := Extra_port (node.node_name, pname) :: !errs)
    kports;
  List.rev !errs

type node_impl = {
  node : Spec.node_spec;
  kernel : Ast.kernel;
  accel : Soc_hls.Engine.accel;
}

(* Integration planning lives in {!Soc_analysis.Layout} so the static
   analyzer shares it; re-exported here under the historical names. *)
type dma_channel = Soc_analysis.Layout.dma_channel = {
  logical : string * string; (* node, port *)
  direction : [ `To_device | `From_device ];
}

let dma_channels_of_spec = Soc_analysis.Layout.dma_channels_of_spec
let address_map_of_spec = Soc_analysis.Layout.address_map_of_spec

type build = {
  spec : Spec.t;
  dsl_source : string; (* canonical DSL text (conciseness metric) *)
  impls : node_impl list;
  tcl_2014 : string;
  tcl_2015 : string;
  address_map : (string * int * int) list;
  dma_channels : dma_channel list;
  resources : Soc_hls.Report.usage; (* aggregated system total *)
  resources_by_core : (string * Soc_hls.Report.usage) list;
  sw : Swgen.boot_artifacts;
  tool_times : Toolsim.breakdown;
  bitstream : string; (* artifact name, as the paper's flow reports it *)
}

exception Build_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Build_error s)) fmt

let integration_resources = Soc_analysis.Layout.integration_resources

(* Pre-flight static analysis: every error the analyzer can prove from
   the spec and kernel ASTs alone refuses the build before any HLS is
   spent — with diagnostics, not exceptions from deep in the flow. *)
let pre_flight ?config (spec : Spec.t) ~(kernels : (string * Ast.kernel) list) :
    Soc_util.Diag.t list =
  Soc_analysis.Analyze.run ?config ~kernels spec

let reject_pre_flight diags =
  if Soc_util.Diag.has_errors diags then
    fail "static analysis rejected the design:\n%s"
      (String.concat "\n"
         (List.filter_map
            (fun (d : Soc_util.Diag.t) ->
              if d.Soc_util.Diag.severity = Soc_util.Diag.Error then
                Some (Soc_util.Diag.to_string d)
              else None)
            diags))

(* ------------------------------------------------------------------ *)
(* Staged flow                                                         *)
(*                                                                     *)
(* [build] is a composition of the stages below. They are exposed      *)
(* separately so an orchestrator (Soc_farm) can run them as jobs of a  *)
(* dependency graph — per-kernel HLS, per-arch integration, synthesis  *)
(* aggregation and software generation — without duplicating the flow  *)
(* logic here.                                                         *)
(* ------------------------------------------------------------------ *)

type hls_engine =
  config:Soc_hls.Engine.config ->
  Ast.kernel ->
  [ `Reused | `Synthesized ] * Soc_hls.Engine.accel

let direct_hls : hls_engine =
 fun ~config kernel -> (`Synthesized, Soc_hls.Engine.synthesize ~config kernel)

(* Stage 1: kernel/interface consistency. *)
let pair_kernels (spec : Spec.t) ~(kernels : (string * Ast.kernel) list) :
    (Spec.node_spec * Ast.kernel) list =
  List.map
    (fun (node : Spec.node_spec) ->
      match List.assoc_opt node.node_name kernels with
      | None -> fail "%s" (Format.asprintf "%a" pp_mismatch (Missing_kernel node.node_name))
      | Some kernel -> (
        match check_kernel spec node kernel with
        | [] -> (node, kernel)
        | errs ->
          fail "%s" (String.concat "; " (List.map (Format.asprintf "%a" pp_mismatch) errs))))
    spec.nodes

(* Stage 2: HLS per node, through a pluggable engine. *)
let synthesize_impls ?(hls = direct_hls) ~hls_config pairs :
    (node_impl * [ `Reused | `Synthesized ]) list =
  List.map
    (fun (node, kernel) ->
      let origin, accel = hls ~config:hls_config kernel in
      ({ node; kernel; accel }, origin))
    pairs

(* Stage 2b: RTL lint over every generated netlist. The FSMD generator
   is expected to produce lint-clean RTL, so an error-severity finding
   (multi-driven signal, combinational loop) is a generator bug surfaced
   as a named RTL5xx diagnostic here instead of as silent simulation
   weirdness downstream. Warnings are left to [socdsl check --rtl]. *)
let lint_impl_netlist ~(name : string) (net : Soc_rtl.Netlist.t) =
  let diags = Soc_rtl.Lint.check net in
  if Soc_util.Diag.has_errors diags then
    fail "RTL lint rejected %s:\n%s" name
      (String.concat "\n"
         (List.filter_map
            (fun (d : Soc_util.Diag.t) ->
              if d.Soc_util.Diag.severity = Soc_util.Diag.Error then
                Some (Soc_util.Diag.to_string d)
              else None)
            diags))

let lint_impls (impls : node_impl list) =
  List.iter
    (fun (impl : node_impl) ->
      lint_impl_netlist ~name:impl.node.Spec.node_name impl.accel.fsmd.netlist)
    impls

(* Stage 3: system integration (Tcl for both backends, address map, DMA). *)
type integration = {
  int_tcl_2014 : string;
  int_tcl_2015 : string;
  int_address_map : (string * int * int) list;
  int_dma_channels : dma_channel list;
}

let integrate (spec : Spec.t) : integration =
  {
    int_tcl_2014 = Tcl.generate ~version:Tcl.V2014_2 spec;
    int_tcl_2015 = Tcl.generate ~version:Tcl.V2015_3 spec;
    int_address_map = address_map_of_spec spec;
    int_dma_channels = dma_channels_of_spec spec;
  }

(* Stage 4: resource aggregation ("post-synthesis" Table II numbers). *)
let aggregate_resources (spec : Spec.t) ~fifo_depth (impls : node_impl list) :
    (string * Soc_hls.Report.usage) list * Soc_hls.Report.usage =
  let by_core =
    List.map
      (fun impl ->
        (impl.node.Spec.node_name, impl.accel.Soc_hls.Engine.report.Soc_hls.Report.resources))
      impls
  in
  let total =
    Soc_hls.Report.sum (List.map snd by_core @ [ integration_resources spec ~fifo_depth ])
  in
  (by_core, total)

(* Stage 5: software generation. *)
let generate_software (spec : Spec.t) (integ : integration) : Swgen.boot_artifacts =
  Swgen.generate spec ~address_map:integ.int_address_map

(* Stage 6: tool-runtime estimation, charging only freshly-synthesized
   kernels for the HLS phase (the Fig. 9 reuse, keyed the same way the
   actual accelerator reuse is). *)
let estimate_tools (spec : Spec.t) ~dsl_source
    (impls : (node_impl * [ `Reused | `Synthesized ]) list) (integ : integration)
    ~(resources : Soc_hls.Report.usage) : Toolsim.breakdown =
  Toolsim.estimate_costed ~arch:spec.design_name
    ~dsl_lines:(Soc_util.Metrics.of_string dsl_source).Soc_util.Metrics.lines
    ~kernel_costs:
      (List.map
         (fun (i, origin) ->
           {
             Toolsim.kname = i.kernel.Ast.kname;
             complexity = Ast.complexity i.kernel;
             reused = origin = `Reused;
           })
         impls)
    ~cells:(List.length spec.nodes + List.length integ.int_dma_channels + 3)
    ~luts:resources.Soc_hls.Report.lut

let assemble (spec : Spec.t) ~dsl_source (impls : node_impl list) (integ : integration)
    ~resources ~resources_by_core ~sw ~tool_times : build =
  {
    spec;
    dsl_source;
    impls;
    tcl_2014 = integ.int_tcl_2014;
    tcl_2015 = integ.int_tcl_2015;
    address_map = integ.int_address_map;
    dma_channels = integ.int_dma_channels;
    resources;
    resources_by_core;
    sw;
    tool_times;
    bitstream = spec.design_name ^ "_bd_wrapper.bit";
  }

let build ?(hls_config = Soc_hls.Engine.default_config)
    ?(fifo_depth = Soc_platform.Config.zedboard.Soc_platform.Config.default_fifo_depth)
    ?(hls = direct_hls) (spec : Spec.t) ~(kernels : (string * Ast.kernel) list) : build =
  Spec.validate_exn spec;
  if kernels <> [] then reject_pre_flight (pre_flight spec ~kernels);
  let pairs = pair_kernels spec ~kernels in
  let impls_o = synthesize_impls ~hls ~hls_config pairs in
  let impls = List.map fst impls_o in
  lint_impls impls;
  let integ = integrate spec in
  let resources_by_core, resources = aggregate_resources spec ~fifo_depth impls in
  let sw = generate_software spec integ in
  let dsl_source = Printer.to_source spec in
  let tool_times = estimate_tools spec ~dsl_source impls_o integ ~resources in
  assemble spec ~dsl_source impls integ ~resources ~resources_by_core ~sw ~tool_times

(* ------------------------------------------------------------------ *)
(* Instantiation: "boot the board"                                     *)
(* ------------------------------------------------------------------ *)

type live = {
  lbuild : build;
  system : Soc_platform.System.t;
  exec : Soc_platform.Executive.t;
  (* logical (node, port) -> DMA channel name inside the system *)
  channels : ((string * string) * string) list;
}

let instantiate ?(config = Soc_platform.Config.zedboard) ?fifo_depth
    ?(mode = `Rtl) (b : build) : live =
  let config =
    match fifo_depth with
    | Some d -> { config with Soc_platform.Config.default_fifo_depth = d }
    | None -> config
  in
  let sys = Soc_platform.System.create ~config () in
  List.iter
    (fun impl ->
      match mode with
      | `Rtl ->
        ignore
          (Soc_platform.System.add_accel sys ~name:impl.node.Spec.node_name
             impl.accel.Soc_hls.Engine.fsmd)
      | `Behavioral ->
        ignore
          (Soc_platform.System.add_accel_behavioral sys ~name:impl.node.Spec.node_name
             impl.kernel))
    b.impls;
  List.iter
    (fun ((a, ap), (bn, bp)) ->
      ignore (Soc_platform.System.link_stream sys ~src:(a, ap) ~dst:(bn, bp)))
    (Spec.internal_links b.spec);
  let channels =
    List.map
      (fun (ch : dma_channel) ->
        let n, p = ch.logical in
        match ch.direction with
        | `To_device ->
          let name, _ = Soc_platform.System.add_mm2s sys ~dst:(n, p) in
          (ch.logical, name)
        | `From_device ->
          let name, _ = Soc_platform.System.add_s2mm sys ~src:(n, p) in
          (ch.logical, name))
      b.dma_channels
  in
  (let diags = Soc_platform.System.validate sys in
   if Soc_util.Diag.has_errors diags then
     fail "integration produced an inconsistent system:\n%s"
       (String.concat "\n"
          (List.map (fun d -> Soc_util.Diag.to_string d)
             (List.filter
                (fun (d : Soc_util.Diag.t) ->
                  d.Soc_util.Diag.severity = Soc_util.Diag.Error)
                diags))));
  { lbuild = b; system = sys; exec = Soc_platform.Executive.create sys; channels }

let channel (live : live) ~node ~port =
  match List.assoc_opt (node, port) live.channels with
  | Some name -> name
  | None -> fail "no DMA channel for %s.%s" node port
