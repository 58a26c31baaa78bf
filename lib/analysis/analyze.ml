(* Whole-design static analysis. Everything here must be cheap relative
   to HLS/co-simulation: each check works from the spec, the kernel ASTs
   and closed-form estimates only. *)

module Diag = Soc_util.Diag
module Ast = Soc_kernel.Ast
module Typecheck = Soc_kernel.Typecheck
module Report = Soc_hls.Report
module Config = Soc_platform.Config
module Htg = Soc_htg.Htg

let qual node port = node ^ "." ^ port

(* ------------------------------------------------------------------ *)
(* Kernel type errors (KRN1xx)                                         *)

let typecheck_code : Typecheck.error -> string = function
  | Typecheck.Unknown_variable _ -> "KRN101"
  | Typecheck.Unknown_array _ -> "KRN102"
  | Typecheck.Unknown_stream _ -> "KRN103"
  | Typecheck.Duplicate_name _ -> "KRN104"
  | Typecheck.Read_from_output _ -> "KRN105"
  | Typecheck.Write_to_input _ -> "KRN106"
  | Typecheck.Assign_to_input_scalar _ -> "KRN107"
  | Typecheck.Constant_index_out_of_bounds _ -> "KRN108"
  | Typecheck.Bad_array_size _ -> "KRN109"
  | Typecheck.Bad_init_length _ -> "KRN110"

let kernel_diags spec kernels =
  List.concat_map
    (fun (node, (k : Ast.kernel)) ->
      match Typecheck.check k with
      | Ok () -> []
      | Error errs ->
        let span = Spec.node_span spec node in
        List.map
          (fun e ->
            Diag.error ?span ~code:(typecheck_code e)
              ~subject:(node ^ ":" ^ k.Ast.kname)
              (Typecheck.error_to_string e))
          errs)
    kernels

(* Kernels whose types check; rate analysis over a broken kernel would
   report nonsense on top of the real error. *)
let well_typed kernels =
  List.filter
    (fun (_, k) -> match Typecheck.check k with Ok () -> true | Error _ -> false)
    kernels

(* ------------------------------------------------------------------ *)
(* DSL interface vs. kernel ports (SOC02x)                             *)

let interface_diags (spec : Spec.t) kernels =
  List.concat_map
    (fun (node : Spec.node_spec) ->
      let n = node.Spec.node_name in
      let span = node.Spec.node_span in
      match List.assoc_opt n kernels with
      | None ->
        [ Diag.error ?span ~code:"SOC020" ~subject:n
            (Printf.sprintf "no kernel provided for node %S" n) ]
      | Some (k : Ast.kernel) ->
        let kports = List.map (fun p -> (Ast.port_name p, p)) k.Ast.ports in
        let declared =
          List.concat_map
            (fun (pname, kind) ->
              match List.assoc_opt pname kports with
              | None ->
                [ Diag.error ?span ~code:"SOC021" ~subject:(qual n pname)
                    (Printf.sprintf "kernel %S lacks port %S" k.Ast.kname pname) ]
              | Some kp ->
                let kernel_kind =
                  if Ast.is_stream kp then Spec.Stream else Spec.Lite
                in
                if kernel_kind <> kind then
                  [ Diag.error ?span ~code:"SOC023" ~subject:(qual n pname)
                      (Printf.sprintf
                         "port kind mismatch: declared %s in the DSL but the \
                          kernel port is %s"
                         (match kind with Spec.Lite -> "'lite" | Spec.Stream -> "'stream")
                         (if Ast.is_stream kp then "a stream" else "a scalar")) ]
                else if kind = Spec.Stream then
                  match Spec.stream_direction spec ~node:n ~port:pname with
                  | Some Spec.Input when Ast.port_dir kp <> Ast.In ->
                    [ Diag.error ?span ~code:"SOC024" ~subject:(qual n pname)
                        "link direction conflicts with kernel port direction \
                         (links drive it as an input; the kernel pushes)" ]
                  | Some Spec.Output when Ast.port_dir kp <> Ast.Out ->
                    [ Diag.error ?span ~code:"SOC024" ~subject:(qual n pname)
                        "link direction conflicts with kernel port direction \
                         (links read it as an output; the kernel pops)" ]
                  | _ -> []
                else [])
            node.Spec.node_ports
        in
        let extra =
          List.filter_map
            (fun (pname, _) ->
              if List.mem_assoc pname node.Spec.node_ports then None
              else
                Some
                  (Diag.error ?span ~code:"SOC022" ~subject:(qual n pname)
                     (Printf.sprintf
                        "kernel %S has undeclared port %S (not in the DSL \
                         interface)"
                        k.Ast.kname pname)))
            kports
        in
        declared @ extra)
    spec.Spec.nodes

(* ------------------------------------------------------------------ *)
(* Stream rate / deadlock analysis (SOC03x)                            *)

(* Per-node rate tables for nodes whose kernel is available and typed. *)
let rate_tables kernels = List.map (fun (n, k) -> (n, (k, Rates.of_kernel k))) kernels

(* Node-level dataflow adjacency over internal links. *)
let internal_successors spec node =
  List.filter_map
    (fun (((a, _), (b, _)) : (string * string) * (string * string)) ->
      if a = node then Some b else None)
    (Spec.internal_links spec)

let reaches spec ~src ~dst =
  let rec go visited = function
    | [] -> false
    | n :: rest ->
      if n = dst then true
      else if List.mem n visited then go visited rest
      else go (n :: visited) (internal_successors spec n @ rest)
  in
  go [] [ src ]

let link_subject ((a, ap), (b, bp)) = qual a ap ^ "->" ^ qual b bp

let rate_diags (spec : Spec.t) ~fifo_depth kernels =
  let tables = rate_tables kernels in
  List.concat_map
    (fun (((a, ap), (b, bp)) as link) ->
      match (List.assoc_opt a tables, List.assoc_opt b tables) with
      | Some (_, ra), Some ((bk : Ast.kernel), rb) -> (
        let span = Spec.node_span spec a in
        let subject = link_subject link in
        let prod = Rates.push_count ra ap and cons = Rates.pop_count rb bp in
        let mismatch =
          match (Rates.exact prod, Rates.exact cons) with
          | Some p, Some c when p < c ->
            [ Diag.error ?span ~code:"SOC031" ~subject
                (Printf.sprintf
                   "%S pushes %d beats per activation but %S pops %d: the \
                    consumer starves after the producer finishes — guaranteed \
                    stream deadlock at co-simulation"
                   a p b c) ]
          | Some p, Some c when p > c ->
            [ Diag.warning ?span ~code:"SOC030" ~subject
                (Printf.sprintf
                   "rate mismatch: %S pushes %d beats per activation but %S \
                    pops only %d; %d beats accumulate in the FIFO each round"
                   a p b c (p - c)) ]
          | Some _, Some _ -> []
          | _ ->
            (* Bounded-interval disjointness still proves a mismatch. *)
            let disjoint_starve =
              match prod.Rates.hi with Some h -> h < cons.Rates.lo | None -> false
            in
            let disjoint_flood =
              match cons.Rates.hi with Some h -> prod.Rates.lo > h | None -> false
            in
            if disjoint_starve then
              [ Diag.error ?span ~code:"SOC031" ~subject
                  (Printf.sprintf
                     "%S pushes at most %s beats but %S pops at least %s: \
                      guaranteed stream deadlock at co-simulation"
                     a (Rates.count_to_string prod) b (Rates.count_to_string cons)) ]
            else if disjoint_flood then
              [ Diag.warning ?span ~code:"SOC030" ~subject
                  (Printf.sprintf
                     "rate mismatch: %S pushes at least %s beats but %S pops \
                      at most %s"
                     a (Rates.count_to_string prod) b (Rates.count_to_string cons)) ]
            else
              [ Diag.info ?span ~code:"SOC032" ~subject
                  (Printf.sprintf
                     "stream rates not statically determinable (%S pushes %s, \
                      %S pops %s); co-simulation remains the oracle"
                     a (Rates.count_to_string prod) b (Rates.count_to_string cons)) ]
        in
        (* FIFO-sizing deadlock (SOC033): the consumer first blocks on
           another input whose data flows through this link's producer, so
           every beat of this link must sit in the FIFO meanwhile. *)
        let depth_risk =
          match Rates.exact prod with
          | Some r when r > fifo_depth -> (
            match Rates.first_op_index bk bp with
            | None -> []
            | Some here ->
              let blocking_inputs =
                List.filter_map
                  (fun (((c, _), (b', q)) : (string * string) * (string * string)) ->
                    if b' = b && q <> bp then
                      match Rates.first_op_index bk q with
                      | Some earlier when earlier < here && reaches spec ~src:a ~dst:c ->
                        Some q
                      | _ -> None
                    else None)
                  (Spec.internal_links spec)
              in
              match blocking_inputs with
              | [] -> []
              | q :: _ ->
                [ Diag.warning ?span ~code:"SOC033" ~subject
                    (Printf.sprintf
                       "FIFO depth %d cannot hold the %d beats buffered while \
                        %S first waits on %S (fed through %S): deadlock at \
                        this depth — deepen the FIFO or reorder the \
                        consumer's reads"
                       fifo_depth r b (qual b q) a) ])
          | _ -> []
        in
        mismatch @ depth_risk)
      | _ -> [])
    (Spec.internal_links spec)

(* ------------------------------------------------------------------ *)
(* Shared-memory races over the top-level HTG (SOC040)                 *)

let htg_reaches (htg : Htg.t) ~src ~dst =
  let rec go visited = function
    | [] -> false
    | n :: rest ->
      if n = dst then true
      else if List.mem n visited then go visited rest
      else go (n :: visited) (Htg.successors htg n @ rest)
  in
  go [] [ src ]

let concurrent htg a b =
  (not (htg_reaches htg ~src:a ~dst:b)) && not (htg_reaches htg ~src:b ~dst:a)

let races ~(htg : Htg.t) ~regions =
  let rec pairs = function
    | [] -> []
    | (n1, (b1, s1)) :: rest ->
      List.filter_map
        (fun (n2, (b2, s2)) ->
          if n1 <> n2 && concurrent htg n1 n2 && b1 < b2 + s2 && b2 < b1 + s1 then
            Some
              (Diag.error ~code:"SOC040" ~subject:(n1 ^ "/" ^ n2)
                 (Printf.sprintf
                    "concurrently schedulable nodes share the DRAM region \
                     [0x%x, 0x%x): no precedence edge orders their accesses"
                    (max b1 b2)
                    (min (b1 + s1) (b2 + s2))))
          else None)
        rest
      @ pairs rest
  in
  pairs regions

(* ------------------------------------------------------------------ *)
(* Resource budget (RES2xx)                                            *)

let count_muls (k : Ast.kernel) =
  let n = ref 0 in
  let rec expr = function
    | Ast.Int _ | Ast.Var _ -> ()
    | Ast.Load (_, e) -> expr e
    | Ast.Bin (op, a, b) ->
      if op = Ast.Mul then incr n;
      expr a;
      expr b
    | Ast.Un (_, e) -> expr e
  in
  let rec stmt = function
    | Ast.Assign (_, e) | Ast.Push (_, e) -> expr e
    | Ast.Store (_, i, e) ->
      expr i;
      expr e
    | Ast.Pop _ -> ()
    | Ast.If (c, a, b) ->
      expr c;
      List.iter stmt a;
      List.iter stmt b
    | Ast.While (c, body) ->
      expr c;
      List.iter stmt body
    | Ast.For (_, lo, hi, body) ->
      expr lo;
      expr hi;
      List.iter stmt body
  in
  List.iter stmt k.Ast.body;
  !n

(* Deliberately coarse: the point is catching designs an order of
   magnitude over budget before HLS, not matching the netlist numbers. *)
let estimate_kernel_resources (k : Ast.kernel) : Report.usage =
  let c = Ast.complexity k in
  let bram18 =
    List.fold_left
      (fun acc (a : Ast.array_decl) -> acc + Report.bram18_for ~size:a.Ast.size ~width:32)
      0 k.Ast.arrays
  in
  { Report.lut = 120 + (9 * c); ff = 140 + (6 * c); bram18; dsp = 3 * count_muls k }

let budget_diags (spec : Spec.t) ~fifo_depth ~kernels ~resources =
  let per_node =
    List.filter_map
      (fun (n : Spec.node_spec) ->
        let name = n.Spec.node_name in
        match List.assoc_opt name resources with
        | Some u -> Some u
        | None ->
          Option.map estimate_kernel_resources (List.assoc_opt name kernels))
      spec.Spec.nodes
  in
  let total =
    Report.sum (Layout.integration_resources spec ~fifo_depth :: per_node)
  in
  let device = Report.zynq_7z020 in
  let util = Report.utilization ~device total in
  let describe =
    List.filter_map (fun (name, used, avail, pct) ->
        if used > avail then Some (Printf.sprintf "%s %d/%d (%.0f%%)" name used avail pct)
        else None)
  in
  if not (Report.fits ~device total) then
    [ Diag.error ~code:"RES210" ~subject:spec.Spec.design_name
        (Printf.sprintf "design exceeds the %s budget: %s"
           device.Report.device_name
           (String.concat ", " (describe util))) ]
  else
    let near =
      List.filter_map
        (fun (name, used, avail, pct) ->
          if pct >= 90.0 then Some (Printf.sprintf "%s %d/%d (%.0f%%)" name used avail pct)
          else None)
        util
    in
    if near = [] then []
    else
      [ Diag.warning ~code:"RES211" ~subject:spec.Spec.design_name
          (Printf.sprintf "design uses over 90%% of the %s on: %s"
             device.Report.device_name (String.concat ", " near)) ]

let overlap_diags map =
  List.map
    (fun (n1, n2, addr) ->
      Diag.error ~code:"RES201" ~subject:(n1 ^ "/" ^ n2)
        (Printf.sprintf "AXI-Lite address segments overlap at 0x%x" addr))
    (Layout.address_overlaps map)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let run ?(config = Config.zedboard) ?(kernels = []) ?htg ?(regions = [])
    ?address_map ?(resources = []) (spec : Spec.t) =
  let graph = Spec.validate_diags spec in
  let graph_ok = not (Diag.has_errors graph) in
  let fifo_depth = config.Config.default_fifo_depth in
  let relevant_kernels =
    List.filter (fun (n, _) -> Spec.find_node spec n <> None) kernels
  in
  let krn = kernel_diags spec relevant_kernels in
  (* Interface/rate/budget checks only make sense over a sound graph. *)
  let deep =
    if (not graph_ok) || kernels = [] then []
    else
      let typed = well_typed relevant_kernels in
      interface_diags spec relevant_kernels
      @ rate_diags spec ~fifo_depth typed
      @ budget_diags spec ~fifo_depth ~kernels:typed ~resources
  in
  let map =
    match address_map with
    | Some m -> m
    | None -> if graph_ok then Layout.address_map_of_spec spec else []
  in
  let race =
    match htg with Some h when regions <> [] -> races ~htg:h ~regions | _ -> []
  in
  Diag.sort (graph @ krn @ deep @ overlap_diags map @ race)

(* ------------------------------------------------------------------ *)

let code_table =
  [
    ("SOC000", "DSL source does not parse");
    ("SOC001", "duplicate node name");
    ("SOC002", "duplicate port on a node");
    ("SOC003", "edge references an unknown node");
    ("SOC004", "edge references an unknown port");
    ("SOC005", "'lite port used in a stream link");
    ("SOC006", "'stream port used in a register connect");
    ("SOC007", "port linked as both producer and consumer");
    ("SOC008", "stream port used by more than one link");
    ("SOC009", "link connects 'soc to 'soc");
    ("SOC010", "stream port left unconnected");
    ("SOC011", "node has no interface at all");
    ("SOC012", "register-only node referenced by no edge");
    ("SOC020", "no kernel provided for a node");
    ("SOC021", "kernel lacks a declared DSL port");
    ("SOC022", "kernel port missing from the DSL interface");
    ("SOC023", "DSL port kind differs from the kernel port");
    ("SOC024", "link direction conflicts with the kernel port direction");
    ("SOC030", "producer pushes more beats than the consumer pops");
    ("SOC031", "producer pushes fewer beats than the consumer pops (deadlock)");
    ("SOC032", "stream rates not statically determinable");
    ("SOC033", "FIFO depth provably too small for the consumer's read order");
    ("SOC040", "concurrently schedulable HTG nodes share a DRAM region");
    ("SOC050", "integration left a stream port unbound");
    ("SOC051", "duplicate DMA channel");
    ("SOC052", "FIFO attached to no accelerator");
    ("SOC053", "stream port driven by both a FIFO and a DMA channel");
    ("KRN101", "unknown variable in a kernel");
    ("KRN102", "unknown array in a kernel");
    ("KRN103", "unknown stream in a kernel");
    ("KRN104", "duplicate declaration in a kernel");
    ("KRN105", "kernel reads from an output stream");
    ("KRN106", "kernel writes to an input stream");
    ("KRN107", "kernel assigns to an input scalar");
    ("KRN108", "constant array index out of bounds");
    ("KRN109", "array declared with a non-positive size");
    ("KRN110", "array initialiser length differs from the declared size");
    ("RES201", "AXI-Lite address segments overlap");
    ("RES210", "design exceeds the device resource budget");
    ("RES211", "design uses over 90% of a device resource");
    ("RUN301", "stream protocol: valid dropped before ready");
    ("RUN302", "stream protocol: data changed while valid stalled");
    ("RUN310", "hardware task degraded to its software fallback");
    ("RUN311", "campaign output diverged from the golden model");
    ("RUN312", "hardware recovery needed retries");
    ("IO400", "corrupt cache artifact quarantined");
    ("IO401", "truncated cache artifact quarantined");
    ("IO402", "cache artifact from a stale format version (treated as a miss)");
    ("IO403", "journal has an invalid suffix (torn write dropped on replay)");
    ("IO404", "orphan temporary file removed by fsck");
    ("IO405", "journal compacted by fsck");
    ("IO410", "cache size cap spared a journal-protected entry");
    ("RTL500", "netlist signal driven more than once");
    ("RTL501", "constant truncated by its width or assignment target");
    ("RTL502", "register enable is constant-false with live next-state logic");
    ("RTL503", "FSM state compared against but unreachable");
    ("RTL504", "memory read but never written and not initialised");
    ("RTL505", "combinational loop (cycle path named)");
    ("RTL510", "tape reads a slot before any write (def-before-use)");
    ("RTL511", "tape references a store slot out of bounds");
    ("RTL512", "tape instruction malformed (opcode or result mask)");
    ("RTL513", "tape segment writes a netlist-visible or constant slot");
    ("RTL514", "tape reuses a value across gated segments");
    ("RTL515", "tape keep set no longer covers the observable signals");
    ("RTL516", "tape commit tables or segment geometry malformed");
    ("RTL517", "tape writes the same slot twice");
  ]

(* One paragraph per code family, composed with the per-code line by
   [explain] — background a one-liner cannot carry. *)
let family_notes =
  [
    ( "SOC00",
      "Task-graph structure checks: the DSL source parsed, but the graph it \
       describes is malformed — duplicate names, dangling references, ports \
       wired against their declared kind. These run first and gate every \
       deeper analysis, because rate or interface checks over a broken graph \
       would only produce noise." );
    ( "SOC02",
      "Interface consistency checks between a node's DSL-declared ports and \
       the kernel bound to it: every declared port must exist on the kernel \
       with the same kind and a compatible direction, so integration cannot \
       silently drop or cross-wire a connection." );
    ( "SOC03",
      "Static SDF-style stream-rate analysis: per-kernel push/pop bounds are \
       extracted from the kernel IR and balanced across each link. Mismatched \
       rates mean overflow or starvation; a consumer that provably pops more \
       than its producer pushes is a deadlock at runtime, caught here in \
       milliseconds instead of after a co-simulation." );
    ( "SOC04",
      "Concurrency checks over the hierarchical task graph: nodes with no \
       precedence path either way may be scheduled concurrently, so their \
       planned DRAM regions must not intersect." );
    ( "SOC05",
      "System-integration checks run by System.validate after layout: every \
       stream port bound exactly once, DMA channels unique, FIFOs attached — \
       the wiring invariants the generated platform code assumes." );
    ( "KRN1",
      "Kernel IR type errors, lifted into the unified diagnostic stream: \
       unknown names, direction violations (reading an output stream, \
       assigning an input scalar), and statically-out-of-bounds array \
       accesses inside one kernel's code." );
    ( "RES2",
      "Resource and address-map checks against the target device profile: \
       AXI-Lite segments must not overlap, and the design's estimated (or \
       post-synthesis) LUT/FF/BRAM/DSP usage must fit the configured budget, \
       with a warning band above 90%." );
    ( "RUN3",
      "Runtime findings from monitors and campaigns rendered in the same \
       currency as static checks: stream-protocol violations observed in \
       co-simulation, hardware tasks that degraded to software fallbacks, and \
       chaos-campaign divergences." );
    ( "IO4",
      "Durability findings from the content-addressed cache and write-ahead \
       journal: corrupt, truncated or stale-version artifacts are quarantined \
       and rebuilt rather than trusted; fsck repairs journals and removes \
       orphan temporaries. These are health reports — the store heals itself." );
    ( "RTL50",
      "Netlist lint: structural checks on the post-HLS RTL (multi-driven \
       signals, truncating constants, dead enables, unreachable FSM states, \
       write-less memories, combinational loops). Generated netlists are \
       expected to lint clean; a finding here points at a generator bug \
       caught before synthesis or simulation, not after." );
    ( "RTL51",
      "Tape translation validation: the compiled co-simulation backend \
       lowers each netlist to a flat instruction tape and re-checks the \
       tape's structural invariants after lowering, after every optimizer \
       pass and on every cache load — def-before-use, slot bounds, segment \
       isolation, keep-set preservation, commit-table geometry. A failure \
       names the pass that miscompiled and degrades the build to the \
       reference interpreter instead of simulating wrong." );
  ]

let explain code =
  let code = String.uppercase_ascii code in
  match List.assoc_opt code code_table with
  | None -> None
  | Some line ->
    let family =
      List.fold_left
        (fun best (prefix, note) ->
          (* Longest matching prefix wins (RTL50 vs RTL51). *)
          if String.length code >= String.length prefix
             && String.sub code 0 (String.length prefix) = prefix
          then
            match best with
            | Some (bp, _) when String.length bp >= String.length prefix -> best
            | _ -> Some (prefix, note)
          else best)
        None family_notes
    in
    Some
      (match family with
      | Some (_, note) -> Printf.sprintf "%s: %s\n\n%s" code line note
      | None -> Printf.sprintf "%s: %s" code line)
