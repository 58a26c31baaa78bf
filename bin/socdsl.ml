(* socdsl: command-line front end of the task-graph DSL tool.

   Mirrors the designer-facing surface of the paper's tool without needing
   kernels: parse and validate DSL sources, pretty-print them, generate the
   Vivado Tcl for either backend version, the device tree, the C API, the
   block diagram, and the conciseness metrics of Section VI.C.

     socdsl check design.tg
     socdsl print design.tg
     socdsl tcl design.tg --backend 2015.3
     socdsl devicetree design.tg
     socdsl api design.tg
     socdsl diagram design.tg --format dot
     socdsl metrics design.tg
     socdsl demo              # emits the paper's Listing 4

   Use "-" as the file to read from stdin. *)

open Cmdliner

let read_source path =
  if path = "-" then In_channel.input_all In_channel.stdin
  else In_channel.with_open_text path In_channel.input_all

let load path =
  match read_source path with
  | exception Sys_error msg -> Error msg
  | source -> (
    match Soc_core.Parser.parse_result source with
    | Ok spec -> Ok spec
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("socdsl: " ^ msg);
    exit 1

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"DSL source file (- for stdin).")

(* Every generator that can write a file goes through the shared atomic
   writer: output is committed with temp + rename, so a crash mid-write
   never leaves a torn artifact where a good one should be. *)
let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
       ~doc:"Write the output atomically to $(docv) instead of stdout.")

let emit output s =
  match output with
  | None -> print_string s
  | Some path ->
    Soc_util.Atomic_io.write_file path s;
    Printf.printf "wrote %s\n" path

(* Global deterministic seed, shared by every subcommand that involves any
   randomness (chaos campaigns) or emits a report (build, farm): the
   effective seed is always printed, so any run can be reproduced. *)
let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
       ~doc:"Deterministic seed; every report prints the effective value.")

(* ---------------- check ---------------- *)

(* The built-in kernel library: node names from the case studies resolve to
   their kernels so a .tg file can be pushed through the whole flow from
   the command line. *)
let builtin_kernels () =
  let w = 32 and h = 32 in
  Soc_apps.Otsu.kernels ~width:w ~height:h
  @ Soc_apps.Graphs.fig4_kernels ~width:w ~height:h
  @ Soc_apps.Xtea.loopback_kernels ~blocks:(w * h / 2)
  @ Soc_apps.Fir.pipeline_kernels ~samples:(w * h)

let check_cmd =
  let module Diag = Soc_util.Diag in
  (* Diagnostics of one file: SOC000 when the source does not even parse,
     the full analyzer stream otherwise. *)
  let diags_of_file ~graph_only file =
    match read_source file with
    | exception Sys_error msg ->
      prerr_endline ("socdsl: " ^ msg);
      exit 2
    | source -> (
      let parse_diag ~line ~col msg =
        [ Diag.error
            ~span:{ Diag.line; col }
            ~code:"SOC000" ~subject:file msg ]
      in
      match Soc_core.Parser.parse ~validate:false source with
      | exception Soc_core.Parser.Parse_error (msg, line, col) ->
        parse_diag ~line ~col msg
      | exception Soc_core.Lexer.Lex_error (msg, line, col) ->
        parse_diag ~line ~col msg
      | spec ->
        (* The analyzer ignores kernels for nodes outside the spec and
           reports SOC020 for spec nodes the library cannot resolve. *)
        let kernels = if graph_only then [] else builtin_kernels () in
        Soc_analysis.Analyze.run ~kernels spec)
  in
  (* RTL static verification of one netlist: lint, then — only when the
     lint found no errors (a multi-driven or cyclic netlist cannot be
     lowered meaningfully) — lower to an instruction tape and run the
     translation validator after lowering and after every optimizer
     pass. *)
  let rtl_diags_of_net ~subject net =
    let lint = Soc_rtl.Lint.check net in
    if Diag.has_errors lint then lint
    else
      lint
      @
      match Soc_rtl_compile.Csim.compile_tape net with
      | (_ : Soc_rtl_compile.Tape.t) -> []
      | exception Soc_rtl_compile.Verify.Tape_invalid err ->
        [ Soc_rtl_compile.Verify.to_diag ~subject err ]
  in
  (* [--rtl] dispatch: a [.ntl] file is a netlist to verify directly; a
     DSL source is front-end checked, then every node's kernel is
     synthesized and its generated netlist verified. *)
  let rtl_diags_of_file ~graph_only file =
    if Filename.check_suffix file ".ntl" then
      match Soc_rtl.Netlist_reader.parse_file file with
      | exception Sys_error msg ->
        prerr_endline ("socdsl: " ^ msg);
        exit 2
      | exception Soc_rtl.Netlist_reader.Parse_error msg ->
        [ Diag.error ~code:"SOC000" ~subject:file msg ]
      | net -> rtl_diags_of_net ~subject:file net
    else
      let front = diags_of_file ~graph_only file in
      if Diag.has_errors front then front
      else
        match read_source file with
        | exception Sys_error msg ->
          prerr_endline ("socdsl: " ^ msg);
          exit 2
        | source -> (
          match Soc_core.Parser.parse ~validate:false source with
          | exception _ -> front (* already reported above *)
          | spec ->
            let kernels = builtin_kernels () in
            front
            @ List.concat_map
                (fun (node : Soc_core.Spec.node_spec) ->
                  match List.assoc_opt node.Soc_core.Spec.node_name kernels with
                  | None -> [] (* unresolved kernels are SOC020, in [front] *)
                  | Some k ->
                    let accel = Soc_hls.Engine.synthesize k in
                    rtl_diags_of_net
                      ~subject:(file ^ ":" ^ node.Soc_core.Spec.node_name)
                      accel.Soc_hls.Engine.fsmd.netlist)
                spec.Soc_core.Spec.nodes)
  in
  let run files format werror ignored graph_only codes explain rtl =
    (match explain with
    | None -> ()
    | Some code -> (
      match Soc_analysis.Analyze.explain code with
      | Some text ->
        print_endline text;
        exit 0
      | None ->
        Printf.eprintf "socdsl: unknown diagnostic code %S (see --codes)\n" code;
        exit 2));
    if codes then begin
      List.iter
        (fun (code, doc) -> Printf.printf "%s  %s\n" code doc)
        Soc_analysis.Analyze.code_table;
      exit 0
    end;
    if files = [] then begin
      prerr_endline "socdsl: no input files (or pass --codes)";
      exit 2
    end;
    let per_file =
      List.map
        (fun file ->
          let ds =
            (if rtl then rtl_diags_of_file ~graph_only file
             else diags_of_file ~graph_only file)
            |> Diag.suppress ~codes:ignored
            |> fun ds -> if werror then Diag.promote_warnings ds else ds
          in
          (file, Diag.sort ds))
        files
    in
    (match format with
    | `Text ->
      List.iter
        (fun (file, ds) ->
          List.iter (fun d -> print_endline (Diag.to_string ~file d)) ds;
          Printf.printf "%s: %s\n" file
            (if ds = [] then "clean"
             else
               Printf.sprintf "%d error(s), %d warning(s)" (Diag.error_count ds)
                 (Diag.warning_count ds)))
        per_file
    | `Json ->
      let all =
        List.concat_map
          (fun (file, ds) -> List.map (Diag.to_json ~file) ds)
          per_file
      in
      print_endline
        (if all = [] then "[]"
         else "[\n  " ^ String.concat ",\n  " all ^ "\n]"));
    if List.exists (fun (_, ds) -> Diag.has_errors ds) per_file then exit 1
  in
  let files_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"FILE"
         ~doc:"DSL source files (- for stdin).")
  in
  let format_arg =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
  in
  let werror_arg =
    Arg.(value & flag & info [ "Werror" ]
         ~doc:"Treat warnings as errors (after --ignore filtering).")
  in
  let ignore_arg =
    Arg.(value & opt (list string) [] & info [ "ignore" ] ~docv:"CODES"
         ~doc:"Comma-separated diagnostic codes to suppress, e.g. SOC032,RES211.")
  in
  let graph_only_arg =
    Arg.(value & flag & info [ "graph-only" ]
         ~doc:"Skip kernel-level checks (rates, typecheck, resources); graph \
               and address-map checks only.")
  in
  let codes_arg =
    Arg.(value & flag & info [ "codes" ]
         ~doc:"List every stable diagnostic code with its meaning and exit.")
  in
  let explain_arg =
    Arg.(value & opt (some string) None & info [ "explain" ] ~docv:"CODE"
         ~doc:"Print a one-paragraph description of a diagnostic code and exit.")
  in
  let rtl_arg =
    Arg.(value & flag & info [ "rtl" ]
         ~doc:"RTL static verification: netlist lint (RTL50x) plus \
               instruction-tape translation validation after lowering and \
               after every optimizer pass (RTL51x). $(b,.ntl) files are \
               verified directly; DSL sources are front-end checked, then \
               every node's kernel is synthesized and its generated netlist \
               verified.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically analyze DSL sources: graph well-formedness, kernel \
          interface and type checks, SDF-style stream rate/deadlock analysis, \
          address-map and resource-budget checks; with $(b,--rtl), netlist \
          lint and tape translation validation. Exits 1 if any error is \
          found, 0 otherwise.")
    Term.(const run $ files_arg $ format_arg $ werror_arg $ ignore_arg
          $ graph_only_arg $ codes_arg $ explain_arg $ rtl_arg)

(* ---------------- print ---------------- *)

let print_cmd =
  let run file =
    print_string (Soc_core.Printer.to_source (or_die (load file)))
  in
  Cmd.v (Cmd.info "print" ~doc:"Pretty-print the canonical form of a DSL source.")
    Term.(const run $ file_arg)

(* ---------------- tcl ---------------- *)

let backend_conv =
  Arg.enum [ ("2014.2", Soc_core.Tcl.V2014_2); ("2015.3", Soc_core.Tcl.V2015_3) ]

let backend_arg =
  Arg.(value & opt backend_conv Soc_core.Tcl.V2015_3 & info [ "backend" ] ~docv:"VERSION"
         ~doc:"Vivado backend version (2014.2 or 2015.3).")

let tcl_cmd =
  let run file backend output =
    emit output (Soc_core.Tcl.generate ~version:backend (or_die (load file)))
  in
  Cmd.v (Cmd.info "tcl" ~doc:"Generate the Vivado integration Tcl script.")
    Term.(const run $ file_arg $ backend_arg $ output_arg)

(* ---------------- qsys (Altera backend) ---------------- *)

let qsys_cmd =
  let run file output = emit output (Soc_core.Quartus.generate (or_die (load file))) in
  Cmd.v
    (Cmd.info "qsys"
       ~doc:"Generate the Altera Qsys/Quartus integration script (vendor extensibility).")
    Term.(const run $ file_arg $ output_arg)

(* ---------------- devicetree / api ---------------- *)

let devicetree_cmd =
  let run file output =
    let spec = or_die (load file) in
    let sw = Soc_core.Swgen.generate spec ~address_map:(Soc_core.Flow.address_map_of_spec spec) in
    emit output sw.Soc_core.Swgen.device_tree
  in
  Cmd.v (Cmd.info "devicetree" ~doc:"Generate the Linux device-tree source.")
    Term.(const run $ file_arg $ output_arg)

let api_cmd =
  let run file header output =
    let spec = or_die (load file) in
    let sw = Soc_core.Swgen.generate spec ~address_map:(Soc_core.Flow.address_map_of_spec spec) in
    emit output (if header then sw.Soc_core.Swgen.api_header else sw.Soc_core.Swgen.api_source)
  in
  let header_arg =
    Arg.(value & flag & info [ "header" ] ~doc:"Emit the header instead of the C source.")
  in
  Cmd.v (Cmd.info "api" ~doc:"Generate the C driver API (source, or header with --header).")
    Term.(const run $ file_arg $ header_arg $ output_arg)

(* ---------------- diagram ---------------- *)

let diagram_cmd =
  let run file format output =
    let spec = or_die (load file) in
    emit output
      (match format with
      | `Dot -> Soc_core.Block_diagram.dot_of_spec spec
      | `Ascii -> Soc_core.Block_diagram.ascii_of_spec spec)
  in
  let format_arg =
    Arg.(value & opt (enum [ ("dot", `Dot); ("ascii", `Ascii) ]) `Ascii
         & info [ "format" ] ~docv:"FMT" ~doc:"Output format: dot or ascii.")
  in
  Cmd.v (Cmd.info "diagram" ~doc:"Render the Fig. 10-style block diagram.")
    Term.(const run $ file_arg $ format_arg $ output_arg)

(* ---------------- metrics ---------------- *)

let metrics_cmd =
  let run file =
    let spec = or_die (load file) in
    let dsl = Soc_util.Metrics.of_string (Soc_core.Printer.to_source spec) in
    let tcl = Soc_util.Metrics.of_string (Soc_core.Tcl.generate ~version:Soc_core.Tcl.V2014_2 spec) in
    Printf.printf "DSL: %s\n" (Format.asprintf "%a" Soc_util.Metrics.pp_volume dsl);
    Printf.printf "Tcl: %s\n" (Format.asprintf "%a" Soc_util.Metrics.pp_volume tcl);
    Printf.printf "ratios: %.1fx lines, %.1fx characters\n"
      (Soc_util.Metrics.ratio ~num:tcl.Soc_util.Metrics.lines ~den:dsl.Soc_util.Metrics.lines)
      (Soc_util.Metrics.ratio ~num:tcl.Soc_util.Metrics.chars ~den:dsl.Soc_util.Metrics.chars)
  in
  Cmd.v (Cmd.info "metrics" ~doc:"Report the Section VI.C conciseness metrics (DSL vs Tcl).")
    Term.(const run $ file_arg)

(* ---------------- build / farm shared crash-safety plumbing ---------------- *)

let kill_stages = String.concat ", " Soc_farm.Jobgraph.stages

let kill_at_conv =
  let parse s =
    let bad = `Msg "expected STAGE:INDEX, e.g. hls:2 or synth:0" in
    match String.index_opt s ':' with
    | None -> Error bad
    | Some i -> (
      let stage = String.sub s 0 i
      and idx = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt idx with
      | Some k when k >= 0 ->
        if List.mem stage Soc_farm.Jobgraph.stages then Ok (Soc_fault.Fault.Kill_at (stage, k))
        else Error (`Msg (Printf.sprintf "unknown stage %S (stages: %s)" stage kill_stages))
      | _ -> Error bad)
  in
  let print ppf (Soc_fault.Fault.Kill_at (s, k)) = Format.fprintf ppf "%s:%d" s k in
  Arg.conv (parse, print)

let kill_arg =
  Arg.(value & opt (some kill_at_conv) None & info [ "kill-at" ] ~docv:"STAGE:K"
       ~doc:("Crash-test the journal: simulate process death the instant the \
              K-th job of STAGE (" ^ kill_stages ^ ") is journaled in-flight. \
              The run exits 137 with the journal sealed; rerun with --resume."))

let resume_arg =
  Arg.(value & flag & info [ "resume" ]
       ~doc:"Replay the write-ahead journal in --cache-dir: completed jobs \
             are skipped (artifacts re-verified from the cache), in-flight \
             ones re-enqueued.")

let cache_max_mb_arg =
  Arg.(value & opt (some int) None & info [ "cache-max-mb" ] ~docv:"MB"
       ~doc:"Cap the disk cache at $(docv) megabytes; least-recently-used \
             entries are evicted (journal-live entries never are).")

let sim_arg =
  Arg.(value
       & opt
           (enum
              [ ("compiled", Soc_rtl_compile.Engine.Compiled);
                ("interp", Soc_rtl_compile.Engine.Interp) ])
           Soc_rtl_compile.Engine.Compiled
       & info [ "sim" ] ~docv:"BACKEND"
           ~doc:"Netlist co-simulation backend: $(b,compiled) (lowered, \
                 optimized instruction tape; the default) or $(b,interp) \
                 (the reference interpreter, kept as the differential \
                 oracle). Both produce bit-identical results.")

let require_cache_dir ~resume cache_dir =
  if resume && cache_dir = None then begin
    prerr_endline "socdsl: --resume requires --cache-dir (the journal lives there)";
    exit 2
  end

let open_journal ~resume cache_dir =
  Option.map
    (fun dir -> Soc_farm.Journal.open_ ~resume (Filename.concat dir Soc_farm.Journal.default_name))
    cache_dir

let report_replay journal =
  match journal with
  | None -> ()
  | Some j ->
    let st = Soc_farm.Journal.status_of (Soc_farm.Journal.replayed j) in
    if st.Soc_farm.Journal.completed <> [] || st.Soc_farm.Journal.in_flight <> []
       || Soc_farm.Journal.dropped j > 0
    then
      Printf.printf "journal: replaying %d completed, %d in-flight job(s)%s\n"
        (List.length st.Soc_farm.Journal.completed)
        (List.length st.Soc_farm.Journal.in_flight)
        (if Soc_farm.Journal.dropped j > 0 then
           Printf.sprintf " (%d corrupt line(s) dropped)" (Soc_farm.Journal.dropped j)
         else "")

let die_killed stage k =
  Printf.eprintf
    "socdsl: simulated crash at %s:%d; journal sealed, committed artifacts are \
     intact -- rerun with --resume to continue\n"
    stage k;
  exit 137

let print_cache_diags cache =
  List.iter
    (fun d -> print_endline (Soc_util.Diag.to_string d))
    (Soc_farm.Cache.diags cache)

(* ---------------- build ---------------- *)

let build_cmd =
  let run file seed cache_dir max_mb resume kill =
    require_cache_dir ~resume cache_dir;
    let spec = or_die (load file) in
    Printf.printf "effective seed: %d\n" seed;
    let missing =
      List.filter
        (fun (n : Soc_core.Spec.node_spec) ->
          not (List.mem_assoc n.Soc_core.Spec.node_name (builtin_kernels ())))
        spec.Soc_core.Spec.nodes
    in
    if missing <> [] then begin
      Printf.eprintf
        "socdsl: no built-in kernel for: %s\n(known kernels: %s)\n"
        (String.concat ", "
           (List.map (fun (n : Soc_core.Spec.node_spec) -> n.Soc_core.Spec.node_name) missing))
        (String.concat ", " (List.map fst (builtin_kernels ())));
      exit 1
    end;
    let entry = Soc_farm.Jobgraph.entry_of ~library:(builtin_kernels ()) spec in
    let cache = Soc_farm.Cache.create ?disk_dir:cache_dir ?max_mb () in
    let journal = open_journal ~resume cache_dir in
    report_replay journal;
    match Soc_farm.Farm.build_batch ~jobs:1 ~cache ?journal ?kill [ entry ] with
    | exception Soc_fault.Fault.Killed (s, k) -> die_killed s k
    | { Soc_farm.Farm.builds = []; failures; pre_flight; _ } ->
      (* A design static analysis rejects is refused with the plan's
         diagnostics as plain text, not as a failed integrate job. *)
      (try Soc_core.Flow.reject_pre_flight pre_flight.(0)
       with Soc_core.Flow.Build_error msg ->
         prerr_endline ("socdsl: " ^ msg);
         exit 1);
      List.iter
        (fun f -> Format.eprintf "socdsl: FAILED %a@." Soc_farm.Pool.pp_failure f)
        failures;
      exit 1
    | { Soc_farm.Farm.builds = (_, b) :: _; _ } ->
      Option.iter Soc_farm.Journal.close journal;
      if cache_dir <> None then begin
        print_endline (Soc_farm.Cache.render_stats cache);
        print_cache_diags cache
      end;
      Printf.printf "%s: flow complete\n" spec.Soc_core.Spec.design_name;
      Printf.printf "bitstream artifact: %s\n" b.Soc_core.Flow.bitstream;
      Printf.printf "resources: %s\n"
        (Format.asprintf "%a" Soc_hls.Report.pp_usage b.Soc_core.Flow.resources);
      Format.printf "%a"
        (Soc_hls.Report.pp_utilization ?device:None)
        b.Soc_core.Flow.resources;
      Printf.printf "fits xc7z020: %b\n" (Soc_hls.Report.fits b.Soc_core.Flow.resources);
      Printf.printf "estimated tool time: %s\n"
        (Format.asprintf "%a" Soc_core.Toolsim.pp b.Soc_core.Flow.tool_times);
      List.iter
        (fun (impl : Soc_core.Flow.node_impl) ->
          Format.printf "%a" Soc_hls.Perf.pp impl.Soc_core.Flow.accel.Soc_hls.Engine.perf)
        b.Soc_core.Flow.impls
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Persist verified HLS artifacts (and the write-ahead journal) \
               in $(docv); later runs reuse them.")
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:
         "Run the full flow (HLS + integration + swgen) on a DSL source, resolving \
          node names against the built-in kernel library (case-study kernels). \
          With --cache-dir the run is crash-safe: progress is journaled, artifacts \
          are committed atomically, and --resume continues an interrupted run.")
    Term.(const run $ file_arg $ seed_arg $ cache_dir_arg $ cache_max_mb_arg
          $ resume_arg $ kill_arg)

(* ---------------- farm ---------------- *)

let farm_cmd =
  let run files jobs cache_dir max_mb resume kill manifest trace_out seed =
    require_cache_dir ~resume cache_dir;
    Printf.printf "effective seed: %d\n" seed;
    let entries =
      List.map
        (fun file ->
          Soc_farm.Jobgraph.entry_of ~library:(builtin_kernels ()) (or_die (load file)))
        files
    in
    let cache = Soc_farm.Cache.create ?disk_dir:cache_dir ?max_mb () in
    let journal = open_journal ~resume cache_dir in
    report_replay journal;
    match Soc_farm.Farm.build_batch ?jobs ~cache ?journal ?kill entries with
    | exception Soc_fault.Fault.Killed (s, k) -> die_killed s k
    | report ->
      print_string (Soc_farm.Farm.render_report report);
      print_cache_diags cache;
      Option.iter Soc_farm.Journal.close journal;
      (match manifest with
      | Some path ->
        Soc_util.Atomic_io.write_file path (Soc_farm.Farm.manifest_json report);
        Printf.printf "manifest written to %s\n" path
      | None -> ());
      (match trace_out with
      | Some path ->
        Soc_farm.Trace.save report.Soc_farm.Farm.trace path;
        Printf.printf "trace written to %s (load in chrome://tracing)\n" path
      | None -> ());
      if report.Soc_farm.Farm.failures <> [] then exit 1
  in
  let files_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE"
         ~doc:"DSL source files; the batch shares one content-addressed HLS cache.")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Workers: the calling thread plus $(docv)-1 helper domains (default: \
               the recommended domain count). Results are bit-identical for any value.")
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Persist the artifact cache to $(docv); later runs reuse HLS results \
               across invocations.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace_event JSON timeline of the batch to $(docv).")
  in
  let manifest_arg =
    Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE"
         ~doc:"Write a JSON manifest of per-design build digests to $(docv) \
               (atomic); byte-compare a resumed run against a clean one.")
  in
  Cmd.v
    (Cmd.info "farm"
       ~doc:
         "Build a batch of DSL sources on the parallel build farm: per-kernel HLS jobs \
          are deduplicated by content hash and shared across architectures, work runs \
          on worker domains, and failures are reported per job without aborting the \
          batch. With --cache-dir the batch is crash-safe: journaled progress, \
          atomic checksummed artifacts, --resume after any interruption.")
    Term.(const run $ files_arg $ jobs_arg $ cache_dir_arg $ cache_max_mb_arg
          $ resume_arg $ kill_arg $ manifest_arg $ trace_arg $ seed_arg)

(* ---------------- explore ---------------- *)

(* Shared by `socdsl explore` and `socdsl client explore`. *)
let strategy_arg =
  Arg.(value & opt string "evolve" & info [ "strategy" ] ~docv:"NAME"
       ~doc:"Search strategy: $(b,exhaustive), $(b,random), $(b,greedy) or \
             $(b,evolve).")

let samples_arg =
  Arg.(value & opt int 32 & info [ "samples" ] ~docv:"N"
       ~doc:"Candidates drawn by the $(b,random) strategy.")

let population_arg =
  Arg.(value & opt int 8 & info [ "population" ] ~docv:"N"
       ~doc:"Population size per generation of the $(b,evolve) strategy.")

let generations_arg =
  Arg.(value & opt int 4 & info [ "generations" ] ~docv:"N"
       ~doc:"Generations of the $(b,evolve) strategy.")

let budget_arg =
  Arg.(value & opt int 100 & info [ "budget" ] ~docv:"PCT"
       ~doc:"Resource budget as a percentage of the Zynq-7020; candidates \
             whose estimated or synthesized usage exceeds it are infeasible.")

let explore_format_arg =
  Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "format" ] ~docv:"FMT"
           ~doc:"Output: $(b,text) (table + winner DSL) or $(b,json) (the \
                 deterministic frontier JSON on stdout).")

let explore_width_arg =
  Arg.(value & opt int 16 & info [ "width" ] ~docv:"W" ~doc:"Image width.")

let explore_height_arg =
  Arg.(value & opt int 16 & info [ "height" ] ~docv:"H" ~doc:"Image height.")

let print_explore_failures failures =
  List.iter
    (fun (k, msg) -> prerr_endline (Printf.sprintf "socdsl: FAILED %s: %s" k msg))
    failures

let explore_cmd =
  let run strategy samples population generations seed budget width height mode
      cache_dir max_mb jobs format output =
    let strategy =
      or_die
        (Soc_tune.Search.strategy_of_string ~samples ~population ~generations strategy)
    in
    let cache = Soc_farm.Cache.create ?disk_dir:cache_dir ?max_mb () in
    if format = `Text then Printf.printf "effective seed: %d\n%!" seed;
    let on_round (p : Soc_tune.Search.progress) =
      if format = `Text then
        Printf.printf "round %d: %d evaluated, %d infeasible, frontier %d\n%!"
          p.Soc_tune.Search.round p.Soc_tune.Search.evaluated
          p.Soc_tune.Search.infeasible
          (List.length p.Soc_tune.Search.frontier)
    in
    let opts =
      { Soc_dse.Tuner.default_options with
        Soc_dse.Tuner.strategy; seed; width; height; budget_pct = budget; mode;
        jobs = Option.value jobs ~default:1 }
    in
    let o = Soc_dse.Tuner.run ~cache ~on_round opts in
    let r = o.Soc_dse.Tuner.search in
    let frontier_json = Soc_tune.Render.frontier_json r in
    (match output with
    | Some path ->
      Soc_util.Atomic_io.write_file path frontier_json;
      if format = `Text then Printf.printf "frontier written to %s\n" path
    | None -> ());
    let c = o.Soc_dse.Tuner.cache in
    let stats_line =
      Printf.sprintf
        "farm: %d batch(es), %d HLS request(s), %d engine run(s), %d cache hit(s) (%d disk), %d pruned pre-HLS, %d co-simulation(s) reused"
        o.Soc_dse.Tuner.batches o.Soc_dse.Tuner.hls_requests
        o.Soc_dse.Tuner.engine_invocations
        (c.Soc_farm.Cache.hits + c.Soc_farm.Cache.disk_hits)
        c.Soc_farm.Cache.disk_hits o.Soc_dse.Tuner.pruned o.Soc_dse.Tuner.cosim_reused
    in
    (match format with
    | `Json ->
      print_string frontier_json;
      prerr_endline stats_line
    | `Text ->
      Soc_util.Table.print (Soc_tune.Render.table r);
      print_endline (Soc_tune.Render.summary r);
      print_endline stats_line;
      (match Soc_tune.Render.winner r with
      | None -> print_endline "no feasible point"
      | Some w ->
        Printf.printf "winner: %s  %.1f us  %d LUT %d FF %d BRAM18 %d DSP\n"
          w.Soc_tune.Search.key w.Soc_tune.Search.objectives.(0)
          w.Soc_tune.Search.usage.Soc_hls.Report.lut
          w.Soc_tune.Search.usage.Soc_hls.Report.ff
          w.Soc_tune.Search.usage.Soc_hls.Report.bram18
          w.Soc_tune.Search.usage.Soc_hls.Report.dsp;
        if w.Soc_tune.Search.dsl <> "" then begin
          print_endline "winning spec (DSL):";
          print_string w.Soc_tune.Search.dsl
        end));
    print_explore_failures r.Soc_tune.Search.failures;
    if r.Soc_tune.Search.failures <> [] then exit 1
  in
  let mode_arg =
    Arg.(value
         & opt (enum [ ("rtl", `Rtl); ("behavioral", `Behavioral) ]) `Rtl
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"Accelerator execution during measurement: $(b,rtl) (generated \
                   netlists on the co-simulator) or $(b,behavioral) (interpreter \
                   with ideal-pipeline timing; much faster sweeps).")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Farm workers per batch, the calling thread included; results are \
               bit-identical for any value.")
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Persist the HLS cache to $(docv); a warm re-run of the same sweep \
               repeats zero synthesis work and its frontier JSON is byte-identical.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Autotune the Otsu pipeline over HW/SW partition, FIFO depth, schedule \
          strategy and functional-unit allocation: populations are priced through \
          the build farm (content-hash dedup, shared cache), infeasible candidates \
          are pruned by the analyzer before any synthesis, every measured point is \
          checked bit-exactly against the golden model, and the result is the \
          Pareto frontier over (latency, LUT, FF, BRAM, DSP).")
    Term.(const run $ strategy_arg $ samples_arg $ population_arg $ generations_arg
          $ seed_arg $ budget_arg $ explore_width_arg $ explore_height_arg
          $ mode_arg $ cache_dir_arg $ cache_max_mb_arg $ jobs_arg
          $ explore_format_arg $ output_arg)

(* ---------------- doctor ---------------- *)

let doctor_cmd =
  let module Diag = Soc_util.Diag in
  let json_str s = "\"" ^ Soc_util.Json.escape s ^ "\"" in
  let run dir format =
    let cr = Soc_farm.Cache.fsck ~dir in
    let jr = Soc_farm.Journal.fsck (Filename.concat dir Soc_farm.Journal.default_name) in
    let diags = cr.Soc_farm.Cache.fsck_diags @ jr.Soc_farm.Journal.jfsck_diags in
    (match format with
    | `Text ->
      Printf.printf
        "cache: %d artifact(s) checked, %d ok, %d quarantined, %d stale removed, %d orphan temp(s) removed\n"
        cr.Soc_farm.Cache.fsck_checked cr.Soc_farm.Cache.fsck_ok
        (List.length cr.Soc_farm.Cache.fsck_quarantined)
        (List.length cr.Soc_farm.Cache.fsck_stale)
        (List.length cr.Soc_farm.Cache.fsck_orphans);
      Printf.printf "journal: %d entr%s kept, %d corrupt line(s) dropped, %d compacted away\n"
        jr.Soc_farm.Journal.jfsck_entries
        (if jr.Soc_farm.Journal.jfsck_entries = 1 then "y" else "ies")
        jr.Soc_farm.Journal.jfsck_dropped jr.Soc_farm.Journal.jfsck_compacted;
      List.iter (fun d -> print_endline (Diag.to_string ~file:dir d)) diags;
      print_endline
        (if diags = [] then "doctor: cache is healthy"
         else "doctor: repairs applied; cache is now healthy")
    | `Json ->
      let names l = "[" ^ String.concat "," (List.map json_str l) ^ "]" in
      Printf.printf
        "{\n  \"cache\": {\"checked\": %d, \"ok\": %d, \"quarantined\": %s, \"stale\": %s, \"orphans\": %s},\n  \"journal\": {\"entries\": %d, \"dropped\": %d, \"compacted\": %d},\n  \"diags\": [%s]\n}\n"
        cr.Soc_farm.Cache.fsck_checked cr.Soc_farm.Cache.fsck_ok
        (names cr.Soc_farm.Cache.fsck_quarantined)
        (names cr.Soc_farm.Cache.fsck_stale)
        (names cr.Soc_farm.Cache.fsck_orphans)
        jr.Soc_farm.Journal.jfsck_entries jr.Soc_farm.Journal.jfsck_dropped
        jr.Soc_farm.Journal.jfsck_compacted
        (String.concat ", " (List.map (Diag.to_json ~file:dir) diags)))
  in
  let dir_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CACHE-DIR"
         ~doc:"Cache directory to check (as passed to --cache-dir).")
  in
  let format_arg =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Check and repair a build cache: verify every artifact's integrity digest \
          (corrupt entries are quarantined, never deserialized), drop stale-format \
          entries, compiled tapes left by older builds and orphaned temp files from \
          interrupted commits, and verify + \
          compact the write-ahead journal. Never fails on corrupt input; exits 0 \
          once the cache is healthy.")
    Term.(const run $ dir_arg $ format_arg)

(* ---------------- serve / client ---------------- *)

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
       ~doc:"Address to bind (serve) or connect to (client).")

let port_arg ~default =
  Arg.(value & opt int default & info [ "port" ] ~docv:"PORT"
       ~doc:"TCP port. For serve, 0 picks an ephemeral port (printed at startup).")

let parse_fleet s =
  List.map
    (fun tok ->
      let bad () =
        prerr_endline
          (Printf.sprintf
             "socdsl: --fleet endpoint %S is not host:port (expected e.g. \
              127.0.0.1:7271,127.0.0.1:7272)"
             tok);
        exit 2
      in
      match String.rindex_opt tok ':' with
      | None -> bad ()
      | Some i -> (
        let h = String.sub tok 0 i in
        let p = String.sub tok (i + 1) (String.length tok - i - 1) in
        match int_of_string_opt p with
        | Some p when h <> "" && p > 0 -> (h, p)
        | _ -> bad ()))
    (String.split_on_char ',' s)

let serve_cmd =
  let run host port workers queue_cap deadline_ms cache_dir max_mb kill sim
      breaker_threshold breaker_cooldown_ms build_timeout_ms max_worker_restarts
      idle_timeout_ms max_sessions worker worker_id fleet =
    require_cache_dir ~resume:false cache_dir;
    Soc_rtl_compile.Engine.set_default_backend sim;
    if worker then begin
      (* Worker mode: the dumb end of a fleet. No queue, no journal, no
         drain protocol — it serves builds until killed, which is the
         failure model the coordinator is built around. *)
      let wcfg =
        { Soc_serve.Remote.host; port; cache_dir; cache_max_mb = max_mb;
          kernels = builtin_kernels (); worker_id }
      in
      let w =
        try Soc_serve.Remote.start wcfg
        with Unix.Unix_error (err, _, _) ->
          prerr_endline
            (Printf.sprintf "socdsl: cannot bind %s:%d: %s" host port
               (Unix.error_message err));
          exit 2
      in
      Printf.printf "socdsl serve --worker: %s listening on %s:%d%s\n%!"
        worker_id host (Soc_serve.Remote.port w)
        (match cache_dir with
        | Some d -> ", cache " ^ d
        | None -> ", in-memory cache");
      let rec forever () =
        Thread.delay 3600.0;
        forever ()
      in
      forever ()
    end;
    let fleet_endpoints = match fleet with None -> [] | Some s -> parse_fleet s in
    let cfg =
      { Soc_serve.Server.default_config with
        host; port; workers; queue_cap; default_deadline_ms = deadline_ms;
        cache_dir; cache_max_mb = max_mb; kill;
        kernels = builtin_kernels ();
        breaker_threshold; breaker_cooldown_ms;
        build_timeout_ms; max_worker_restarts;
        idle_session_timeout_ms = idle_timeout_ms; max_sessions;
        fleet = fleet_endpoints }
    in
    let srv =
      try Soc_serve.Server.start cfg
      with Unix.Unix_error (err, _, _) ->
        prerr_endline
          (Printf.sprintf "socdsl: cannot bind %s:%d: %s" host port
             (Unix.error_message err));
        exit 2
    in
    List.iter
      (fun d -> print_endline (Soc_util.Diag.to_string d))
      (Soc_serve.Server.startup_diags srv);
    Printf.printf "socdsl serve: listening on %s:%d (%d worker(s), queue cap %d%s%s)\n%!"
      host (Soc_serve.Server.port srv) workers queue_cap
      (match cache_dir with Some d -> ", cache " ^ d | None -> ", in-memory cache")
      (match fleet_endpoints with
      | [] -> ""
      | eps -> Printf.sprintf ", coordinating %d remote worker(s)" (List.length eps));
    match Soc_serve.Server.wait srv with
    | `Drained (ok, failed) ->
      Soc_serve.Server.stop srv;
      Printf.printf "drained: %d request(s) completed, %d failed\n" ok failed;
      if failed > 0 then exit 1
    | `Killed (s, k) -> die_killed s k
  in
  let workers_arg =
    Arg.(value & opt int 2 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Concurrent builds in flight (worker threads; each build runs \
               single-domain so results stay deterministic).")
  in
  let queue_cap_arg =
    Arg.(value & opt int 64 & info [ "queue-cap" ] ~docv:"N"
         ~doc:"Admission bound: submissions beyond $(docv) queued jobs are \
               rejected with a structured backpressure reply, never parked.")
  in
  let deadline_arg =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Default per-request deadline; a request still queued past it is \
               expired without running (a submit's own deadline wins).")
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Persist the shared HLS cache and write-ahead journal in $(docv); \
               the daemon fscks both at startup and resumes committed work, so \
               a killed server restarted on the same $(docv) loses nothing.")
  in
  let breaker_threshold_arg =
    Arg.(value & opt int 3 & info [ "breaker-threshold" ] ~docv:"K"
         ~doc:"Open a spec's circuit breaker after $(docv) consecutive build \
               failures of the same coalescing key; while open, submits of that \
               spec are rejected as poisoned without running. 0 disables.")
  in
  let breaker_cooldown_arg =
    Arg.(value & opt int 30000 & info [ "breaker-cooldown-ms" ] ~docv:"MS"
         ~doc:"How long an open breaker rejects before letting one probe \
               build through (success closes it, failure re-opens).")
  in
  let build_timeout_arg =
    Arg.(value & opt (some int) None & info [ "build-timeout-ms" ] ~docv:"MS"
         ~doc:"Wall cap per running build, enforced by the watchdog even when \
               the request named no deadline: a build past it is expired, its \
               waiters unblock, and the wedged worker is replaced.")
  in
  let max_restarts_arg =
    Arg.(value & opt int 8 & info [ "max-worker-restarts" ] ~docv:"N"
         ~doc:"Worker replacements allowed inside a 60 s window before the pool \
               is declared degraded instead of restart-thrashing.")
  in
  let idle_timeout_arg =
    Arg.(value & opt (some int) None & info [ "idle-timeout-ms" ] ~docv:"MS"
         ~doc:"Drop client sessions idle longer than $(docv), so slow or dead \
               clients cannot pin connection slots forever.")
  in
  let max_sessions_arg =
    Arg.(value & opt int 64 & info [ "max-sessions" ] ~docv:"N"
         ~doc:"Concurrent client connection cap; connections beyond it are \
               answered with an error and closed.")
  in
  let worker_arg =
    Arg.(value & flag & info [ "worker" ]
         ~doc:"Run a fleet worker daemon instead of the full server: no queue, \
               no journal, no drain — it answers hello/heartbeat/build/cancel \
               frames from a coordinator ('socdsl serve --fleet ...') against a \
               (usually shared) --cache-dir, and is safe to kill -9 at any \
               time: the coordinator re-dispatches its in-flight work.")
  in
  let worker_id_arg =
    Arg.(value & opt string "worker" & info [ "worker-id" ] ~docv:"ID"
         ~doc:"The worker's name in hello replies and its 'wk:ID' net-fault \
               link label (chaos campaigns partition workers by this label).")
  in
  let fleet_arg =
    Arg.(value & opt (some string) None & info [ "fleet" ] ~docv:"H:P,H:P,..."
         ~doc:"Comma-separated 'socdsl serve --worker' endpoints. Non-empty \
               turns this daemon into a coordinator: accepted builds are \
               dispatched to the fleet with retries, hedging and heartbeat \
               failover, and run locally only when the whole fleet is \
               exhausted.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the generation daemon: accept DSL sources over TCP (length-prefixed \
          JSON frames), gate each through the static analyzer, and build them on \
          the farm with a shared content-addressed cache. Identical in-flight \
          requests coalesce into one build; the queue is bounded (backpressure); \
          'socdsl client drain' stops admission and exits cleanly. With --kill-at \
          the armed crash point fires inside one build (exit 137) and a restart \
          on the same --cache-dir recovers. With --fleet, builds are dispatched \
          to remote --worker daemons with retries, hedging and partition-safe \
          failover.")
    Term.(const run $ host_arg $ port_arg ~default:0 $ workers_arg $ queue_cap_arg
          $ deadline_arg $ cache_dir_arg $ cache_max_mb_arg $ kill_arg $ sim_arg
          $ breaker_threshold_arg $ breaker_cooldown_arg $ build_timeout_arg
          $ max_restarts_arg $ idle_timeout_arg $ max_sessions_arg
          $ worker_arg $ worker_id_arg $ fleet_arg)

let client_cmd =
  let with_client host port f =
    match Soc_serve.Client.connect ~host ~port () with
    | exception Soc_serve.Client.Error msg ->
      prerr_endline ("socdsl: " ^ msg);
      exit 2
    | c ->
      Fun.protect ~finally:(fun () -> Soc_serve.Client.close c) (fun () ->
          try f c
          with Soc_serve.Client.Error msg ->
            prerr_endline ("socdsl: " ^ msg);
            exit 2)
  in
  let print_diags diags =
    List.iter (fun d -> print_endline (Soc_util.Diag.to_string d)) diags
  in
  let submit =
    let run file host port priority deadline_ms manifest quiet =
      let source = read_source file in
      with_client host port (fun c ->
          match Soc_serve.Client.submit c ~priority ?deadline_ms source with
          | Soc_serve.Protocol.Rejected { reason; detail; diags } ->
            print_diags diags;
            prerr_endline
              (Printf.sprintf "socdsl: rejected (%s): %s"
                 (Soc_serve.Protocol.reject_reason_label reason) detail);
            exit 1
          | Soc_serve.Protocol.Error_r msg ->
            prerr_endline ("socdsl: server error: " ^ msg);
            exit 2
          | Soc_serve.Protocol.Accepted { id; key; coalesced; diags } ->
            print_diags diags;
            if not quiet then
              Printf.printf "accepted: id %d, key %s%s\n%!" id key
                (if coalesced then " (coalesced with an in-flight build)" else "");
            (* Stream queue progress until the job leaves the queue, then
               block on the result. *)
            let rec watch last =
              match Soc_serve.Client.status c id with
              | Soc_serve.Protocol.Status_r { state = Soc_serve.Protocol.Queued n; _ } ->
                if not quiet && last <> Some n then
                  Printf.printf "queued: %d job(s) ahead\n%!" n;
                Unix.sleepf 0.05;
                watch (Some n)
              | _ -> ()
            in
            watch None;
            (match Soc_serve.Client.result c id with
            | Soc_serve.Protocol.Result_r
                { state = Soc_serve.Protocol.Done; design; digest; manifest = m; wall_ms; _ }
              ->
              Printf.printf "done: %s digest %s (%.1f ms)\n" design digest wall_ms;
              (match manifest with
              | Some path ->
                Soc_util.Atomic_io.write_file path m;
                Printf.printf "manifest written to %s\n" path
              | None -> ())
            | Soc_serve.Protocol.Result_r { state = Soc_serve.Protocol.Expired; _ } ->
              prerr_endline "socdsl: request expired before it could run";
              exit 1
            | Soc_serve.Protocol.Result_r { state = Soc_serve.Protocol.Failed msg; _ } ->
              prerr_endline ("socdsl: build failed: " ^ msg);
              exit 1
            | r ->
              prerr_endline
                ("socdsl: unexpected reply: "
                ^ Soc_serve.Protocol.(to_string (encode_response r)));
              exit 2)
          | r ->
            prerr_endline
              ("socdsl: unexpected reply: "
              ^ Soc_serve.Protocol.(to_string (encode_response r)));
            exit 2)
    in
    let priority_arg =
      Arg.(value & opt int 0 & info [ "priority" ] ~docv:"P"
           ~doc:"Dispatch priority; higher runs first (FIFO within a level).")
    in
    let deadline_arg =
      Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Expire the request if still queued after $(docv) milliseconds.")
    in
    let manifest_arg =
      Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE"
           ~doc:"Write the build's JSON manifest to $(docv) (atomic) — the same \
                 format as 'socdsl farm --manifest'.")
    in
    let quiet_arg =
      Arg.(value & flag & info [ "quiet" ] ~doc:"Only print the final result line.")
    in
    Cmd.v
      (Cmd.info "submit"
         ~doc:
           "Submit a DSL source to a running daemon, stream its queue progress \
            and block until the build finishes; analyzer warnings and rejections \
            arrive as structured diagnostics.")
      Term.(const run $ file_arg $ host_arg $ port_arg ~default:7171 $ priority_arg
            $ deadline_arg $ manifest_arg $ quiet_arg)
  in
  let stats =
    let run host port format =
      with_client host port (fun c ->
          let s = Soc_serve.Client.stats c in
          match format with
          | `Json ->
            print_endline
              Soc_serve.Protocol.(to_string (encode_response (Stats_r s)))
          | `Text ->
            let open Soc_serve.Protocol in
            Printf.printf "uptime: %.0f ms, %d/%d worker(s) live%s%s\n" s.uptime_ms
              s.live_workers s.workers
              (if s.degraded then ", DEGRADED" else "")
              (if s.draining then ", draining" else "");
            Printf.printf
              "requests: %d submitted (%d coalesced), %d completed, %d failed, %d expired\n"
              s.submitted s.coalesced s.completed s.failed s.expired;
            Printf.printf "rejected: %d backpressure, %d check/parse, %d poisoned\n"
              s.rejected_queue s.rejected_check s.rejected_poisoned;
            Printf.printf
              "supervision: %d worker restart(s), %d watchdog fire(s), %d breaker key(s) open, %d sim fallback(s)\n"
              s.worker_restarts s.watchdog_fires s.breaker_open_keys s.sim_fallbacks;
            Printf.printf "verifier: %d tape reject(s)\n" s.rtl_verify_rejects;
            Printf.printf "queue: %d deep, %d running\n" s.queue_depth s.running;
            Printf.printf
              "cache: %d hits, %d disk hits, %d misses (hit rate %.2f), %d engine run(s)\n"
              s.cache_hits s.cache_disk_hits s.cache_misses s.hit_rate s.engine_runs;
            Printf.printf "latency: n=%d p50=%.1f ms p95=%.1f ms p99=%.1f ms\n"
              s.lat_count s.lat_p50_ms s.lat_p95_ms s.lat_p99_ms)
    in
    let format_arg =
      Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
           & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Print a running daemon's counters: admissions, coalescing, \
            backpressure, cache hit rate, engine runs and latency quantiles.")
      Term.(const run $ host_arg $ port_arg ~default:7171 $ format_arg)
  in
  let drain =
    let run host port =
      with_client host port (fun c ->
          let completed, failed = Soc_serve.Client.drain c in
          Printf.printf "drained: %d request(s) completed, %d failed\n" completed failed)
    in
    Cmd.v
      (Cmd.info "drain"
         ~doc:
           "Stop admission on a running daemon, wait for in-flight builds to \
            finish, and make the daemon exit cleanly.")
      Term.(const run $ host_arg $ port_arg ~default:7171)
  in
  let explore =
    let run host port strategy samples population generations seed budget width
        height output =
      with_client host port (fun c ->
          let req =
            Soc_serve.Protocol.Explore
              { strategy; seed; budget_pct = budget; population; generations;
                samples; width; height }
          in
          let on_update = function
            | Soc_serve.Protocol.Explore_update
                { round; evaluated; infeasible; frontier_size; best_us } ->
              Printf.printf "round %d: %d evaluated, %d infeasible, frontier %d, best %.1f us\n%!"
                round evaluated infeasible frontier_size best_us
            | _ -> ()
          in
          match Soc_serve.Client.explore c ~on_update req with
          | Soc_serve.Protocol.Explore_r
              { frontier; evaluated; infeasible; rounds; engine_runs; cache_hits; wall_ms }
            ->
            Printf.printf
              "done: %d evaluated, %d infeasible, %d round(s), %d engine run(s), %d cache hit(s), %.1f ms\n"
              evaluated infeasible rounds engine_runs cache_hits wall_ms;
            (match output with
            | Some path ->
              Soc_util.Atomic_io.write_file path frontier;
              Printf.printf "frontier written to %s\n" path
            | None -> print_string frontier)
          | Soc_serve.Protocol.Rejected { reason; detail; diags } ->
            print_diags diags;
            prerr_endline
              (Printf.sprintf "socdsl: rejected (%s): %s"
                 (Soc_serve.Protocol.reject_reason_label reason) detail);
            exit 1
          | Soc_serve.Protocol.Error_r msg ->
            prerr_endline ("socdsl: server error: " ^ msg);
            exit 2
          | r ->
            prerr_endline
              ("socdsl: unexpected reply: "
              ^ Soc_serve.Protocol.(to_string (encode_response r)));
            exit 2)
    in
    Cmd.v
      (Cmd.info "explore"
         ~doc:
           "Run an autotuning sweep on a running daemon (sharing its HLS cache \
            with served builds) and stream incremental Pareto-frontier updates; \
            the final deterministic frontier JSON goes to stdout or --output.")
      Term.(const run $ host_arg $ port_arg ~default:7171 $ strategy_arg
            $ samples_arg $ population_arg $ generations_arg $ seed_arg
            $ budget_arg $ explore_width_arg $ explore_height_arg $ output_arg)
  in
  Cmd.group
    (Cmd.info "client"
       ~doc:"Talk to a running 'socdsl serve' daemon (submit, explore, stats, drain).")
    [ submit; explore; stats; drain ]

(* ---------------- chaos ---------------- *)

let chaos_cmd =
  let serve_campaign workers cache_dir manifest_out =
    (* Serve-mode chaos: an in-process daemon under injected engine
       crashes, hangs, poison specs, wire abuse and slow clients. Good
       specs are the four Otsu architectures; the poison pill is the
       XTEA loopback (its encrypt kernel armed to raise) and the hung
       build is the FIR pipeline (its smoothing kernel armed to hang). *)
    let cfg =
      { Soc_serve.Chaos.workers;
        kernels = builtin_kernels ();
        good_sources =
          List.map
            (fun a -> Soc_core.Printer.to_source (Soc_apps.Graphs.arch_spec a))
            Soc_apps.Graphs.all_archs;
        poison_source = Soc_core.Printer.to_source Soc_apps.Xtea.loopback_spec;
        poison_kernel = "xteaEnc";
        hang_source = Soc_core.Printer.to_source Soc_apps.Fir.pipeline_spec;
        hang_kernel = "smooth";
        cache_dir }
    in
    let r = Soc_serve.Chaos.run cfg in
    print_string (Soc_serve.Chaos.render r);
    (match manifest_out with
    | Some path when r.Soc_serve.Chaos.manifest <> "" ->
      Soc_util.Atomic_io.write_file path r.Soc_serve.Chaos.manifest;
      Printf.printf "manifest written to %s\n" path
    | _ -> ());
    if not r.Soc_serve.Chaos.healthy then exit 1
  in
  let fleet_campaign seed fleet_size cache_dir manifest_out =
    (* Fleet chaos: an in-process coordinator + worker fleet under seeded
       kills, one-way partitions, 20% frame drops and total fleet loss.
       Good specs are the four Otsu architectures; the shared cache
       proves manifests stay byte-identical with zero repeated HLS. *)
    let dir =
      match cache_dir with
      | Some d -> d
      | None ->
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "socdsl-fleet-chaos-%d" (Unix.getpid ()))
    in
    let cfg =
      { Soc_serve.Chaos.fleet_size;
        fkernels = builtin_kernels ();
        fgood_sources =
          List.map
            (fun a -> Soc_core.Printer.to_source (Soc_apps.Graphs.arch_spec a))
            Soc_apps.Graphs.all_archs;
        fcache_dir = dir;
        fseed = seed }
    in
    let r = Soc_serve.Chaos.run_fleet cfg in
    print_string (Soc_serve.Chaos.render ~title:"fleet-chaos campaign" r);
    (match manifest_out with
    | Some path when r.Soc_serve.Chaos.manifest <> "" ->
      Soc_util.Atomic_io.write_file path r.Soc_serve.Chaos.manifest;
      Printf.printf "manifest written to %s\n" path
    | _ -> ());
    if not r.Soc_serve.Chaos.healthy then exit 1
  in
  let run seed faults width height no_fallback permanent bit_flips arch sim serve
      fleet fleet_size serve_workers cache_dir manifest_out =
    Soc_rtl_compile.Engine.set_default_backend sim;
    if fleet then fleet_campaign seed fleet_size cache_dir manifest_out
    else if serve then serve_campaign serve_workers cache_dir manifest_out
    else
    let archs =
      match arch with
      | None -> Soc_apps.Graphs.all_archs
      | Some a -> [ a ]
    in
    Printf.printf "chaos campaign: effective seed %d, %d faults/arch, %dx%d image%s\n\n"
      seed faults width height
      (if no_fallback then ", fallback disabled" else "");
    let outcomes =
      List.map
        (fun a ->
          match
            Soc_apps.Chaos_runner.run ~width ~height ~seed ~n_faults:faults
              ~fallback:(not no_fallback) ~include_permanent:permanent
              ~include_bit_flips:bit_flips a
          with
          | o ->
            print_string (Soc_apps.Chaos_runner.render_outcome o);
            print_newline ();
            (a, Some o)
          | exception (Soc_platform.Executive.Unrecoverable _ as e) ->
            (* The registered printer renders the structured failure
               report: faulty unit, injected faults, attempt history. *)
            Printf.printf "=== %s: %s ===\n\n" (Soc_apps.Graphs.arch_name a)
              (Printexc.to_string e);
            (a, None))
        archs
    in
    (* Recovery-counter summary over the whole campaign. *)
    let keys =
      [ "injected"; "detected"; "resets"; "retried"; "recovered"; "fell_back";
        "unrecovered" ]
    in
    Printf.printf "%-8s %s %s\n" "arch"
      (String.concat " " (List.map (Printf.sprintf "%11s") keys))
      "output";
    List.iter
      (fun (a, o) ->
        match o with
        | Some (o : Soc_apps.Chaos_runner.outcome) ->
          let ctrs = Soc_fault.Fault.counters o.Soc_apps.Chaos_runner.plan in
          Printf.printf "%-8s %s %s\n"
            (Soc_apps.Graphs.arch_name a)
            (String.concat " "
               (List.map
                  (fun k -> Printf.sprintf "%11d" (Soc_util.Metrics.Counters.get ctrs k))
                  keys))
            (if o.Soc_apps.Chaos_runner.output_ok then "golden" else "MISMATCH")
        | None ->
          Printf.printf "%-8s %s %s\n" (Soc_apps.Graphs.arch_name a)
            (String.concat " " (List.map (fun _ -> Printf.sprintf "%11s" "-") keys))
            "UNRECOVERED")
      outcomes;
    let healthy =
      List.for_all
        (function
          | _, Some (o : Soc_apps.Chaos_runner.outcome) -> o.Soc_apps.Chaos_runner.output_ok
          | _, None -> false)
        outcomes
    in
    Printf.printf "\ncampaign %s (reproduce with --seed %d)\n"
      (if healthy then "healthy: all outputs golden" else "UNHEALTHY")
      seed;
    if not healthy then exit 1
  in
  let faults_arg =
    Arg.(value & opt int 4 & info [ "faults" ] ~docv:"N"
         ~doc:"Faults injected per architecture.")
  in
  let width_arg =
    Arg.(value & opt int 32 & info [ "width" ] ~docv:"W" ~doc:"Image width.")
  in
  let height_arg =
    Arg.(value & opt int 32 & info [ "height" ] ~docv:"H" ~doc:"Image height.")
  in
  let no_fallback_arg =
    Arg.(value & flag & info [ "no-fallback" ]
         ~doc:"Disable the software fallback; unrecovered campaigns report and fail.")
  in
  let permanent_arg =
    Arg.(value & flag & info [ "permanent" ]
         ~doc:"Allow permanently dead accelerators in the campaign.")
  in
  let bit_flips_arg =
    Arg.(value & flag & info [ "bit-flips" ]
         ~doc:"Allow single-bit DRAM flips in the output buffer.")
  in
  let arch_arg =
    Arg.(value & opt (some (enum
           [ ("1", Soc_apps.Graphs.Arch1); ("2", Soc_apps.Graphs.Arch2);
             ("3", Soc_apps.Graphs.Arch3); ("4", Soc_apps.Graphs.Arch4) ])) None
         & info [ "arch" ] ~docv:"N" ~doc:"Run a single architecture (1-4; default all).")
  in
  let serve_arg =
    Arg.(value & flag & info [ "serve" ]
         ~doc:"Run the serve-mode campaign instead: a live in-process daemon \
               under injected engine crashes and hangs, worker deaths, a poison \
               spec, wire-level abuse and slow clients. Exits 1 unless the \
               daemon self-heals through all of it.")
  in
  let fleet_arg =
    Arg.(value & flag & info [ "fleet" ]
         ~doc:"Run the distributed campaign instead: an in-process coordinator \
               dispatching to a fleet of worker daemons under seeded worker \
               kills, one-way network partitions, 20% frame drops and total \
               fleet loss. Exits 1 unless every accepted request completes \
               with manifests byte-identical to a clean farm run and zero \
               repeated HLS.")
  in
  let fleet_size_arg =
    Arg.(value & opt int 3 & info [ "fleet-size" ] ~docv:"N"
         ~doc:"Worker daemons in the fleet campaign (at least 2).")
  in
  let serve_workers_arg =
    Arg.(value & opt int 2 & info [ "serve-workers" ] ~docv:"N"
         ~doc:"Worker pool size of the serve-mode campaign daemon.")
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Persistent cache directory for the serve-mode campaign's \
               restart phase (fresh directories recommended).")
  in
  let manifest_out_arg =
    Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE"
         ~doc:"Write the serve-mode campaign's post-restart manifest to \
               $(docv) — comparable with 'socdsl farm --manifest'.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos-test the co-simulated platform: run the Otsu case study under a \
          seeded fault-injection campaign (accelerator hangs, spurious dones, DMA \
          stalls and errors, stuck FIFOs, bus SLVERRs) with the fault-tolerant \
          runtime (watchdog, soft reset + retry, software fallback), and verify \
          the output stays bit-identical to the golden model. With --serve, \
          chaos-test the generation daemon itself instead: injected HLS/simulator \
          faults, worker deaths, poison specs, wedged builds and hostile clients \
          must all be contained by its supervision layer. With --fleet, \
          chaos-test the distributed serve path: a coordinator and its worker \
          fleet under seeded kills, partitions and frame drops.")
    Term.(const run $ seed_arg $ faults_arg $ width_arg $ height_arg $ no_fallback_arg
          $ permanent_arg $ bit_flips_arg $ arch_arg $ sim_arg $ serve_arg
          $ fleet_arg $ fleet_size_arg $ serve_workers_arg $ cache_dir_arg
          $ manifest_out_arg)

(* ---------------- demo ---------------- *)

let demo_cmd =
  let run design =
    match design with
    | `Listing4 -> print_endline Soc_apps.Graphs.listing4_source
    | `Arch a -> print_string (Soc_core.Printer.to_source (Soc_apps.Graphs.arch_spec a))
    | `Fig4 -> print_string (Soc_core.Printer.to_source Soc_apps.Graphs.fig4_spec)
  in
  let design_arg =
    Arg.(value
         & opt
             (enum
                [ ("listing4", `Listing4);
                  ("1", `Arch Soc_apps.Graphs.Arch1);
                  ("2", `Arch Soc_apps.Graphs.Arch2);
                  ("3", `Arch Soc_apps.Graphs.Arch3);
                  ("4", `Arch Soc_apps.Graphs.Arch4);
                  ("fig4", `Fig4) ])
             `Listing4
         & info [ "arch" ] ~docv:"N"
             ~doc:
               "Design to print: an Otsu architecture (1-4), the paper's \
                Fig. 4 pipeline (fig4), or the verbatim Listing 4 source \
                (listing4, default).")
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:
         "Print a built-in design as canonical DSL source (the paper's \
          Listing 4 by default; --arch selects other case studies).")
    Term.(const run $ design_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "socdsl" ~version:"1.0"
      ~doc:"Scala-style task-graph DSL tool for accelerator-based SoCs (OCaml reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ check_cmd; print_cmd; tcl_cmd; qsys_cmd; devicetree_cmd; api_cmd; diagram_cmd;
            metrics_cmd; build_cmd; farm_cmd; explore_cmd; serve_cmd; client_cmd;
            doctor_cmd; chaos_cmd; demo_cmd ]))
