(* The Otsu pipeline bound to the Soc_tune autotuner: the concrete search
   space (HW/SW partition x FIFO depth x HLS schedule strategy x
   functional-unit allocation), candidate spec generation as canonical
   DSL text, the pre-HLS analyzer/budget gate, and farm-backed
   measurement through Runner.simulate. *)

module Search = Soc_tune.Search
module Eval = Soc_tune.Eval
module Rng = Soc_util.Rng
module Diag = Soc_util.Diag
module Report = Soc_hls.Report
module Engine = Soc_hls.Engine
module Schedule = Soc_hls.Schedule

type candidate = {
  part : Partition.t;
  fifo : int;  (* requested FIFO depth; effective is max fifo (pixels + 16) *)
  asap : bool;  (* ASAP schedule instead of resource-constrained list *)
  narrow : bool;  (* single functional unit of each class *)
}

let fifo_choices = [ 1024; 2048; 4096 ]

let key c =
  Printf.sprintf "%s/f%d/%s/%s" (Partition.signature c.part) c.fifo
    (if c.asap then "asap" else "list")
    (if c.narrow then "narrow" else "std")

let narrow_resources = { Schedule.alus_per_op = 1; multipliers = 1; dividers = 1 }

(* ASAP schedules without resource constraints, and Engine.synthesize
   verifies the schedule against the configured caps — so ASAP must pair
   with caps wide enough for any DFG-level parallelism. [narrow] is a
   list-scheduling knob only. *)
let asap_resources = { Schedule.alus_per_op = 64; multipliers = 64; dividers = 64 }

let config_of c =
  if c.asap then
    { Engine.default_config with Engine.strategy = Schedule.Asap; resources = asap_resources }
  else
    { Engine.default_config with
      Engine.strategy = Schedule.List_scheduling;
      resources = (if c.narrow then narrow_resources else Schedule.default_resources) }

let space () : candidate Search.space =
  { Search.space_name = "otsu";
    axes =
      [ ("partition", List.map Partition.signature (Partition.enumerate ()));
        ("fifo_depth", List.map string_of_int fifo_choices);
        ("schedule", [ "list"; "asap" ]);
        ("fu_alloc", [ "std"; "narrow" ]) ];
    universe =
      (fun () ->
        List.concat_map
          (fun part ->
            List.concat_map
              (fun fifo ->
                List.concat_map
                  (fun asap ->
                    List.map (fun narrow -> { part; fifo; asap; narrow }) [ false; true ])
                  [ false; true ])
              fifo_choices)
          (Partition.enumerate ()));
    key;
    describe = key;
    start = { part = Partition.all_sw; fifo = 1024; asap = false; narrow = false };
    neighbours =
      (fun c ->
        (* Greedy moves: promote one SW stage to HW. *)
        List.filter_map
          (fun s ->
            if Partition.in_hw c.part s then None
            else Some { c with part = Partition.with_stage c.part s true })
          Partition.all_stages);
    random =
      (fun rng ->
        { part = Rng.choose rng (Partition.enumerate ());
          fifo = Rng.choose rng fifo_choices;
          asap = Rng.bool rng;
          narrow = Rng.bool rng });
    mutate =
      (fun rng c ->
        match Rng.int rng 4 with
        | 0 ->
          let s = Rng.choose rng Partition.all_stages in
          { c with part = Partition.with_stage c.part s (not (Partition.in_hw c.part s)) }
        | 1 -> { c with fifo = Rng.choose rng (List.filter (fun f -> f <> c.fifo) fifo_choices) }
        | 2 -> { c with asap = not c.asap }
        | _ -> { c with narrow = not c.narrow }) }

type options = {
  strategy : Search.strategy;
  seed : int;
  width : int;
  height : int;
  image_seed : int;
  budget_pct : int;  (* fraction of the Zynq-7020 the sweep may use *)
  mode : [ `Rtl | `Behavioral ];
  jobs : int;
}

let default_options =
  { strategy = Search.Evolve { population = 8; generations = 4 };
    seed = 42; width = 16; height = 16; image_seed = 42; budget_pct = 100;
    mode = `Rtl; jobs = 1 }

let budget_device pct =
  let pct = max 1 (min 100 pct) in
  let d = Report.zynq_7z020 in
  let scale v = max 1 (v * pct / 100) in
  { Report.device_name = Printf.sprintf "%s@%d%%" d.Report.device_name pct;
    d_lut = scale d.Report.d_lut;
    d_ff = scale d.Report.d_ff;
    d_bram18 = scale d.Report.d_bram18;
    d_dsp = scale d.Report.d_dsp }

(* A candidate's point: the run's timing, its own build's costs. *)
let point_of c ~dsl build ~cycles ~microseconds ~fifo_peak : Search.point =
  let u, tool_seconds = Runner.costs build in
  { Search.key = key c;
    label = key c;
    dsl;
    objectives =
      [| microseconds;
         float_of_int u.Report.lut;
         float_of_int u.Report.ff;
         float_of_int u.Report.bram18;
         float_of_int u.Report.dsp |];
    cycles;
    usage = u;
    tool_seconds;
    fifo_peak }

let budget_diag ~pct ~subject (device : Report.device) usage ~estimated =
  Diag.error ~code:"RES210" ~subject
    (Printf.sprintf
       "%s %d LUT / %d FF / %d BRAM18 / %d DSP exceeds the %d%% Zynq-7020 budget (%d/%d/%d/%d)"
       (if estimated then "estimated" else "synthesized")
       usage.Report.lut usage.Report.ff usage.Report.bram18 usage.Report.dsp pct
       device.Report.d_lut device.Report.d_ff device.Report.d_bram18 device.Report.d_dsp)

let mode_name = function `Rtl -> "rtl" | `Behavioral -> "behavioral"

let prepare (opts : options) device c : Eval.prep =
  let pixels = opts.width * opts.height in
  let fifo_depth = max c.fifo (pixels + 16) in
  let config = config_of c in
  let entry, gate, dsl =
    if Partition.is_all_sw c.part then (None, [], "")
    else begin
      let spec = Partition.spec_of c.part in
      let kernels = Partition.kernels_of c.part ~width:opts.width ~height:opts.height in
      (* Pre-HLS gate: the whole-design analyzer plus the coarse AST-level
         resource estimate against the scaled budget — infeasible
         candidates never reach the farm. *)
      let analyzer = Soc_analysis.Analyze.run ~kernels spec in
      let estimate =
        List.fold_left
          (fun acc (_, k) -> Report.add acc (Soc_analysis.Analyze.estimate_kernel_resources k))
          Report.zero kernels
      in
      let budget_gate =
        if opts.budget_pct >= 100 || Report.fits ~device estimate then []
        else
          [ budget_diag ~pct:opts.budget_pct ~subject:(key c) device estimate ~estimated:true ]
      in
      (Some { Soc_farm.Jobgraph.spec; kernels }, analyzer @ budget_gate,
       Soc_core.Printer.to_source spec)
    end
  in
  (* Post-synthesis backstop, before any co-simulation: the real
     aggregate must fit too. *)
  let fits build =
    let usage, _ = Runner.costs build in
    if not (Report.fits ~device usage) then
      raise
        (Eval.Infeasible_point
           [ budget_diag ~pct:opts.budget_pct ~subject:(key c) device usage ~estimated:false ])
  in
  let measure build =
    fits build;
    let r =
      Runner.simulate ~width:opts.width ~height:opts.height ~seed:opts.image_seed
        ~fifo_depth ~mode:opts.mode build c.part
    in
    point_of c ~dsl build ~cycles:r.Runner.cycles ~microseconds:r.Runner.microseconds
      ~fifo_peak:r.Runner.fifo_peak
  in
  (* What the run reads: the mode, the partition (host plan and links),
     the image, and in RTL mode each accelerator's netlist. *)
  let behaviour ~netlist_key build =
    let nets =
      match (build, opts.mode) with
      | Some (b : Soc_core.Flow.build), `Rtl ->
        List.map
          (fun (i : Soc_core.Flow.node_impl) ->
            i.Soc_core.Flow.node.Soc_core.Spec.node_name ^ "="
            ^ netlist_key i.Soc_core.Flow.accel.Engine.fsmd.Soc_hls.Fsmd.netlist)
          b.Soc_core.Flow.impls
      | _ -> []
    in
    String.concat " "
      (mode_name opts.mode :: Partition.signature c.part
      :: Printf.sprintf "%dx%d@%d" opts.width opts.height opts.image_seed
      :: nets)
  in
  let reuse (s : Search.point) build =
    fits build;
    point_of c ~dsl build ~cycles:s.Search.cycles ~microseconds:s.Search.objectives.(0)
      ~fifo_peak:s.Search.fifo_peak
  in
  { Eval.entry; fifo_depth; config; gate; measure; behaviour; reuse }

type outcome = {
  search : Search.result;
  cache : Soc_farm.Cache.stats;  (* absolute stats of the cache used *)
  engine_invocations : int;  (* real HLS runs during this sweep *)
  hls_requests : int;  (* kernel-synthesis requests sent to the farm *)
  batches : int;
  pruned : int;  (* candidates rejected by the pre-HLS gate *)
  cosim_reused : int;  (* candidates priced from an earlier, identical run *)
}

let run ?cache ?on_round ?memo (opts : options) : outcome =
  let cache = match cache with Some c -> c | None -> Soc_farm.Cache.create () in
  let device = budget_device opts.budget_pct in
  let ctr = Eval.counters () in
  let base = Engine.invocation_count () in
  let eval cands =
    Eval.population ~jobs:opts.jobs ?memo ~counters:ctr ~cache ~prepare:(prepare opts device) cands
  in
  let search = Search.run ?on_round ~space:(space ()) ~eval opts.strategy ~seed:opts.seed in
  { search;
    cache = Soc_farm.Cache.stats cache;
    engine_invocations = Engine.invocation_count () - base;
    hls_requests = ctr.Eval.hls_requests;
    batches = ctr.Eval.batches;
    pruned = ctr.Eval.gated;
    cosim_reused = ctr.Eval.cosim_reused }
