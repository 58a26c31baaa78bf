(* The autotuner subsystem: k-objective Pareto dominance (qcheck against
   a brute-force oracle), seeded strategy determinism on both a synthetic
   space and the real Otsu space, warm-vs-cold farm-backed evaluation
   (strictly fewer engine invocations, byte-identical frontier JSON), the
   greedy endpoint pinned to the retired hand-rolled sweep's, and the
   streaming explore op end-to-end over a live daemon. *)

module Pareto = Soc_tune.Pareto
module Search = Soc_tune.Search
module Render = Soc_tune.Render
module Tuner = Soc_dse.Tuner
module Cache = Soc_farm.Cache
module Engine = Soc_hls.Engine
module Protocol = Soc_serve.Protocol
module Server = Soc_serve.Server
module Client = Soc_serve.Client

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Pareto dominance                                                    *)
(* ------------------------------------------------------------------ *)

let test_dominates_basics () =
  check Alcotest.bool "strictly better" true (Pareto.dominates [| 1.; 1. |] [| 2.; 2. |]);
  check Alcotest.bool "better on one axis" true (Pareto.dominates [| 1.; 2. |] [| 2.; 2. |]);
  check Alcotest.bool "equal never dominates" false (Pareto.dominates [| 1.; 1. |] [| 1.; 1. |]);
  check Alcotest.bool "trade-off does not dominate" false
    (Pareto.dominates [| 1.; 3. |] [| 2.; 2. |]);
  check Alcotest.bool "arity mismatch" true
    (try ignore (Pareto.dominates [| 1. |] [| 1.; 2. |]); false
     with Invalid_argument _ -> true)

(* Small coordinates on purpose: collisions and exact dominance must be
   common or the property is vacuous. *)
let vec_gen k =
  QCheck.Gen.(array_size (return k) (map float_of_int (int_range 0 5)))

let points_gen k = QCheck.Gen.(list_size (int_range 0 25) (vec_gen k))

let qcheck_front_is_nondominated_set =
  QCheck.Test.make ~name:"pareto front = exactly the non-dominated subset" ~count:300
    (QCheck.make
       QCheck.Gen.(int_range 1 4 >>= fun k -> points_gen k)
       ~print:(fun pts ->
         String.concat ";"
           (List.map
              (fun v ->
                "[" ^ String.concat "," (List.map string_of_float (Array.to_list v)) ^ "]")
              pts)))
    (fun pts ->
      let front = Pareto.front ~objectives:Fun.id pts in
      let oracle =
        List.filter (fun p -> not (List.exists (fun q -> Pareto.dominates q p) pts)) pts
      in
      front = oracle)

let qcheck_front_idempotent =
  QCheck.Test.make ~name:"pareto front is idempotent" ~count:200
    (QCheck.make (points_gen 3))
    (fun pts ->
      let front = Pareto.front ~objectives:Fun.id pts in
      Pareto.front ~objectives:Fun.id front = front)

(* ------------------------------------------------------------------ *)
(* Seeded strategies on a synthetic space                              *)
(* ------------------------------------------------------------------ *)

(* 64 integer candidates with a deterministic 2-objective trade-off:
   obj0 falls and obj1 rises with c, plus a ripple so the front is
   non-trivial. No I/O — strategy logic in isolation. *)
let synth_space : int Search.space =
  { Search.space_name = "synth";
    axes = [ ("c", List.init 64 string_of_int) ];
    universe = (fun () -> List.init 64 Fun.id);
    key = string_of_int;
    describe = string_of_int;
    start = 0;
    neighbours = (fun c -> List.filter (fun x -> x < 64) [ c + 1; c + 3 ]);
    random = (fun rng -> Soc_util.Rng.int rng 64);
    mutate = (fun rng c -> (c + 1 + Soc_util.Rng.int rng 8) mod 64) }

let synth_eval cands =
  List.map
    (fun c ->
      let o0 = float_of_int (64 - c + (7 * (c mod 3))) in
      let o1 = float_of_int (c + (5 * (c mod 4))) in
      ( c,
        Search.Feasible
          { Search.key = string_of_int c; label = string_of_int c; dsl = "";
            objectives = [| o0; o1 |]; cycles = c; usage = Soc_hls.Report.zero;
            tool_seconds = 0.0; fifo_peak = 0 } ))
    cands

let run_synth strategy seed = Search.run ~space:synth_space ~eval:synth_eval strategy ~seed

let frontier_keys r = List.map (fun (p : Search.point) -> p.Search.key) r.Search.frontier

let test_synth_deterministic () =
  List.iter
    (fun strategy ->
      let a = run_synth strategy 11 and b = run_synth strategy 11 in
      check (Alcotest.list Alcotest.string)
        (Search.strategy_name strategy ^ " same seed, same frontier")
        (frontier_keys a) (frontier_keys b);
      check Alcotest.int
        (Search.strategy_name strategy ^ " same evaluated count")
        a.Search.evaluated b.Search.evaluated)
    [ Search.Exhaustive; Search.Random 20; Search.Greedy;
      Search.Evolve { population = 6; generations = 3 } ]

let test_synth_frontier_nondominated () =
  let r = run_synth Search.Exhaustive 1 in
  let vecs = List.map (fun (p : Search.point) -> p.Search.objectives) r.Search.points in
  List.iter
    (fun (p : Search.point) ->
      check Alcotest.bool ("frontier point " ^ p.Search.key ^ " undominated") false
        (List.exists (fun q -> Pareto.dominates q p.Search.objectives) vecs))
    r.Search.frontier;
  (* Exhaustive saw the whole universe, so every non-frontier point is
     dominated by (or duplicates) a frontier vector. *)
  List.iter
    (fun (p : Search.point) ->
      check Alcotest.bool ("point " ^ p.Search.key ^ " covered") true
        (List.exists
           (fun (f : Search.point) ->
             f.Search.objectives = p.Search.objectives
             || Pareto.dominates f.Search.objectives p.Search.objectives)
           r.Search.frontier))
    r.Search.points

let test_exhaustive_covers_universe () =
  let r = run_synth Search.Exhaustive 1 in
  check Alcotest.int "all 64 evaluated" 64 r.Search.evaluated;
  check Alcotest.int "proposed = universe" 64 r.Search.proposed

let test_memoization_counts_distinct () =
  (* Evolve proposes with repeats; evaluated counts distinct keys only. *)
  let r = run_synth (Search.Evolve { population = 8; generations = 5 }) 3 in
  check Alcotest.bool "repeats proposed" true (r.Search.proposed > r.Search.evaluated);
  check Alcotest.bool "evaluated bounded by universe" true (r.Search.evaluated <= 64)

let test_strategy_of_string () =
  check Alcotest.bool "evolve parses" true
    (match Search.strategy_of_string "evolve" with
    | Ok (Search.Evolve _) -> true
    | _ -> false);
  check Alcotest.bool "random picks samples" true
    (Search.strategy_of_string ~samples:7 "random" = Ok (Search.Random 7));
  check Alcotest.bool "unknown rejected" true
    (match Search.strategy_of_string "anneal" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Farm-backed evaluation on the real Otsu space                       *)
(* ------------------------------------------------------------------ *)

let small_opts strategy seed =
  { Tuner.default_options with
    Tuner.strategy; seed; width = 8; height = 8; mode = `Behavioral }

let test_tuner_seeded_deterministic () =
  let cache = Cache.create () in
  let a = Tuner.run ~cache (small_opts (Search.Random 5) 21) in
  let b = Tuner.run ~cache (small_opts (Search.Random 5) 21) in
  check Alcotest.string "same seed, byte-identical frontier JSON"
    (Render.frontier_json a.Tuner.search) (Render.frontier_json b.Tuner.search);
  check Alcotest.bool "no failures" true (a.Tuner.search.Search.failures = [])

let test_warm_resweep_fewer_invocations () =
  let dir = Filename.temp_file "tune_warm" ".cache" in
  Sys.remove dir;
  let opts = small_opts (Search.Random 6) 13 in
  let cold_cache = Cache.create ~disk_dir:dir () in
  let cold = Tuner.run ~cache:cold_cache opts in
  check Alcotest.bool "cold run synthesizes" true (cold.Tuner.engine_invocations > 0);
  (* A fresh in-memory cache over the same disk dir: only the disk layer
     is warm, exactly the cross-process re-sweep scenario. *)
  let warm_cache = Cache.create ~disk_dir:dir () in
  let warm = Tuner.run ~cache:warm_cache opts in
  check Alcotest.bool "warm strictly fewer engine invocations" true
    (warm.Tuner.engine_invocations < cold.Tuner.engine_invocations);
  check Alcotest.int "warm repeats zero synthesis" 0 warm.Tuner.engine_invocations;
  check Alcotest.string "frontier JSON byte-identical warm vs cold"
    (Render.frontier_json cold.Tuner.search) (Render.frontier_json warm.Tuner.search)

let test_budget_gate_prunes_pre_hls () =
  (* A 1% Zynq-7020 fits almost nothing. The optimistic AST-level
     estimate prunes most hardware candidates before any synthesis; the
     one kernel whose estimate squeaks under (computeHistogram) is
     synthesized once per distinct HLS config and then rejected by the
     post-synthesis backstop — so the whole 192-candidate sweep costs at
     most a handful of engine runs and yields an all-software frontier. *)
  let cache = Cache.create () in
  let o =
    Tuner.run ~cache
      { (small_opts Search.Exhaustive 1) with Tuner.budget_pct = 1 }
  in
  check Alcotest.bool "synthesis bounded by estimate-gate survivors" true
    (o.Tuner.engine_invocations <= 3);
  check Alcotest.bool "hardware candidates pruned" true (o.Tuner.pruned > 0);
  check Alcotest.bool "infeasible counted" true (o.Tuner.search.Search.infeasible > 0);
  (* The all-software partitions survive and form the whole frontier. *)
  List.iter
    (fun (p : Search.point) ->
      check Alcotest.int ("frontier " ^ p.Search.key ^ " uses no fabric") 0
        p.Search.usage.Soc_hls.Report.lut)
    o.Tuner.search.Search.frontier

let test_greedy_matches_legacy_trajectory () =
  (* Tuner's greedy over the full space holds FIFO/schedule knobs at their
     start values, so it climbs the 16 partitions exactly as the retired
     hand-rolled sweep did: at 8x8 that sweep ended at HHSS, 9821 cycles. *)
  let o =
    Tuner.run ~cache:(Cache.create ())
      { (small_opts Search.Greedy 1) with Tuner.mode = `Rtl }
  in
  let trail = o.Tuner.search.Search.trail in
  let final = List.nth trail (List.length trail - 1) in
  check Alcotest.string "greedy endpoint" "HHSS/f1024/list/std" final.Search.key;
  let best = Option.get (Render.winner o.Tuner.search) in
  check Alcotest.int "greedy endpoint cycles match legacy" 9821 best.Search.cycles

let rtl_evolve_opts seed =
  { (small_opts (Search.Evolve { population = 8; generations = 4 }) seed) with
    Tuner.mode = `Rtl }

(* The compiled co-simulation backend is an optimization, never a change
   of answer: the same RTL sweep under the reference interpreter renders
   the same frontier, byte for byte. *)
let test_rtl_sweep_backend_identical () =
  let module Sim_engine = Soc_rtl_compile.Engine in
  let saved = Sim_engine.default_backend () in
  Fun.protect
    ~finally:(fun () -> Sim_engine.set_default_backend saved)
    (fun () ->
      let sweep backend =
        Sim_engine.set_default_backend backend;
        let o = Tuner.run ~cache:(Cache.create ()) (rtl_evolve_opts 3) in
        check Alcotest.bool "no failures" true (o.Tuner.search.Search.failures = []);
        Render.frontier_json o.Tuner.search
      in
      let interp = sweep Sim_engine.Interp in
      check Alcotest.string "frontier JSON identical across backends" interp
        (sweep Sim_engine.Compiled))

(* One sweep lowers each distinct netlist once, into one simulator
   program, however many candidates instantiate it; the program table
   outlives the sweep, so a repeat sweep in the same process lowers
   nothing. *)
let test_sweep_one_program_per_netlist () =
  let module Sim_engine = Soc_rtl_compile.Engine in
  let module Csim = Soc_rtl_compile.Csim in
  let opts = rtl_evolve_opts 5 in
  let sweep cache =
    let o = Tuner.run ~cache opts in
    check Alcotest.bool "no failures" true (o.Tuner.search.Search.failures = []);
    Render.frontier_json o.Tuner.search
  in
  Csim.clear_programs ();
  let b0 = Csim.program_builds () and l0 = Sim_engine.lowering_count () in
  let cache = Cache.create () in
  let cold = sweep cache in
  let builds = Csim.program_builds () - b0 and lowerings = Sim_engine.lowering_count () - l0 in
  check Alcotest.bool "the sweep simulated hardware" true (lowerings > 0);
  check Alcotest.int "one program per lowering" lowerings builds;
  check Alcotest.bool "a sweep lowers each distinct netlist once" true
    (lowerings <= Cache.size cache);
  let warm = sweep (Cache.create ()) in
  check Alcotest.int "a repeat sweep lowers nothing" (l0 + lowerings)
    (Sim_engine.lowering_count ());
  check Alcotest.string "same frontier either way" cold warm

(* ------------------------------------------------------------------ *)
(* The measurement memo and the post-synthesis budget check            *)
(* ------------------------------------------------------------------ *)

let same_sweep name (off : Tuner.outcome) (on : Tuner.outcome) =
  let cycles (o : Tuner.outcome) =
    List.map (fun (p : Search.point) -> (p.Search.key, p.Search.cycles)) o.Tuner.search.Search.points
  in
  check Alcotest.string (name ^ ": frontier JSON") (Render.frontier_json off.Tuner.search)
    (Render.frontier_json on.Tuner.search);
  check Alcotest.(list (pair string int)) (name ^ ": every cycle count") (cycles off) (cycles on);
  check Alcotest.(list (pair string string)) (name ^ ": failures")
    off.Tuner.search.Search.failures on.Tuner.search.Search.failures;
  check Alcotest.bool (name ^ ": identical result") true (off.Tuner.search = on.Tuner.search);
  check Alcotest.int (name ^ ": off co-simulates everything") 0 off.Tuner.cosim_reused;
  check Alcotest.bool (name ^ ": on reuses runs") true (on.Tuner.cosim_reused > 0)

(* The memo is an optimization, never a change of answer: with it off
   every candidate is co-simulated, and the sweeps must agree in every
   point, cycle count and failure. *)
let test_memo_oracle () =
  let both name opts =
    same_sweep name
      (Tuner.run ~cache:(Cache.create ()) ~memo:false opts)
      (Tuner.run ~cache:(Cache.create ()) opts)
  in
  both "exhaustive 8x8 RTL" { (small_opts Search.Exhaustive 1) with Tuner.mode = `Rtl };
  List.iter
    (fun seed ->
      both (Printf.sprintf "evolve 16x16 seed %d" seed)
        { Tuner.default_options with Tuner.seed; image_seed = 1 })
    [ 1; 2; 3; 4 ]

(* A run that filled a FIFO stands only for its own depth. At depth 4 the
   HHSS system back-pressures and takes longer: its run must neither
   answer for depth 1024 nor be answered by a depth-1024 run. *)
let test_memo_refuses_backpressured_run () =
  let width = 8 and height = 8 in
  let part = Soc_dse.Partition.of_signature "HHSS" in
  let build =
    lazy
      (Soc_core.Flow.build (Soc_dse.Partition.spec_of part)
         ~kernels:(Soc_dse.Partition.kernels_of part ~width ~height))
  in
  let run depth = Soc_dse.Runner.simulate ~width ~height ~fifo_depth:depth (Some (Lazy.force build)) part in
  let point (r : Soc_dse.Runner.run) =
    { Search.key = ""; label = ""; dsl = ""; objectives = [| r.Soc_dse.Runner.microseconds |];
      cycles = r.Soc_dse.Runner.cycles; usage = Soc_hls.Report.zero; tool_seconds = 0.0;
      fifo_peak = r.Soc_dse.Runner.fifo_peak }
  in
  (* Every depth has one behaviour; [measure] simulates at that depth. *)
  let prepare depth =
    { Soc_tune.Eval.entry = None; fifo_depth = depth; config = Engine.default_config; gate = [];
      measure = (fun _ -> point (run depth));
      behaviour = (fun ~netlist_key:_ _ -> "HHSS");
      reuse = (fun s _ -> s) }
  in
  let sweep depths =
    let ctr = Soc_tune.Eval.counters () in
    let out = Soc_tune.Eval.population ~counters:ctr ~cache:(Cache.create ()) ~prepare depths in
    ( List.map
        (function _, Search.Feasible p -> p.Search.cycles | _, _ -> Alcotest.fail "not feasible")
        out,
      ctr.Soc_tune.Eval.cosim_reused )
  in
  let shallow = run 4 and deep = run 1024 in
  check Alcotest.bool "depth 4 fills a FIFO" true (shallow.Soc_dse.Runner.fifo_peak >= 4);
  check Alcotest.bool "and changes the timing" true
    (shallow.Soc_dse.Runner.cycles <> deep.Soc_dse.Runner.cycles);
  let c4 = shallow.Soc_dse.Runner.cycles and c1024 = deep.Soc_dse.Runner.cycles in
  let pair = Alcotest.(pair (list int) int) in
  check pair "shallow first: nothing reused" ([ c4; c1024 ], 0) (sweep [ 4; 1024 ]);
  check pair "deep first: nothing reused" ([ c1024; c4 ], 0) (sweep [ 1024; 4 ]);
  check pair "same depth reused" ([ c4; c4 ], 1) (sweep [ 4; 4 ]);
  check pair "deeper than the peak reused" ([ c1024; c1024 ], 1) (sweep [ 1024; 2048 ])

(* The post-synthesis budget check comes before any co-simulation: an
   over-budget build whose accelerators are stripped (so instantiating
   it would fail) is rejected as infeasible, not as a failed run. *)
let test_budget_checked_before_cosim () =
  let opts = { (small_opts Search.Exhaustive 1) with Tuner.budget_pct = 1 } in
  let device = Tuner.budget_device 1 in
  let c = { (Tuner.space ()).Search.start with Tuner.part = Soc_dse.Partition.of_signature "SHSS" } in
  let p = Tuner.prepare opts device c in
  check Alcotest.bool "passes the pre-HLS estimate" false (Soc_util.Diag.has_errors p.Soc_tune.Eval.gate);
  let entry = Option.get p.Soc_tune.Eval.entry in
  let b =
    Soc_core.Flow.build ~hls_config:p.Soc_tune.Eval.config entry.Soc_farm.Jobgraph.spec
      ~kernels:entry.Soc_farm.Jobgraph.kernels
  in
  let stripped = Some { b with Soc_core.Flow.impls = [] } in
  let rejected f =
    match f () with
    | _ -> false
    | exception Soc_tune.Eval.Infeasible_point [ d ] -> d.Soc_util.Diag.code = "RES210"
    | exception _ -> false
  in
  check Alcotest.bool "measure rejects before instantiating" true
    (rejected (fun () -> p.Soc_tune.Eval.measure stripped));
  let any =
    { Search.key = ""; label = ""; dsl = ""; objectives = [| 1.0 |]; cycles = 1;
      usage = Soc_hls.Report.zero; tool_seconds = 0.0; fifo_peak = 0 }
  in
  check Alcotest.bool "reuse rejects too" true
    (rejected (fun () -> p.Soc_tune.Eval.reuse any stripped))

(* A 15% budget: every hardware candidate passes the pre-HLS estimate,
   and 120 of them fail the post-synthesis check. Checking before
   co-simulation, with the memo on or off, must keep the sweep exactly as
   it was when the check followed the run: the pinned digests are of
   that sweep's frontier JSON and of its diagnostics, in order. *)
let test_budget_sweep_unchanged () =
  let pct = 15 in
  let opts = { (small_opts Search.Exhaustive 1) with Tuner.budget_pct = pct; mode = `Rtl } in
  let device = Tuner.budget_device pct in
  let sweep memo =
    let cache = Cache.create () and diags = ref [] in
    let eval cands =
      let out = Soc_tune.Eval.population ~memo ~cache ~prepare:(Tuner.prepare opts device) cands in
      List.iter (function _, Search.Infeasible ds -> diags := !diags @ ds | _ -> ()) out;
      out
    in
    let r = Search.run ~space:(Tuner.space ()) ~eval Search.Exhaustive ~seed:1 in
    (r, List.map (fun d -> Soc_util.Diag.to_string d) !diags)
  in
  let digest s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun memo ->
      let r, diags = sweep memo in
      let name = if memo then "memo on" else "memo off" in
      check Alcotest.int (name ^ ": infeasible") 120 r.Search.infeasible;
      check Alcotest.int (name ^ ": feasible points") 72 (List.length r.Search.points);
      check Alcotest.string (name ^ ": frontier JSON") "e8338196d424a7d7a1391d27b93fc0ba"
        (digest (Render.frontier_json r));
      check Alcotest.string (name ^ ": diagnostics") "de7c4138cc9e7aa36aa4ffd383f31be9"
        (digest (String.concat "\n" diags)))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Streaming explore over a live daemon                                *)
(* ------------------------------------------------------------------ *)

let test_serve_explore_round_trip () =
  let d = Server.default_config in
  let cfg = { d with Server.workers = 1; kernels = Soc_apps.Otsu.kernels ~width:16 ~height:16 } in
  let srv = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let c = Client.connect ~port:(Server.port srv) () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let updates = ref 0 in
          let req =
            Protocol.Explore
              { strategy = "random"; seed = 5; budget_pct = 100; population = 8;
                generations = 4; samples = 4; width = 8; height = 8 }
          in
          match Client.explore c ~on_update:(fun _ -> incr updates) req with
          | Protocol.Explore_r { frontier; evaluated; rounds; engine_runs; _ } ->
            check Alcotest.bool "streamed at least one update" true (!updates >= 1);
            check Alcotest.int "evaluated all samples" 4 evaluated;
            check Alcotest.bool "at least one round" true (rounds >= 1);
            check Alcotest.bool "engine ran on a cold daemon cache" true (engine_runs > 0);
            check Alcotest.bool "frontier JSON present" true
              (String.length frontier > 0 && frontier.[0] = '{');
            (* A second identical sweep hits the daemon's cache and must
               return the same frontier bytes. *)
            let updates2 = ref 0 in
            (match Client.explore c ~on_update:(fun _ -> incr updates2) req with
            | Protocol.Explore_r { frontier = frontier2; engine_runs = runs2; _ } ->
              check Alcotest.string "frontier byte-stable across cache temperature"
                frontier frontier2;
              check Alcotest.int "warm sweep repeats no synthesis" 0 runs2
            | r -> Alcotest.failf "unexpected second reply: %s"
                     Protocol.(to_string (encode_response r)))
          | r ->
            Alcotest.failf "unexpected reply: %s" Protocol.(to_string (encode_response r))))

let test_protocol_explore_codecs () =
  let req =
    Protocol.Explore
      { strategy = "evolve"; seed = 9; budget_pct = 60; population = 12;
        generations = 5; samples = 40; width = 24; height = 24 }
  in
  check Alcotest.bool "request round-trips" true
    (Protocol.decode_request (Protocol.of_string (Protocol.to_string (Protocol.encode_request req)))
     = Ok req);
  let upd =
    Protocol.Explore_update
      { round = 2; evaluated = 9; infeasible = 1; frontier_size = 4; best_us = 130.5 }
  in
  check Alcotest.bool "update round-trips" true
    (Protocol.decode_response
       (Protocol.of_string (Protocol.to_string (Protocol.encode_response upd)))
     = Ok upd);
  let fin =
    Protocol.Explore_r
      { frontier = "{\"space\": \"otsu\"}\n"; evaluated = 9; infeasible = 1; rounds = 3;
        engine_runs = 7; cache_hits = 11; wall_ms = 42.0 }
  in
  check Alcotest.bool "final round-trips" true
    (Protocol.decode_response
       (Protocol.of_string (Protocol.to_string (Protocol.encode_response fin)))
     = Ok fin)

let suite =
  [
    Alcotest.test_case "dominates basics" `Quick test_dominates_basics;
    qtest qcheck_front_is_nondominated_set;
    qtest qcheck_front_idempotent;
    Alcotest.test_case "synthetic strategies deterministic" `Quick test_synth_deterministic;
    Alcotest.test_case "synthetic frontier non-dominated" `Quick test_synth_frontier_nondominated;
    Alcotest.test_case "exhaustive covers universe" `Quick test_exhaustive_covers_universe;
    Alcotest.test_case "memoization counts distinct" `Quick test_memoization_counts_distinct;
    Alcotest.test_case "strategy_of_string" `Quick test_strategy_of_string;
    Alcotest.test_case "tuner seeded deterministic" `Quick test_tuner_seeded_deterministic;
    Alcotest.test_case "warm re-sweep fewer invocations" `Quick test_warm_resweep_fewer_invocations;
    Alcotest.test_case "budget gate prunes pre-HLS" `Quick test_budget_gate_prunes_pre_hls;
    Alcotest.test_case "greedy matches legacy trajectory" `Quick test_greedy_matches_legacy_trajectory;
    Alcotest.test_case "RTL sweep identical across sim backends" `Quick
      test_rtl_sweep_backend_identical;
    Alcotest.test_case "sweep builds one program per netlist" `Quick
      test_sweep_one_program_per_netlist;
    Alcotest.test_case "memo off and on agree" `Slow test_memo_oracle;
    Alcotest.test_case "memo refuses a back-pressured run" `Quick
      test_memo_refuses_backpressured_run;
    Alcotest.test_case "budget checked before co-simulation" `Quick
      test_budget_checked_before_cosim;
    Alcotest.test_case "budget sweep unchanged" `Quick test_budget_sweep_unchanged;
    Alcotest.test_case "serve explore round trip" `Quick test_serve_explore_round_trip;
    Alcotest.test_case "protocol explore codecs" `Quick test_protocol_explore_codecs;
  ]
