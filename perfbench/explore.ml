(* explore-rtl: repeated autotuner sweeps (evolve, 16x16 image, RTL
   co-simulation), each on a fresh cache; an operation is one evaluated
   candidate. A run cycles through a fixed pool of four search seeds,
   starting at a position set by --seed, on an input image generated from
   --seed; the run sweeps whole cycles of the pool.
   The cost of one sweep differs by up to 2x between search seeds, so a
   search seed drawn from --seed would make a run's figures a property of
   that seed rather than of the code.
   Untraced sweeps are Tuner.run itself. Traced sweeps, and the
   references, are Tuner.run's composition rebuilt here (Search.run over
   Eval.population with Tuner.prepare) so that each candidate's
   measurement can be timed. *)

open Util
module Tuner = Soc_dse.Tuner
module Search = Soc_tune.Search
module Eval = Soc_tune.Eval
module Cache = Soc_farm.Cache
module Csim = Soc_rtl_compile.Csim

let seeds_per_run = 4
let sweep_seed seed i = 1 + ((((seed + i) mod seeds_per_run) + seeds_per_run) mod seeds_per_run)
let options ~image seed = { Tuner.default_options with Tuner.seed; image_seed = image }

(* A candidate's latency is the wall time of the search round that
   priced it: a population is answered as a whole, when Eval.population
   returns. [on_round] is Search.run's progress hook. *)
let round_clock () =
  let last = ref (now ()) and seen = ref 0 and lat = ref [] in
  let on_round (p : Search.progress) =
    let t = now () in
    for _ = 1 to p.Search.evaluated - !seen do
      lat := (t -. !last) :: !lat
    done;
    seen := p.Search.evaluated;
    last := t
  in
  (on_round, fun () -> !lat)

type sweep = {
  result : Search.result;
  lat_s : float list;  (* per evaluated candidate *)
  population_s : float;
  measure_s : float;
  cycles : int;  (* simulated cycles over all measured candidates *)
  counters : Eval.counters;
  engine_runs : int;
  lowerings : int;
  tape_hits : int;
  netlists : Soc_rtl.Netlist.t list;
}

(* Tuner.run's body with every candidate's measurement timed and the
   netlists it simulates kept. *)
let traced_sweep opts =
  let cache = Cache.create () in
  let device = Tuner.budget_device opts.Tuner.budget_pct in
  let ctr = Eval.counters () in
  let e0 = Soc_hls.Engine.invocation_count () and l0 = Soc_rtl_compile.Engine.lowering_count () in
  let population_s = ref 0.0 and measure_s = ref 0.0 in
  let cycles = ref 0 and netlists = ref [] in
  let prepare c =
    let p = Tuner.prepare opts device c in
    let measure b =
      let t0 = now () in
      Fun.protect
        ~finally:(fun () -> measure_s := !measure_s +. (now () -. t0))
        (fun () ->
          Option.iter
            (fun (b : Soc_core.Flow.build) ->
              List.iter
                (fun (i : Soc_core.Flow.node_impl) ->
                  netlists := i.Soc_core.Flow.accel.Soc_hls.Engine.fsmd.Soc_hls.Fsmd.netlist :: !netlists)
                b.Soc_core.Flow.impls)
            b;
          let pt = p.Eval.measure b in
          cycles := !cycles + pt.Search.cycles;
          pt)
    in
    { p with Eval.measure }
  in
  let eval cands =
    let out, d =
      time (fun () -> Eval.population ~jobs:opts.Tuner.jobs ~counters:ctr ~cache ~prepare cands)
    in
    population_s := !population_s +. d;
    out
  in
  let on_round, lat = round_clock () in
  let result =
    Search.run ~on_round ~space:(Tuner.space ()) ~eval opts.Tuner.strategy ~seed:opts.Tuner.seed
  in
  let ts = Cache.tape_stats cache in
  { result; lat_s = lat (); population_s = !population_s; measure_s = !measure_s; cycles = !cycles;
    counters = ctr; engine_runs = Soc_hls.Engine.invocation_count () - e0;
    lowerings = Soc_rtl_compile.Engine.lowering_count () - l0;
    tape_hits = ts.Cache.tape_hits + ts.Cache.tape_disk_hits; netlists = !netlists }

(* Search space and the 16x16 Otsu kernel library every candidate draws on. *)
let setup () =
  let space = Tuner.space () in
  let o = Tuner.default_options in
  List.iter
    (fun c -> ignore (Soc_dse.Partition.kernels_of c.Tuner.part ~width:o.Tuner.width ~height:o.Tuner.height))
    (space.Search.universe ());
  space

let run ~seed ~seconds ~trace =
  let clock = setup_clock ~per_round:100 ~setup ~teardown:ignore in
  let seeds = Array.init seeds_per_run (sweep_seed seed) in
  (* References, outside the timed window, through the traced
     composition rather than Tuner.run. *)
  let refs, refs_s = time (fun () -> Array.map (fun s -> traced_sweep (options ~image:seed s)) seeds) in
  let expect = Array.map (fun r -> Soc_tune.Render.frontier_json r.result) refs in
  let w = Window.create () in
  let traced_sweeps = ref [] in
  (* The window's sweep is one whole cycle of the seed pool, so every
     figure weighs the four search seeds alike; the run ends at the
     first cycle boundary after [seconds]. Set-up rounds go between
     program sweeps, outside their timing. *)
  let t_end = now () +. seconds in
  let cycle = ref 0 in
  while now () < t_end do
    let traced = trace && !cycle mod 2 = 1 in
    let secs = ref 0.0 and cpu_s = ref 0.0 in
    Array.iteri
      (fun k s ->
        let opts = options ~image:seed s and r = refs.(k) in
        let t0 = now () and c0 = cpu () in
        let result, engine_runs, hls_requests, lat_s =
          if traced then begin
            let sw = traced_sweep opts in
            traced_sweeps := sw :: !traced_sweeps;
            (sw.result, sw.engine_runs, sw.counters.Eval.hls_requests, sw.lat_s)
          end
          else begin
            let on_round, lat = round_clock () in
            let o = Tuner.run ~on_round opts in
            (o.Tuner.search, o.Tuner.engine_invocations, o.Tuner.hls_requests, lat ())
          end
        in
        secs := !secs +. (now () -. t0);
        cpu_s := !cpu_s +. (cpu () -. c0);
        let ok =
          result.Search.failures = []
          && Soc_tune.Render.frontier_json result = expect.(k)
          && engine_runs = r.engine_runs
          && hls_requests = r.counters.Eval.hls_requests
        in
        if not ok then Printf.eprintf "explore-rtl: sweep of seed %d differs from its reference\n%!" s;
        List.iter (fun l -> Window.op w ~traced ~ms:(1000.0 *. l) ~ok) lat_s;
        clock.round ())
      seeds;
    Window.sweep w ~runs:seeds_per_run ~traced ~secs:!secs ~cpu_s:!cpu_s ~complete:true;
    incr cycle
  done;
  let layers () =
    let timed = !traced_sweeps in
    (* Exact counts come from the reference sweep of the first seed. *)
    let one = refs.(0) in
    let med f = median (List.map f timed) in
    (* Tape lowering and translation validation of the distinct netlists
       that sweep simulated, outside the window. *)
    let spans = Spans.create () in
    let seen = Hashtbl.create 16 in
    let lowered = ref 0 and final = ref 0 in
    List.iter
      (fun net ->
        let key = Soc_rtl_compile.Tape.netlist_key net in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          let c = Spans.probe spans "tape.compile" (fun () -> Csim.create net) in
          let st = Csim.stats c in
          lowered := !lowered + st.Soc_rtl_compile.Tape.lowered;
          final := !final + st.Soc_rtl_compile.Tape.final;
          Spans.probe spans "tape.verify" (fun () -> Soc_rtl_compile.Verify.check ~net (Csim.tape c))
        end)
      one.netlists;
    let ctr = one.counters in
    [ m "bench.refs_s" "s" refs_s;
      m "tune.evaluated" "count" (float_of_int one.result.Search.evaluated);
      m "tune.pruned" "count" (float_of_int ctr.Eval.gated);
      m "tune.batches" "count" (float_of_int ctr.Eval.batches);
      m "tune.hls_requests" "count" (float_of_int ctr.Eval.hls_requests);
      m "tune.farm_ms" "ms" (1000.0 *. med (fun s -> s.population_s -. s.measure_s));
      m "hls.engine_runs" "count" (float_of_int one.engine_runs);
      m "hls.dedup_ratio" "ratio"
        (1.0 -. (float_of_int one.engine_runs /. float_of_int (max 1 ctr.Eval.hls_requests)));
      m "cosim.ms" "ms" (1000.0 *. med (fun s -> s.measure_s));
      m "cosim.sim_cycles" "count" (float_of_int one.cycles);
      m "cosim.ns_per_cycle" "ns" (1e9 *. med (fun s -> s.measure_s /. float_of_int (max 1 s.cycles)));
      m "tape.lowerings" "count" (float_of_int one.lowerings);
      m "tape.cache_hits" "count" (float_of_int one.tape_hits);
      m "tape.distinct_netlists" "count" (float_of_int (Hashtbl.length seen));
      m "tape.instrs_lowered" "count" (float_of_int !lowered);
      m "tape.instrs_final" "count" (float_of_int !final);
      m "tape.compile_ms" "ms" (Spans.total_ms spans "tape.compile");
      m "tape.verify_ms" "ms" (Spans.total_ms spans "tape.verify") ]
  in
  { window = w; setup_s = clock.setup_s (); layers; teardown = ignore }
