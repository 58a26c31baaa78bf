(* build-cold: a closed loop with one caller. Each operation is one
   Farm.build_batch on a fresh in-memory cache, over a seeded draw of
   four designs from a generated family. The timed batches run one farm
   worker domain: on a two-vCPU host, two domains made identical runs
   differ by 2x in throughput. The references run nproc domains, so the
   farm's parallel path is still checked against the timed one. *)

open Util
module Farm = Soc_farm.Farm
module Cache = Soc_farm.Cache
module Jobgraph = Soc_farm.Jobgraph
module Partition = Soc_dse.Partition
module Tuner = Soc_dse.Tuner

type design = { label : string; entry : Jobgraph.entry; list_only : bool }

type draw = { config : Soc_hls.Engine.config; config_name : string; designs : design list }

let batch_size = 4

(* The 15 non-empty Otsu partitions at three image sizes, plus the FIR
   pipeline, the XTEA loopback and Fig. 4. *)
let family () =
  let parts = List.filter (fun p -> not (Partition.is_all_sw p)) (Partition.enumerate ()) in
  let otsu =
    List.concat_map
      (fun n ->
        List.map
          (fun p ->
            { label = Printf.sprintf "%s@%dx%d" (Partition.signature p) n n;
              entry = { Jobgraph.spec = Partition.spec_of p;
                        kernels = Partition.kernels_of p ~width:n ~height:n };
              list_only = false })
          parts)
      [ 8; 12; 16 ]
  in
  otsu
  @ [ { label = "fir@256";
        entry = { Jobgraph.spec = Soc_apps.Fir.pipeline_spec;
                  kernels = Soc_apps.Fir.pipeline_kernels ~samples:256 };
        list_only = false };
      { label = "xtea@128";
        entry = { Jobgraph.spec = Soc_apps.Xtea.loopback_spec;
                  kernels = Soc_apps.Xtea.loopback_kernels ~blocks:128 };
        list_only = false };
      { label = "fig4@16x16";
        entry = { Jobgraph.spec = Soc_apps.Graphs.fig4_spec;
                  kernels = Soc_apps.Graphs.fig4_kernels ~width:16 ~height:16 };
        list_only = true } ]

(* The list/asap x std/narrow HLS configurations of the autotuner. *)
let configs =
  List.concat_map
    (fun asap ->
      List.map
        (fun narrow ->
          let c = { Tuner.part = Partition.all_sw; fifo = 1024; asap; narrow } in
          (Tuner.config_of c,
           Printf.sprintf "%s/%s" (if asap then "asap" else "list") (if narrow then "narrow" else "std")))
        [ false; true ])
    [ false; true ]

(* One sweep: under each configuration, a seeded shuffle of the family
   cut into batches of four, so every sweep holds the same designs and
   the seed decides only which designs share a batch. Fig. 4 is built
   under list scheduling only: the ASAP configurations do not honour
   its single memory read port (an HLS "illegal schedule" error). *)
let draws ~seed fam =
  let rng = Soc_util.Rng.create seed in
  List.concat_map
    (fun (config, config_name) ->
      let asap = config.Soc_hls.Engine.strategy = Soc_hls.Schedule.Asap in
      let pool = List.filter (fun d -> not (asap && d.list_only)) fam in
      let shuffled = Array.to_list (Soc_util.Rng.shuffle rng (Array.of_list pool)) in
      let rec cut = function
        | [] -> []
        | l ->
          let designs = List.filteri (fun i _ -> i < batch_size) l in
          { config; config_name; designs } :: cut (List.filteri (fun i _ -> i >= batch_size) l)
      in
      cut shuffled)
    configs

let entries d = List.map (fun x -> x.entry) d.designs

let batch ?trace ~jobs d =
  Farm.build_batch ~jobs ~hls_config:d.config ~cache:(Cache.create ()) ?trace (entries d)

(* Wall time covered by the farm's own job spans, first start to last end. *)
let span_interval (r : Farm.report) =
  match Soc_farm.Trace.spans r.Farm.trace with
  | [] -> 0.0
  | spans ->
    let lo = List.fold_left (fun a s -> min a s.Soc_farm.Trace.t_start) infinity spans in
    let hi = List.fold_left (fun a s -> max a s.Soc_farm.Trace.t_end) neg_infinity spans in
    hi -. lo

let busy (r : Farm.report) =
  sum (List.map (fun s -> s.Soc_farm.Trace.t_end -. s.Soc_farm.Trace.t_start) (Soc_farm.Trace.spans r.Farm.trace))

let kernels_requested ds =
  isum (List.concat_map (fun d -> List.map (fun (e : Jobgraph.entry) -> List.length e.Jobgraph.kernels) (entries d)) ds)

let run ~seed ~seconds ~trace =
  let make () = Array.of_list (draws ~seed (family ())) in
  let ds = make () in
  let clock = setup_clock ~per_round:100 ~setup:make ~teardown:ignore in
  (* References, outside the timed window: the same draw on nproc
     domains. *)
  let refs, refs_s =
    time (fun () -> Array.map (fun d -> Farm.manifest_json (batch ~jobs:(nproc ()) d)) ds)
  in
  let spans = Spans.create () in
  let w = Window.create () in
  (* Exact counts of the first complete sweep. *)
  let first_counts = ref None in
  let farm_overhead = ref [] and idle_share = ref [] in
  let one_batch ~traced i =
    let d = ds.(i) in
    let r, dt = time (fun () -> Spans.span spans "farm.batch" (fun () -> batch ~jobs:1 d)) in
    let ok = r.Farm.failures = [] && Farm.manifest_json r = refs.(i) in
    if not ok then
      Printf.eprintf "build-cold: wrong batch %s [%s]: %s\n%!" d.config_name
        (String.concat " " (List.map (fun x -> x.label) d.designs))
        (String.concat "; " (List.map (Format.asprintf "%a" Soc_farm.Pool.pp_failure) r.Farm.failures));
    Window.op w ~n:(List.length d.designs) ~traced ~ms:(1000.0 *. dt) ~ok;
    if traced then begin
      let b = busy r in
      Spans.record spans "farm.job_busy" b;
      farm_overhead := (dt -. span_interval r) :: !farm_overhead;
      idle_share := (1.0 -. b /. dt) :: !idle_share
    end;
    r.Farm.stats.Farm.cache.Cache.misses
  in
  let t_end = now () +. seconds in
  let sweep_no = ref 0 in
  while now () < t_end do
    let traced = trace && !sweep_no mod 2 = 1 in
    spans.Spans.enabled <- traced;
    timed_sweep w ~traced (fun () ->
        let e0 = Soc_hls.Engine.invocation_count () in
        let i = ref 0 and misses = ref 0 in
        while !i < Array.length ds && now () < t_end do
          misses := !misses + one_batch ~traced !i;
          incr i
        done;
        let complete = !i = Array.length ds in
        if complete && !first_counts = None then
          first_counts := Some (Soc_hls.Engine.invocation_count () - e0, !misses);
        complete);
    clock.round ();
    incr sweep_no
  done;
  let layers () =
    (* Staged replay of the first draws, outside the timed window: each
       flow layer timed through its own public entry point. *)
    Array.iteri (fun i d -> if i < 8 then Probes.staged_flow spans ~hls_config:d.config (entries d)) ds;
    let engine_runs, misses = Option.value !first_counts ~default:(0, 0) in
    [ m "bench.refs_s" "s" refs_s;
      m "hls.engine_runs" "count" (float_of_int engine_runs);
      m "cache.misses" "count" (float_of_int misses);
      m "hls.dedup_ratio" "ratio"
        (1.0 -. (float_of_int engine_runs /. float_of_int (kernels_requested (Array.to_list ds))));
      m "farm.batch_ms" "ms" (Spans.median_ms spans "farm.batch");
      m "farm.job_busy_ms" "ms" (Spans.median_ms spans "farm.job_busy");
      m "farm.overhead_ms" "ms" (1000.0 *. median !farm_overhead);
      m "farm.worker_idle_share" "ratio" (median !idle_share) ]
    @ Probes.staged_metrics spans
  in
  { window = w; setup_s = clock.setup_s (); layers; teardown = ignore }
