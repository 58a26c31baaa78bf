(* Tests for the DSE extension: partition model, generated specs, the
   generic host runner, and exhaustive/greedy search over the 16
   partitions through the autotuner. *)

module P = Soc_dse.Partition
module T = Soc_dse.Tuner
module S = Soc_tune.Search

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Partition model                                                     *)
(* ------------------------------------------------------------------ *)

let test_enumerate_covers_space () =
  let all = P.enumerate () in
  check Alcotest.int "16 partitions" 16 (List.length all);
  check Alcotest.int "16 distinct signatures" 16
    (List.length (List.sort_uniq compare (List.map P.signature all)))

let test_signature_roundtrip () =
  List.iter
    (fun p -> check Alcotest.bool (P.signature p) true (P.of_signature (P.signature p) = p))
    (P.enumerate ())

let test_paper_archs_as_partitions () =
  check Alcotest.string "arch1" "SHSS" (P.signature P.arch1);
  check Alcotest.string "arch2" "SSHS" (P.signature P.arch2);
  check Alcotest.string "arch3" "SHHS" (P.signature P.arch3);
  check Alcotest.string "arch4" "HHHH" (P.signature P.arch4)

let test_specs_validate () =
  List.iter
    (fun p ->
      if not (P.is_all_sw p) then Soc_core.Spec.validate_exn (P.spec_of p))
    (P.enumerate ())

let test_arch_partition_specs_match_paper_archs () =
  (* The partition generator and the hand-written Table I specs agree on
     node sets and 'soc crossings. *)
  let crossing spec =
    ( List.length (Soc_core.Spec.soc_to_node_links spec),
      List.length (Soc_core.Spec.node_to_soc_links spec),
      List.length (Soc_core.Spec.internal_links spec) )
  in
  List.iter
    (fun (partition, arch) ->
      let a = P.spec_of partition in
      let b = Soc_apps.Graphs.arch_spec arch in
      check Alcotest.int
        (P.signature partition ^ " node count")
        (List.length b.Soc_core.Spec.nodes)
        (List.length a.Soc_core.Spec.nodes);
      check
        (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
        (P.signature partition ^ " link structure")
        (crossing b) (crossing a))
    [ (P.arch1, Soc_apps.Graphs.Arch1); (P.arch2, Soc_apps.Graphs.Arch2);
      (P.arch3, Soc_apps.Graphs.Arch3); (P.arch4, Soc_apps.Graphs.Arch4) ]

let test_direct_link_rule () =
  (* gray->seg is direct only when the whole pipeline is HW. *)
  let internal p = Soc_core.Spec.internal_links (P.spec_of p) in
  check Alcotest.int "full partition: 4 internal links" 4 (List.length (internal P.arch4));
  let gray_seg = { P.all_sw with P.gray = true; seg = true } in
  check Alcotest.int "gray+seg only: no internal links" 0 (List.length (internal gray_seg))

let test_hw_runs_grouping () =
  (* The host program's plan: maximal runs of the stages the partition's
     spec names, each one hardware phase. *)
  let runs p =
    List.filter_map
      (function Soc_apps.Otsu_runner.Hw run -> Some run | Soc_apps.Otsu_runner.Sw _ -> None)
      (Soc_apps.Otsu_runner.plan (Some (P.spec_of p)))
  in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "HHSS" [ [ "grayScale"; "computeHistogram" ] ]
    (runs (P.of_signature "HHSS"));
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "HSSH"
    [ [ "grayScale" ]; [ "segment" ] ]
    (runs (P.of_signature "HSSH"));
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "SSSS" [] (runs P.all_sw)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

(* One partition end to end: the staged flow (unless all-SW) through the
   given HLS engine, then Runner.simulate. *)
let evaluate ?hls ?mode ~width ~height (p : P.t) =
  let fifo_depth = max 1024 ((width * height) + 16) in
  let build =
    if P.is_all_sw p then None
    else
      Some
        (Soc_core.Flow.build ~fifo_depth ?hls (P.spec_of p)
           ~kernels:(P.kernels_of p ~width ~height))
  in
  Soc_dse.Runner.simulate ~width ~height ~fifo_depth ?mode build p

let test_all_sw_point () =
  let pt = evaluate ~width:16 ~height:16 P.all_sw in
  check Alcotest.int "no fabric" 0 (fst (Soc_dse.Runner.costs None)).Soc_hls.Report.lut;
  check Alcotest.int "no FIFO" 0 pt.Soc_dse.Runner.fifo_peak;
  check Alcotest.bool "time charged" true (pt.Soc_dse.Runner.cycles > 0)

let test_every_partition_is_bit_exact () =
  (* Runner.simulate raises Wrong_output internally when the image differs
     from the golden model, so completing the sweep is itself the check. *)
  let cache = Soc_farm.Cache.create () in
  let hls = Soc_farm.Cache.hls_engine cache in
  List.iter
    (fun p -> ignore (evaluate ~width:12 ~height:12 ~hls p))
    (P.enumerate ())

let test_behavioral_mode_bit_exact () =
  (* The fast sweep mode produces identical images (functional check is
     internal to simulate) and never slower-than-RTL timing. *)
  List.iter
    (fun sig_ ->
      let p = P.of_signature sig_ in
      let rtl = evaluate ~width:12 ~height:12 ~mode:`Rtl p in
      let beh = evaluate ~width:12 ~height:12 ~mode:`Behavioral p in
      check Alcotest.bool (sig_ ^ " same image") true
        (Soc_apps.Image.equal rtl.Soc_dse.Runner.output beh.Soc_dse.Runner.output);
      check Alcotest.bool (sig_ ^ " behavioral <= rtl cycles") true
        (beh.Soc_dse.Runner.cycles <= rtl.Soc_dse.Runner.cycles))
    [ "HHHH"; "SHHS" ]

let test_arch_points_match_host_program () =
  (* The paper's architectures as partitions: the same timeline the host
     program pins for run_arch / run_software_only (16x16, seed 42). *)
  List.iter
    (fun (p, cycles) ->
      check Alcotest.int (P.name p ^ " cycles") cycles
        (evaluate ~width:16 ~height:16 p).Soc_dse.Runner.cycles)
    [ (P.arch1, 16747); (P.arch2, 19709); (P.arch3, 18781); (P.arch4, 15158); (P.all_sw, 16371) ]

let test_mixed_partition_threshold () =
  (* otsu in HW, seg in SW: the threshold must land in DRAM. *)
  let pt = evaluate ~width:16 ~height:16 (P.of_signature "SSHS") in
  let _, golden_thr = Soc_apps.Otsu_runner.golden ~width:16 ~height:16 () in
  check Alcotest.int "threshold through DMA" golden_thr pt.Soc_dse.Runner.threshold

(* A FIFO's depth matters only under backpressure: an Otsu system run
   again at any depth above the peak occupancy its first run recorded
   is the same run (cycles, time, image, threshold, peak). *)
let prop_depth_above_peak_same_run =
  let width = 8 and height = 8 in
  let reference = Hashtbl.create 16 in
  let first_run p =
    match Hashtbl.find_opt reference p with
    | Some r -> r
    | None ->
      let b = Soc_core.Flow.build (P.spec_of p) ~kernels:(P.kernels_of p ~width ~height) in
      let r = (b, Soc_dse.Runner.simulate ~width ~height (Some b) p) in
      Hashtbl.replace reference p r;
      r
  in
  let hw = List.filter (fun p -> not (P.is_all_sw p)) (P.enumerate ()) in
  QCheck.Test.make ~name:"FIFO depth above the peak leaves a run unchanged" ~count:30
    (QCheck.make
       ~print:(fun (p, extra) -> Printf.sprintf "%s, peak + 1 + %d" (P.signature p) extra)
       QCheck.Gen.(pair (oneofl hw) (int_bound 64)))
    (fun (p, extra) ->
      let b, r = first_run p in
      let fifo_depth = r.Soc_dse.Runner.fifo_peak + 1 + extra in
      Soc_dse.Runner.simulate ~width ~height ~fifo_depth (Some b) p = r)

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

(* The 16 partitions: the tuner space with FIFO 1024, list scheduling and
   the standard FU allocation held fixed, priced through the farm. *)
let search strategy =
  let opts = T.default_options in
  let space = T.space () in
  let space =
    { space with
      S.universe =
        (fun () ->
          List.filter
            (fun c -> c.T.fifo = 1024 && (not c.T.asap) && not c.T.narrow)
            (space.S.universe ())) }
  in
  let cache = Soc_farm.Cache.create () in
  let prepare = T.prepare opts (T.budget_device opts.T.budget_pct) in
  let eval cands = Soc_tune.Eval.population ~cache ~prepare cands in
  S.run ~space ~eval strategy ~seed:opts.T.seed

let sweep = lazy (search S.Exhaustive)
let lut (p : S.point) = p.S.usage.Soc_hls.Report.lut
let is_all_sw (p : S.point) = p.S.key = T.key (T.space ()).S.start

let test_exhaustive_counts () =
  let r = Lazy.force sweep in
  check Alcotest.int "16 evaluations" 16 r.S.evaluated

let test_pareto_properties () =
  let r = Lazy.force sweep in
  let front =
    Soc_tune.Pareto.front
      ~objectives:(fun p -> [| float_of_int p.S.cycles; float_of_int (lut p) |])
      r.S.points
  in
  check Alcotest.bool "front non-empty" true (front <> []);
  (* No front point dominates another front point. *)
  List.iter
    (fun (a : S.point) ->
      List.iter
        (fun (b : S.point) ->
          if a != b then
            let dominates =
              a.S.cycles <= b.S.cycles
              && lut a <= lut b
              && (a.S.cycles < b.S.cycles || lut a < lut b)
            in
            if dominates then Alcotest.fail "front contains dominated point")
        front)
    front;
  (* Every non-front point is dominated by some front point. *)
  List.iter
    (fun (p : S.point) ->
      if not (List.memq p front) then
        let dominated =
          List.exists (fun (q : S.point) -> q.S.cycles <= p.S.cycles && lut q <= lut p) front
        in
        check Alcotest.bool "dominated by front" true dominated)
    r.S.points;
  (* The all-SW point (0 LUT) is always on the front. *)
  check Alcotest.bool "SW on front" true (List.exists is_all_sw front)

let test_greedy_descends () =
  let g = search S.Greedy in
  let cycles = List.map (fun (p : S.point) -> p.S.cycles) g.S.trail in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  check Alcotest.bool "strictly improving trajectory" true (decreasing cycles);
  check Alcotest.bool "starts all-SW" true (is_all_sw (List.hd g.S.trail));
  check Alcotest.bool "fewer evals than exhaustive would need at scale" true
    (g.S.evaluated <= 16)

let test_greedy_endpoint_not_dominated () =
  let r = Lazy.force sweep in
  let g = search S.Greedy in
  let last = List.nth g.S.trail (List.length g.S.trail - 1) in
  (* No exhaustive point strictly beats the greedy endpoint on latency. *)
  let best_cycles =
    List.fold_left (fun acc (p : S.point) -> min acc p.S.cycles) max_int r.S.points
  in
  check Alcotest.bool "greedy reaches within 25% of the best latency" true
    (float_of_int last.S.cycles <= 1.25 *. float_of_int best_cycles)

(* Property: spec_of never produces a spec whose validation fails, for any
   random signature. *)
let prop_random_partition_specs =
  QCheck.Test.make ~name:"partition specs validate" ~count:50
    (QCheck.make
       (QCheck.Gen.oneofl (List.filter (fun p -> not (P.is_all_sw p)) (P.enumerate ()))))
    (fun p -> Soc_core.Spec.validate (P.spec_of p) = Ok ())

let suite =
  [
    ("enumerate covers the space", `Quick, test_enumerate_covers_space);
    ("signature round-trip", `Quick, test_signature_roundtrip);
    ("paper archs as partitions", `Quick, test_paper_archs_as_partitions);
    ("all partition specs validate", `Quick, test_specs_validate);
    ("partition specs match paper archs", `Quick, test_arch_partition_specs_match_paper_archs);
    ("direct-link rule", `Quick, test_direct_link_rule);
    ("hw run grouping", `Quick, test_hw_runs_grouping);
    ("all-software point", `Quick, test_all_sw_point);
    ("every partition bit-exact", `Slow, test_every_partition_is_bit_exact);
    ("behavioral DSE mode", `Quick, test_behavioral_mode_bit_exact);
    ("arch points match host program", `Quick, test_arch_points_match_host_program);
    ("mixed partition threshold", `Quick, test_mixed_partition_threshold);
    ("exhaustive evaluation count", `Quick, test_exhaustive_counts);
    ("pareto front properties", `Quick, test_pareto_properties);
    ("greedy trajectory", `Quick, test_greedy_descends);
    ("greedy endpoint quality", `Quick, test_greedy_endpoint_not_dominated);
    qtest prop_random_partition_specs;
    qtest prop_depth_above_peak_same_run;
  ]
