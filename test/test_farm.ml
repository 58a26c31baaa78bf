(* Tests for the build farm: content hashing, the artifact cache, the
   domain pool, and the batched generation flow — including the acceptance
   guarantees: a shared farm cache performs strictly fewer real HLS engine
   runs than independent builds, results are bit-identical for any worker
   count, and warm-cache builds are bit-exact replicas of cold ones. *)

module Farm = Soc_farm.Farm
module Jobgraph = Soc_farm.Jobgraph
module Cache = Soc_farm.Cache
module Chash = Soc_farm.Chash
module Pool = Soc_farm.Pool
module Trace = Soc_farm.Trace
module Flow = Soc_core.Flow
module Graphs = Soc_apps.Graphs

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let w = 16
let h = 16

let entries () =
  List.map
    (fun arch ->
      { Jobgraph.spec = Graphs.arch_spec arch;
        kernels = Graphs.arch_kernels arch ~width:w ~height:h })
    Graphs.all_archs

(* Bit-exact comparison of whole build records (specs, Tcl, address maps,
   accelerators down to the netlists, software artifacts, tool times).
   [No_sharing] so the digest depends only on structure — a cached accel
   that no longer physically shares its kernel with the node_impl must
   still compare equal. *)
let digest (b : Flow.build) =
  Digest.to_hex (Digest.string (Marshal.to_string b [ Marshal.No_sharing ]))

let digests (r : Farm.report) = List.map (fun (i, b) -> (i, digest b)) r.Farm.builds

(* ------------------------------------------------------------------ *)
(* Content hash                                                        *)
(* ------------------------------------------------------------------ *)

let cfg = Soc_hls.Engine.default_config

let test_chash_stable () =
  let k () = Soc_apps.Otsu.histogram_kernel ~pixels:64 in
  check Alcotest.string "same IR, same hash"
    (Chash.to_hex (Chash.kernel ~config:cfg (k ())))
    (Chash.to_hex (Chash.kernel ~config:cfg (k ())))

let test_chash_discriminates () =
  let k = Soc_apps.Otsu.histogram_kernel ~pixels:64 in
  let k' = Soc_apps.Otsu.histogram_kernel ~pixels:65 in
  check Alcotest.bool "different trip count, different hash" true
    (Chash.kernel ~config:cfg k <> Chash.kernel ~config:cfg k');
  let cfg' = { cfg with Soc_hls.Engine.optimize = false } in
  check Alcotest.bool "different HLS config, different hash" true
    (Chash.kernel ~config:cfg k <> Chash.kernel ~config:cfg' k)

let test_chash_name_is_not_the_key () =
  (* Two kernels with the same name but different bodies must never alias —
     the failure mode of the old name-keyed cache. *)
  let open Soc_kernel.Ast.Build in
  let mk body =
    { Soc_kernel.Ast.kname = "f";
      ports = [ in_scalar "a" Soc_kernel.Ty.U32; out_scalar "r" Soc_kernel.Ty.U32 ];
      locals = []; arrays = []; body }
  in
  check Alcotest.bool "same name, different body" true
    (Chash.kernel ~config:cfg (mk [ set "r" (v "a" +: int 1) ])
    <> Chash.kernel ~config:cfg (mk [ set "r" (v "a" +: int 2) ]))

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let int_job ?(deps = []) label f : int Pool.job =
  { Pool.label; cat = "test"; deps; work = f }

let test_pool_dag_order () =
  (* A diamond: 0 -> {1, 2} -> 3. *)
  let jobs =
    [|
      int_job "a" (fun _ -> 1);
      int_job ~deps:[ 0 ] "b" (fun get -> (get 0) * 10);
      int_job ~deps:[ 0 ] "c" (fun get -> (get 0) + 5);
      int_job ~deps:[ 1; 2 ] "d" (fun get -> get 1 + get 2);
    |]
  in
  match Pool.run ~jobs:4 jobs with
  | [| Pool.Done 1; Pool.Done 10; Pool.Done 6; Pool.Done 16 |] -> ()
  | _ -> Alcotest.fail "unexpected outcomes"

let test_pool_deterministic_across_workers () =
  let jobs =
    Array.init 40 (fun i ->
        int_job (Printf.sprintf "j%d" i)
          ~deps:(if i = 0 then [] else [ i - 1 ])
          (fun get -> if i = 0 then 7 else (get (i - 1) * 31 + i) land 0xFFFF))
  in
  let run n = Array.map (function Pool.Done v -> v | _ -> -1) (Pool.run ~jobs:n jobs) in
  check (Alcotest.array Alcotest.int) "1 worker = 8 workers" (run 1) (run 8)

let test_pool_failure_propagates () =
  let jobs =
    [|
      int_job "ok" (fun _ -> 1);
      { Pool.label = "boom"; cat = "test"; deps = [ 0 ];
        work = (fun _ -> failwith "kaboom") };
      int_job ~deps:[ 1 ] "downstream" (fun get -> get 1);
      int_job ~deps:[ 0 ] "independent" (fun get -> get 0 + 1);
    |]
  in
  let o = Pool.run ~jobs:2 jobs in
  (match o.(1) with
  | Pool.Failed { Pool.reason = Pool.Exception msg; _ } ->
    check Alcotest.bool "message kept" true (Tstr.contains msg "kaboom")
  | _ -> Alcotest.fail "job 1 should fail");
  (match o.(2) with
  | Pool.Failed { Pool.reason = Pool.Dependency 1; _ } -> ()
  | _ -> Alcotest.fail "job 2 should be skipped on dependency failure");
  match o.(3) with
  | Pool.Done 2 -> ()
  | _ -> Alcotest.fail "independent job must still run"

let test_pool_one_worker_is_the_caller () =
  let caller = (Domain.self () :> int) in
  let jobs =
    Array.init 12 (fun i ->
        int_job (Printf.sprintf "j%d" i)
          ~deps:(if i < 2 then [] else [ i - 2 ])
          (fun _ -> (Domain.self () :> int)))
  in
  Array.iteri
    (fun i o ->
      match o with
      | Pool.Done d -> check Alcotest.int (Printf.sprintf "job %d on the caller" i) caller d
      | Pool.Failed _ -> Alcotest.fail "no job may fail")
    (Pool.run ~jobs:1 jobs)

(* A wide DAG with one failing branch: the outcome array, failures and
   skips included, must not depend on how many workers ran it. *)
let test_pool_three_workers_match_one () =
  let jobs =
    Array.init 30 (fun i ->
        if i = 7 then
          { Pool.label = "boom"; cat = "test"; deps = [ 0 ]; work = (fun _ -> failwith "seven") }
        else
          int_job (Printf.sprintf "j%d" i)
            ~deps:(if i < 3 then [] else [ i mod 3; i - 3 ])
            (fun get ->
              if i < 3 then i + 1
              else (get (i mod 3) * 131 + get (i - 3) + i) land 0xFFFFF))
  in
  let run n =
    let trace = Trace.create () in
    let o = Pool.run ~jobs:n ~trace jobs in
    (Marshal.to_string o [ Marshal.No_sharing ], Trace.spans trace)
  in
  let bytes1, _ = run 1 in
  let bytes3, spans3 = run 3 in
  check Alcotest.string "jobs 3 outcomes = jobs 1 outcomes" bytes1 bytes3;
  List.iter
    (fun (s : Trace.span) ->
      check Alcotest.bool
        (Printf.sprintf "span %s worker %d in 1..3" s.Trace.name s.Trace.worker)
        true
        (s.Trace.worker >= 1 && s.Trace.worker <= 3))
    spans3

let test_pool_caller_job_raises () =
  let jobs =
    [|
      { Pool.label = "boom"; cat = "test"; deps = []; work = (fun _ -> failwith "on the caller") };
      int_job ~deps:[ 0 ] "child" (fun get -> get 0);
      int_job ~deps:[ 1 ] "grandchild" (fun get -> get 1);
      int_job "sibling" (fun _ -> 3);
    |]
  in
  match Pool.run ~jobs:1 jobs with
  | [| Pool.Failed { Pool.reason = Pool.Exception msg; _ };
       Pool.Failed { Pool.reason = Pool.Dependency 0; _ };
       Pool.Failed { Pool.reason = Pool.Dependency 1; _ };
       Pool.Done 3 |] ->
    check Alcotest.bool "message kept" true (Tstr.contains msg "on the caller")
  | _ -> Alcotest.fail "the raise must become a Failed outcome and skip its dependents"

let test_pp_failure_text () =
  (* The text reaches serve replies, the tuner's failure column and
     `socdsl build`'s FAILED line: pin it for each reason. *)
  let text reason =
    Format.asprintf "%a" Pool.pp_failure { Pool.index = 3; label = "hls:k"; reason }
  in
  check Alcotest.string "exception" "job 3 (hls:k) failed after 1 attempt: Failure(\"x\")"
    (text (Pool.Exception "Failure(\"x\")"));
  check Alcotest.string "dependency" "job 3 (hls:k) failed after 0 attempts: dependency 1 failed"
    (text (Pool.Dependency 1));
  check Alcotest.string "aborted"
    "job 3 (hls:k) failed after 0 attempts: aborted before dispatch (run killed)"
    (text Pool.Aborted)

(* ------------------------------------------------------------------ *)
(* Job graph                                                           *)
(* ------------------------------------------------------------------ *)

let test_plan_dedups_kernels () =
  let g = Jobgraph.plan (entries ()) in
  (* grayScale, computeHistogram, halfProbability, segment — shared nodes
     across Arch1-4 collapse to one HLS job each. *)
  check Alcotest.int "4 distinct kernels" 4 (Jobgraph.distinct_kernels g);
  (* 4 HLS + 4 per-arch stage jobs * 4 archs *)
  check Alcotest.int "job count" (4 + (4 * 4)) (Array.length g.Jobgraph.nodes);
  (* Deps are well-formed (each dep precedes its job). *)
  Array.iteri
    (fun i (n : Jobgraph.node) ->
      List.iter (fun d -> check Alcotest.bool "dep < job" true (d < i)) n.Jobgraph.deps)
    g.Jobgraph.nodes;
  (* The job categories are exactly the stages a kill point can name. *)
  check (Alcotest.list Alcotest.string) "categories = kill stages"
    (List.sort compare Jobgraph.stages)
    (List.sort_uniq compare
       (Array.to_list (Array.map (fun (n : Jobgraph.node) -> n.Jobgraph.cat) g.Jobgraph.nodes)))

let test_plan_ownership_by_batch_order () =
  let g = Jobgraph.plan (entries ()) in
  Array.iter
    (fun (n : Jobgraph.node) ->
      match n.Jobgraph.task with
      | Jobgraph.Hls { kernel; owner; _ } ->
        let expected =
          match kernel.Soc_kernel.Ast.kname with
          | "computeHistogram" -> 0 (* first needed by Arch1 *)
          | "halfProbability" -> 1 (* Arch2 *)
          | "grayScale" | "segment" -> 3 (* only Arch4 *)
          | k -> Alcotest.failf "unexpected kernel %s" k
        in
        check Alcotest.int ("owner of " ^ kernel.Soc_kernel.Ast.kname) expected owner
      | _ -> ())
    g.Jobgraph.nodes

(* ------------------------------------------------------------------ *)
(* Farm batches                                                        *)
(* ------------------------------------------------------------------ *)

let test_batch_matches_serial_flow () =
  (* The farm must produce bit-identical build records to serial
     Flow.build calls sharing one cache, in the same batch order. *)
  let serial =
    let hls = Cache.hls_engine (Cache.create ()) in
    List.map
      (fun (e : Jobgraph.entry) ->
        digest (Flow.build ~hls e.Jobgraph.spec ~kernels:e.Jobgraph.kernels))
      (entries ())
  in
  let r = Farm.build_batch ~jobs:4 (entries ()) in
  check Alcotest.int "all four built" 4 (List.length r.Farm.builds);
  check (Alcotest.list Alcotest.string) "farm = serial flow, bit-exact" serial
    (List.map snd (digests r))

let test_batch_fewer_engine_invocations () =
  (* Acceptance: Arch1-4 through a shared farm cache performs strictly
     fewer real HLS engine invocations than four independent builds. *)
  let before = Soc_hls.Engine.invocation_count () in
  List.iter
    (fun (e : Jobgraph.entry) ->
      ignore (Flow.build e.Jobgraph.spec ~kernels:e.Jobgraph.kernels))
    (entries ());
  let independent = Soc_hls.Engine.invocation_count () - before in
  let r = Farm.build_batch ~jobs:2 (entries ()) in
  check Alcotest.int "independent builds run HLS per (arch, kernel)" 8 independent;
  check Alcotest.int "farm runs HLS once per distinct kernel" 4
    r.Farm.stats.Farm.engine_invocations;
  check Alcotest.bool "strictly fewer" true
    (r.Farm.stats.Farm.engine_invocations < independent)

let test_batch_warm_cache_bit_exact () =
  let cache = Cache.create () in
  let cold = Farm.build_batch ~jobs:4 ~cache (entries ()) in
  let e0 = Soc_hls.Engine.invocation_count () in
  let warm = Farm.build_batch ~jobs:4 ~cache (entries ()) in
  check Alcotest.int "warm batch runs no engine" 0 (Soc_hls.Engine.invocation_count () - e0);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "warm = cold, bit-exact records (incl. tool-time reuse attribution)"
    (digests cold) (digests warm)

let test_batch_warm_from_disk () =
  let dir = Filename.temp_file "socfarm" ".cache" in
  Sys.remove dir;
  let cold = Farm.build_batch ~cache:(Cache.create ~disk_dir:dir ()) (entries ()) in
  (* A fresh in-memory cache, same disk layer: everything loads from disk. *)
  let cache2 = Cache.create ~disk_dir:dir () in
  let e0 = Soc_hls.Engine.invocation_count () in
  let warm = Farm.build_batch ~cache:cache2 (entries ()) in
  check Alcotest.int "no engine runs" 0 (Soc_hls.Engine.invocation_count () - e0);
  check Alcotest.bool "served from disk" true ((Cache.stats cache2).Cache.disk_hits >= 4);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "disk-warm = cold" (digests cold) (digests warm)

let test_batch_disk_version_mismatch_is_miss () =
  let dir = Filename.temp_file "socfarm" ".cache" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  (* Poison the directory with garbage entries; they must read as misses. *)
  let c = Cache.create ~disk_dir:dir () in
  ignore (Farm.build_batch ~cache:c (entries ()));
  Array.iter
    (fun f ->
      let path = Filename.concat dir f in
      Out_channel.with_open_bin path (fun oc -> output_string oc "not a marshal"))
    (Sys.readdir dir);
  let c2 = Cache.create ~disk_dir:dir () in
  let r = Farm.build_batch ~cache:c2 (entries ()) in
  check Alcotest.int "all four built despite corrupt disk cache" 4 (List.length r.Farm.builds);
  check Alcotest.bool "corrupt entries were not disk hits" true
    ((Cache.stats c2).Cache.disk_hits = 0)

let prop_jobs_count_invariant =
  QCheck.Test.make ~name:"farm: --jobs N bit-identical to --jobs 1" ~count:3
    QCheck.(int_range 2 8)
    (fun n ->
      let one = Farm.build_batch ~jobs:1 (entries ()) in
      let many = Farm.build_batch ~jobs:n (entries ()) in
      digests one = digests many)

let test_batch_faulty_kernel_reported () =
  (* An HLS run that raises: the architectures needing that kernel fail
     with a structured report; unaffected architectures still build. *)
  let module F = Soc_fault.Fault.Service in
  F.reset ();
  F.arm F.Hls ~only:"halfProbability" (F.Raise "injected");
  let r = Fun.protect ~finally:F.reset (fun () -> Farm.build_batch ~jobs:2 (entries ())) in
  (* Arch2/3/4 need halfProbability; Arch1 does not. *)
  check (Alcotest.list Alcotest.int) "only Arch1 builds" [ 0 ]
    (List.map fst r.Farm.builds);
  (match r.Farm.failures with
  | [ { Pool.reason = Pool.Exception msg; label; _ } ] ->
    check Alcotest.bool "names the kernel" true (Tstr.contains label "halfProbability");
    check Alcotest.bool "carries the raised message" true (Tstr.contains msg "injected")
  | _ -> Alcotest.fail "expected one structured exception report");
  check Alcotest.bool "dependents skipped, not failed" true (r.Farm.stats.Farm.skipped > 0)

let test_batch_missing_kernel_is_structured () =
  (* A broken entry surfaces as Job_failed data, not an exception, and
     does not poison the rest of the batch. *)
  let good = entries () in
  let broken =
    { Jobgraph.spec = Graphs.arch_spec Graphs.Arch1; kernels = [] (* nothing *) }
  in
  let r = Farm.build_batch ~jobs:2 (broken :: good) in
  check (Alcotest.list Alcotest.int) "the four good entries build" [ 1; 2; 3; 4 ]
    (List.map fst r.Farm.builds);
  match r.Farm.failures with
  | [ { Pool.reason = Pool.Exception msg; label; _ } ] ->
    check Alcotest.bool "integrate job" true (Tstr.contains label "integrate");
    check Alcotest.bool "names the node" true (Tstr.contains msg "computeHistogram")
  | _ -> Alcotest.fail "expected one structured failure"

(* ------------------------------------------------------------------ *)
(* Estimate/actual reuse agreement                                     *)
(* ------------------------------------------------------------------ *)

let hls_seconds (b : Flow.build) =
  List.assoc Soc_core.Toolsim.Hls b.Flow.tool_times.Soc_core.Toolsim.seconds

let test_reuse_agreement () =
  (* In a farm batch, an arch is charged HLS time exactly when its kernels'
     HLS jobs were owned by it — modelled reuse = actual reuse. *)
  let r = Farm.build_batch (entries ()) in
  let by i = List.assoc i r.Farm.builds in
  check Alcotest.bool "Arch1 pays for computeHistogram" true (hls_seconds (by 0) > 0.0);
  check Alcotest.bool "Arch2 pays for halfProbability" true (hls_seconds (by 1) > 0.0);
  check (Alcotest.float 1e-9) "Arch3 reuses both" 0.0 (hls_seconds (by 2));
  check Alcotest.bool "Arch4 pays only for its own kernels" true
    (hls_seconds (by 3) > 0.0)

let test_flow_hls_hook () =
  (* Flow.build with the farm cache engine: second call does no HLS work. *)
  let cache = Cache.create () in
  let e = List.nth (entries ()) 3 in
  let b1 = Flow.build ~hls:(Cache.hls_engine cache) e.Jobgraph.spec ~kernels:e.Jobgraph.kernels in
  let before = Soc_hls.Engine.invocation_count () in
  let b2 = Flow.build ~hls:(Cache.hls_engine cache) e.Jobgraph.spec ~kernels:e.Jobgraph.kernels in
  check Alcotest.int "cached build runs no engine" 0
    (Soc_hls.Engine.invocation_count () - before);
  check Alcotest.string "accelerators bit-identical" (digest b1)
    (digest { b2 with Flow.tool_times = b1.Flow.tool_times })

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let test_trace_spans_and_json () =
  let r = Farm.build_batch ~jobs:2 (entries ()) in
  let spans = Trace.spans r.Farm.trace in
  check Alcotest.bool "one span per job" true
    (List.length spans = r.Farm.stats.Farm.total_jobs);
  let cats = List.sort_uniq compare (List.map (fun s -> s.Trace.cat) spans) in
  check (Alcotest.list Alcotest.string) "all phases traced"
    [ "finalize"; "hls"; "integrate"; "swgen"; "synth" ] cats;
  List.iter
    (fun (s : Trace.span) ->
      check Alcotest.bool "span has duration >= 0" true (s.Trace.t_end >= s.Trace.t_start))
    spans;
  let json = Trace.to_chrome_json r.Farm.trace in
  check Alcotest.bool "chrome trace envelope" true
    (Tstr.contains json "\"traceEvents\"" && Tstr.contains json "\"ph\":\"X\"");
  check Alcotest.bool "counters exported" true (Tstr.contains json "cache.misses");
  check Alcotest.int "cache misses counted" 4
    (List.assoc "cache.misses" (Trace.counters r.Farm.trace))

let test_report_rendering () =
  let r = Farm.build_batch ~jobs:2 (entries ()) in
  let s = Farm.render_report r in
  check Alcotest.bool "mentions every arch" true
    (List.for_all (fun a -> Tstr.contains s (Graphs.arch_name a |> String.lowercase_ascii))
       Graphs.all_archs
    || List.for_all
         (fun (_, (b : Flow.build)) -> Tstr.contains s b.Flow.spec.Soc_core.Spec.design_name)
         r.Farm.builds);
  check Alcotest.bool "mentions cache" true (Tstr.contains s "cache")

let suite =
  [
    ("chash stable", `Quick, test_chash_stable);
    ("chash discriminates IR and config", `Quick, test_chash_discriminates);
    ("chash: name is not the key", `Quick, test_chash_name_is_not_the_key);
    ("pool: diamond DAG", `Quick, test_pool_dag_order);
    ("pool: deterministic across workers", `Quick, test_pool_deterministic_across_workers);
    ("pool: failure propagates to dependents", `Quick, test_pool_failure_propagates);
    ("pool: failure text per reason", `Quick, test_pp_failure_text);
    ("pool: jobs 1 runs every job on the caller", `Quick, test_pool_one_worker_is_the_caller);
    ("pool: jobs 3 outcomes match jobs 1, workers 1..3", `Quick,
      test_pool_three_workers_match_one);
    ("pool: a raise on the caller is a Failed outcome", `Quick, test_pool_caller_job_raises);
    ("plan: kernels deduplicated", `Quick, test_plan_dedups_kernels);
    ("plan: ownership by batch order", `Quick, test_plan_ownership_by_batch_order);
    ("batch = serial flow (bit-exact)", `Quick, test_batch_matches_serial_flow);
    ("batch: strictly fewer engine runs", `Quick, test_batch_fewer_engine_invocations);
    ("batch: warm cache bit-exact", `Quick, test_batch_warm_cache_bit_exact);
    ("batch: warm from disk", `Quick, test_batch_warm_from_disk);
    ("batch: corrupt disk cache = miss", `Quick, test_batch_disk_version_mismatch_is_miss);
    ("batch: faulty kernel reported, rest builds", `Quick, test_batch_faulty_kernel_reported);
    ("batch: missing kernel reported", `Quick, test_batch_missing_kernel_is_structured);
    ("reuse: estimate = actual", `Quick, test_reuse_agreement);
    ("flow hls hook + farm cache", `Quick, test_flow_hls_hook);
    ("trace spans + chrome json", `Quick, test_trace_spans_and_json);
    ("report rendering", `Quick, test_report_rendering);
    qtest prop_jobs_count_invariant;
  ]
