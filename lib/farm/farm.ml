module Spec = Soc_core.Spec
module Flow = Soc_core.Flow
module Ast = Soc_kernel.Ast
module Fault = Soc_fault.Fault

type stats = {
  total_jobs : int;
  succeeded : int;
  failed : int;
  skipped : int;
  distinct_kernels : int;
  cache : Cache.stats;
  engine_invocations : int;
  wall_seconds : float;
}

type report = {
  builds : (int * Flow.build) list;
  failures : Pool.failure list;
  pre_flight : Soc_util.Diag.t list array;
  stats : stats;
  trace : Trace.t;
}

(* The value flowing along DAG edges. *)
type value =
  | V_accel of Soc_hls.Engine.accel
  | V_integration of (Spec.node_spec * Ast.kernel) list * Flow.integration
  | V_synth of (string * Soc_hls.Report.usage) list * Soc_hls.Report.usage * Soc_core.Toolsim.breakdown
  | V_sw of Soc_core.Swgen.boot_artifacts
  | V_build of Flow.build

let the_accel = function V_accel a -> a | _ -> assert false
let the_integration = function V_integration (p, i) -> (p, i) | _ -> assert false
let the_synth = function V_synth (b, r, t) -> (b, r, t) | _ -> assert false
let the_sw = function V_sw s -> s | _ -> assert false

(* node_impls of entry [i] in spec-node order, with batch-positional reuse
   flags: the owner of an HLS job is charged, everyone else reuses. *)
let impls_of (g : Jobgraph.t) i (pairs : (Spec.node_spec * Ast.kernel) list)
    (get : int -> value) : (Flow.node_impl * [ `Reused | `Synthesized ]) list =
  List.map
    (fun ((ns : Spec.node_spec), kernel) ->
      let id = List.assoc ns.Spec.node_name g.Jobgraph.kernel_jobs.(i) in
      let owner =
        match g.Jobgraph.nodes.(id).Jobgraph.task with
        | Jobgraph.Hls { owner; _ } -> owner
        | _ -> assert false
      in
      ( { Flow.node = ns; kernel; accel = the_accel (get id) },
        if owner = i then `Synthesized else `Reused ))
    pairs

(* Wrap a job's work with write-ahead journaling and crash injection:
   Start is on stable storage before any work happens, Done only after
   the work (and, for HLS, its cache store) completed — so a kill at any
   instant leaves the job either journaled-in-flight (re-enqueued on
   resume) or journaled-done (skipped on resume, artifact verified). The
   crash step fires between the two, at the worst possible moment; when
   it does, the journal is sealed (a dead process writes nothing) and the
   pool's abort switch stops all further dispatch. *)
let journaled ?journal ?inj ~abort (node : Jobgraph.node) key_hex work =
 fun get ->
  let jappend e = match journal with Some j -> Journal.append j e | None -> () in
  jappend (Journal.Start { stage = node.Jobgraph.cat; label = node.Jobgraph.label; key = key_hex });
  (match inj with
  | Some i -> (
    try Fault.crash_step i ~stage:node.Jobgraph.cat
    with Fault.Killed _ as e ->
      (match journal with Some j -> Journal.seal j | None -> ());
      Atomic.set abort true;
      raise e)
  | None -> ());
  match work get with
  | v ->
    jappend (Journal.Done { stage = node.Jobgraph.cat; label = node.Jobgraph.label; key = key_hex });
    v
  | exception e ->
    jappend
      (Journal.Failed
         { stage = node.Jobgraph.cat; label = node.Jobgraph.label;
           reason = Printexc.to_string e });
    raise e

let jobs_of_graph ?journal ?inj ~abort (g : Jobgraph.t) (cache : Cache.t) :
    value Pool.job array =
  Array.map
    (fun (node : Jobgraph.node) ->
      let key_hex =
        match node.Jobgraph.task with
        | Jobgraph.Hls { key; _ } -> Chash.to_hex key
        | _ -> ""
      in
      let work =
        match node.Jobgraph.task with
        | Jobgraph.Hls { kernel; key; _ } ->
          fun _ ->
            (* Content-addressed: a warm cache (memory or disk) skips the
               real engine run entirely. *)
            (match Cache.find cache key with
            | Some a -> V_accel a
            | None ->
              let a = snd (Cache.synthesize cache ~config:g.Jobgraph.hls_config kernel) in
              (* Same RTL gate as Flow.build: a fresh synthesis whose
                 netlist fails lint is a generator bug — refuse the job
                 with a named RTL5xx diagnostic rather than cache and
                 simulate a malformed design. Cache hits were gated when
                 first synthesized. *)
              Flow.lint_impl_netlist ~name:kernel.Soc_kernel.Ast.kname
                a.Soc_hls.Engine.fsmd.netlist;
              V_accel a)
        | Jobgraph.Integrate i ->
          fun _ ->
            let e = g.Jobgraph.entries.(i) in
            Spec.validate_exn e.Jobgraph.spec;
            (* Same gate as Flow.build: refuse with diagnostics before any
               downstream job spends work on a design that cannot run. *)
            Flow.reject_pre_flight g.Jobgraph.pre_flight.(i);
            let pairs = Flow.pair_kernels e.Jobgraph.spec ~kernels:e.Jobgraph.kernels in
            V_integration (pairs, Flow.integrate e.Jobgraph.spec)
        | Jobgraph.Synthesis i ->
          fun get ->
            let e = g.Jobgraph.entries.(i) in
            let spec = e.Jobgraph.spec in
            let pairs, integ = the_integration (get g.Jobgraph.integrate_ids.(i)) in
            let impls_o = impls_of g i pairs get in
            let impls = List.map fst impls_o in
            let by_core, total =
              Flow.aggregate_resources spec ~fifo_depth:g.Jobgraph.fifo_depth impls
            in
            let dsl_source = Soc_core.Printer.to_source spec in
            let tool_times =
              Flow.estimate_tools spec ~dsl_source impls_o integ ~resources:total
            in
            V_synth (by_core, total, tool_times)
        | Jobgraph.Software i ->
          fun get ->
            let e = g.Jobgraph.entries.(i) in
            let _, integ = the_integration (get g.Jobgraph.integrate_ids.(i)) in
            V_sw (Flow.generate_software e.Jobgraph.spec integ)
        | Jobgraph.Finalize i ->
          fun get ->
            let e = g.Jobgraph.entries.(i) in
            let spec = e.Jobgraph.spec in
            let pairs, integ = the_integration (get g.Jobgraph.integrate_ids.(i)) in
            let impls = List.map fst (impls_of g i pairs get) in
            let by_core, total, tool_times = the_synth (get g.Jobgraph.synthesis_ids.(i)) in
            let sw = the_sw (get g.Jobgraph.software_ids.(i)) in
            V_build
              (Flow.assemble spec ~dsl_source:(Soc_core.Printer.to_source spec) impls integ
                 ~resources:total ~resources_by_core:by_core ~sw ~tool_times)
      in
      { Pool.label = node.Jobgraph.label; cat = node.Jobgraph.cat; deps = node.Jobgraph.deps;
        work = journaled ?journal ?inj ~abort node key_hex work })
    g.Jobgraph.nodes

let batch_key (g : Jobgraph.t) =
  Chash.to_hex
    (Chash.combine "farm-batch"
       (Array.to_list
          (Array.map (fun (n : Jobgraph.node) -> Chash.digest n.Jobgraph.label) g.Jobgraph.nodes)))

let build_batch ?jobs ?hls_config ?fifo_depth ?cache ?trace ?journal ?kill
    (entries : Jobgraph.entry list) : report =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let trace = match trace with Some t -> t | None -> Trace.create () in
  (* Service-fault injection point: models a planner/batch crash that a
     supervised caller (the serve daemon) must contain. *)
  Fault.Service.step Fault.Service.Batch
    ~label:
      (String.concat ","
         (List.map (fun (e : Jobgraph.entry) -> e.Jobgraph.spec.Soc_core.Spec.design_name) entries))
    ();
  let graph = Jobgraph.plan ?hls_config ?fifo_depth entries in
  (* Journal replay: prefetch (and thereby digest-verify) the artifact of
     every job the journal says completed — a verified artifact is the
     skip, a quarantined one silently falls back to re-synthesis. All of
     this batch's keys are protected from LRU eviction while the journal
     that references them is live. *)
  (match journal with
  | Some j ->
    let st = Journal.status_of (Journal.replayed j) in
    List.iter
      (fun key ->
        Cache.protect cache key;
        ignore (Cache.find cache key))
      (Journal.completed_keys st);
    Array.iter
      (fun (n : Jobgraph.node) ->
        match n.Jobgraph.task with
        | Jobgraph.Hls { key; _ } -> Cache.protect cache key
        | _ -> ())
      graph.Jobgraph.nodes;
    if st.Journal.completed <> [] || st.Journal.in_flight <> [] then begin
      Trace.add trace "journal.replayed.completed" (List.length st.Journal.completed);
      Trace.add trace "journal.replayed.in_flight" (List.length st.Journal.in_flight)
    end;
    Journal.append j
      (Journal.Batch_start { key = batch_key graph; jobs = Array.length graph.Jobgraph.nodes })
  | None -> ());
  let inj = Option.map (fun cp -> Fault.arm (Some cp)) kill in
  let abort = Atomic.make false in
  let cache0 = Cache.stats cache in
  let engine0 = Soc_hls.Engine.invocation_count () in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Pool.run ?jobs ~abort ~trace (jobs_of_graph ?journal ?inj ~abort graph cache)
  in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  (* A fired crash point means this process is "dead": re-raise instead of
     reporting, exactly as the interrupted CLI run exits. *)
  (match inj with
  | Some i -> (
    match Fault.crashed i with
    | Some (s, k) -> raise (Fault.Killed (s, k))
    | None -> ())
  | None -> ());
  let builds = ref [] in
  Array.iteri
    (fun i fid ->
      match outcomes.(fid) with
      | Pool.Done (V_build b) -> builds := (i, b) :: !builds
      | Pool.Done _ -> assert false
      | Pool.Failed _ -> ())
    graph.Jobgraph.finalize_ids;
  let failures, skipped =
    Array.fold_left
      (fun (fs, sk) o ->
        match o with
        | Pool.Failed ({ Pool.reason = Pool.Dependency _; _ } : Pool.failure) -> (fs, sk + 1)
        | Pool.Failed f -> (f :: fs, sk)
        | Pool.Done _ -> (fs, sk))
      ([], 0) outcomes
  in
  let failures = List.rev failures in
  let cache1 = Cache.stats cache in
  let dcache =
    {
      Cache.hits = cache1.Cache.hits - cache0.Cache.hits;
      disk_hits = cache1.Cache.disk_hits - cache0.Cache.disk_hits;
      misses = cache1.Cache.misses - cache0.Cache.misses;
      stores = cache1.Cache.stores - cache0.Cache.stores;
      stale = cache1.Cache.stale - cache0.Cache.stale;
      quarantined = cache1.Cache.quarantined - cache0.Cache.quarantined;
      evictions = cache1.Cache.evictions - cache0.Cache.evictions;
    }
  in
  Trace.add trace "cache.hits" (dcache.Cache.hits + dcache.Cache.disk_hits);
  Trace.add trace "cache.misses" dcache.Cache.misses;
  if dcache.Cache.stale > 0 then Trace.add trace "cache.stale" dcache.Cache.stale;
  if dcache.Cache.quarantined > 0 then
    Trace.add trace "cache.quarantined" dcache.Cache.quarantined;
  if dcache.Cache.evictions > 0 then Trace.add trace "cache.evictions" dcache.Cache.evictions;
  let stats =
    {
      total_jobs = Array.length outcomes;
      succeeded =
        Array.fold_left (fun n o -> match o with Pool.Done _ -> n + 1 | _ -> n) 0 outcomes;
      failed = List.length failures;
      skipped;
      distinct_kernels = Jobgraph.distinct_kernels graph;
      cache = dcache;
      engine_invocations = Soc_hls.Engine.invocation_count () - engine0;
      wall_seconds;
    }
  in
  (match journal with
  | Some j ->
    Journal.append j (Journal.Batch_done { ok = stats.succeeded; failed = stats.failed })
  | None -> ());
  { builds = List.rev !builds; failures; pre_flight = graph.Jobgraph.pre_flight; stats; trace }

(* Content digest of a whole build record (specs, Tcl, address maps,
   accelerators down to the netlists, software artifacts, tool times).
   [No_sharing] so the digest depends only on structure — a cached accel
   that no longer physically shares its kernel with the node_impl must
   still compare equal. This is what the kill-point campaign and the CI
   crash-recovery smoke compare: resume ≡ uninterrupted, bit for bit. *)
let build_digest (b : Flow.build) =
  Digest.to_hex (Digest.string (Marshal.to_string b [ Marshal.No_sharing ]))

let manifest_json (r : report) =
  let entries =
    List.map
      (fun ((i : int), (b : Flow.build)) ->
        Printf.sprintf "  {\"index\": %d, \"design\": \"%s\", \"digest\": \"%s\"}" i
          b.Flow.spec.Spec.design_name (build_digest b))
      r.builds
  in
  "[\n" ^ String.concat ",\n" entries ^ "\n]\n"

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let summary_table (r : report) =
  let t =
    Soc_util.Table.create ~title:"farm batch"
      [ "#"; "design"; "outcome"; "bitstream"; "LUT"; "est. tool s" ]
      ~aligns:
        [ Soc_util.Table.Right; Soc_util.Table.Left; Soc_util.Table.Left; Soc_util.Table.Left;
          Soc_util.Table.Right; Soc_util.Table.Right ]
  in
  List.iter
    (fun ((i : int), (b : Flow.build)) ->
      Soc_util.Table.add_row t
        [ string_of_int i; b.Flow.spec.Spec.design_name; "ok"; b.Flow.bitstream;
          string_of_int b.Flow.resources.Soc_hls.Report.lut;
          Printf.sprintf "%.0f" (Soc_core.Toolsim.total b.Flow.tool_times) ])
    r.builds;
  List.iter
    (fun (f : Pool.failure) ->
      Soc_util.Table.add_row t
        [ "-"; f.Pool.label; "FAILED"; Format.asprintf "%a" Pool.pp_failure f; "-"; "-" ])
    r.failures;
  t

let render_report (r : report) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Soc_util.Table.render (summary_table r));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Soc_util.Table.render (Trace.counter_table r.trace));
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf
       "jobs: %d total, %d ok, %d failed, %d skipped; %d distinct kernels; %d engine runs; %.3fs wall\n"
       r.stats.total_jobs r.stats.succeeded r.stats.failed r.stats.skipped
       r.stats.distinct_kernels r.stats.engine_invocations r.stats.wall_seconds);
  Buffer.add_string buf
    (Printf.sprintf "cache: +%d hits, +%d disk hits, +%d misses, +%d stores%s%s%s\n"
       r.stats.cache.Cache.hits r.stats.cache.Cache.disk_hits r.stats.cache.Cache.misses
       r.stats.cache.Cache.stores
       (if r.stats.cache.Cache.stale > 0 then
          Printf.sprintf ", +%d stale" r.stats.cache.Cache.stale
        else "")
       (if r.stats.cache.Cache.quarantined > 0 then
          Printf.sprintf ", +%d quarantined" r.stats.cache.Cache.quarantined
        else "")
       (if r.stats.cache.Cache.evictions > 0 then
          Printf.sprintf ", +%d evicted" r.stats.cache.Cache.evictions
        else ""));
  Buffer.contents buf
