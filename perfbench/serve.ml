(* serve-local / serve-fleet: a closed loop with two clients against an
   in-process daemon on a fresh on-disk cache directory. Client A keeps
   one connection for the run; client B opens a new connection per
   request. The fleet variant puts a coordinator with two in-process
   remote workers, sharing the cache directory, in front of the builds. *)

open Util
module Server = Soc_serve.Server
module Client = Soc_serve.Client
module Remote = Soc_serve.Remote
module Coordinator = Soc_serve.Coordinator
module Protocol = Soc_serve.Protocol
module Farm = Soc_farm.Farm

type kind = Valid of string (* reference manifest *) | Broken of string (* expected code *)

type req = { name : string; source : string; kind : kind }

let requests_per_sweep = 20
let image = 32

(* The kernel library the daemon resolves node names against: the
   CLI's built-in library of case-study kernels. *)
let library () =
  let w = image and h = image in
  Soc_apps.Otsu.kernels ~width:w ~height:h
  @ Soc_apps.Graphs.fig4_kernels ~width:w ~height:h
  @ Soc_apps.Xtea.loopback_kernels ~blocks:(w * h / 2)
  @ Soc_apps.Fir.pipeline_kernels ~samples:(w * h)

(* Seeded-broken sources shipped with the examples, with the diagnostic
   code each must be rejected with. examples/broken/unknown_kernel.tg is
   left out of the mix: the daemon filters its library down to the
   spec's node names before analysis, finds no kernel at all, skips the
   SOC020 check and admits the spec, whose build then fails. The traced
   run reports that as [check.unknown_kernel_admitted]. *)
let broken = [ ("parse_error", "SOC000"); ("rate_deadlock", "SOC031"); ("dangling_port", "SOC004") ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The same per-spec kernel filtering the daemon applies. *)
let kernels_for kernels (spec : Soc_core.Spec.t) =
  List.filter
    (fun (name, _) ->
      List.exists (fun (n : Soc_core.Spec.node_spec) -> n.Soc_core.Spec.node_name = name) spec.Soc_core.Spec.nodes)
    kernels

let entry_of kernels source =
  let spec = Soc_core.Parser.parse ~validate:false source in
  { Soc_farm.Jobgraph.spec; kernels = kernels_for kernels spec }

(* Distinct sources: the 15 non-empty Otsu partitions and the paper's
   four architectures, printed canonically, plus the broken examples. *)
let sources () =
  let parts =
    List.filter_map
      (fun p ->
        if Soc_dse.Partition.is_all_sw p then None
        else
          Some ("part-" ^ Soc_dse.Partition.signature p,
                Soc_core.Printer.to_source (Soc_dse.Partition.spec_of p)))
      (Soc_dse.Partition.enumerate ())
  in
  let archs =
    List.map
      (fun a ->
        (Soc_apps.Graphs.arch_name a, Soc_core.Printer.to_source (Soc_apps.Graphs.arch_spec a)))
      Soc_apps.Graphs.all_archs
  in
  let bad =
    List.map
      (fun (f, code) ->
        (f, read_file (Filename.concat "examples/broken" (f ^ ".tg")), code))
      broken
  in
  (parts @ archs, bad)

(* References, outside the timed window and through a different path: a
   direct single-design farm batch on its own fresh cache. *)
let references kernels (valid, bad) =
  List.map
    (fun (name, source) ->
      let r = Farm.build_batch ~jobs:1 [ entry_of kernels source ] in
      { name; source; kind = Valid (Farm.manifest_json r) })
    valid
  @ List.map (fun (name, source, code) -> { name; source; kind = Broken code }) bad

(* Exactly 90% valid specs (seeded shuffles of the distinct ones) and
   10% expected rejections, at seeded positions. *)
let sweep_requests ~seed reqs =
  let rng = Soc_util.Rng.create seed in
  let valid = Array.of_list (List.filter (fun r -> match r.kind with Valid _ -> true | _ -> false) reqs) in
  let bad = List.filter (fun r -> match r.kind with Broken _ -> true | _ -> false) reqs in
  let n_bad = requests_per_sweep / 10 in
  let rec take n acc =
    if n <= 0 then acc
    else take (n - Array.length valid) (Array.to_list (Soc_util.Rng.shuffle rng valid) @ acc)
  in
  let picks =
    List.filteri (fun i _ -> i < requests_per_sweep - n_bad) (take (requests_per_sweep - n_bad) [])
    @ List.init n_bad (fun _ -> Soc_util.Rng.choose rng bad)
  in
  Soc_util.Rng.shuffle rng (Array.of_list picks)

let check req (submit, result) =
  match (req.kind, submit, result) with
  | Valid manifest, Protocol.Accepted _, Some (Protocol.Result_r { state = Protocol.Done; manifest = got; _ }) ->
    got = manifest
  | Broken code, Protocol.Rejected { reason = Protocol.Parse_failed | Protocol.Check_failed; diags; _ }, None ->
    List.exists (fun (d : Soc_util.Diag.t) -> d.Soc_util.Diag.code = code) diags
  | _ -> false

(* One request on a connection: submit, then the blocking result. *)
let exchange spans c req =
  let submit = Spans.span spans "client.submit" (fun () -> Client.submit c req.source) in
  let result =
    match submit with
    | Protocol.Accepted { id; _ } -> Some (Spans.span spans "client.result" (fun () -> Client.result c id))
    | _ -> None
  in
  (submit, result)

type daemon = { server : Server.t; remotes : Remote.t list; dir : string }

let start ~fleet kernels =
  let dir = fresh_dir (if fleet then "fleet" else "local") in
  let remotes =
    if not fleet then []
    else
      List.init 2 (fun i ->
          Remote.start
            { Remote.default_config with
              Remote.cache_dir = Some dir; kernels; worker_id = Printf.sprintf "w%d" i })
  in
  let server =
    Server.start
      { Server.default_config with
        Server.workers = 2; cache_dir = Some dir; kernels;
        fleet = List.map (fun r -> ("127.0.0.1", Remote.port r)) remotes }
  in
  { server; remotes; dir }

let stop d =
  Server.stop d.server;
  List.iter Remote.stop d.remotes

let layer_metrics ~fleet ~d ~kernels ~sweep ~spans ~w ~persistent ~responses ~engine_runs ~st ~refs_s =
  let valid =
    List.sort_uniq compare
      (List.filter_map (fun r -> match r.kind with Valid _ -> Some r.source | _ -> None) (Array.to_list sweep))
  in
  let entries = List.map (entry_of kernels) valid in
  (* Transport: RTT of a ping on the persistent connection. *)
  for _ = 1 to 40 do
    if not (Spans.probe spans "ping" (fun () -> Client.ping persistent)) then failwith "ping failed"
  done;
  (* The daemon in process, no socket: submit + result through handle,
     against a direct warm single-domain batch of the same spec. *)
  let warm = Soc_farm.Cache.create () in
  List.iter (fun e -> ignore (Farm.build_batch ~jobs:1 ~cache:warm [ e ])) entries;
  List.iter2
    (fun source e ->
      Spans.probe spans "server.handle" (fun () ->
          match Server.handle d.server (Protocol.Submit { source; priority = 0; deadline_ms = None }) with
          | Protocol.Accepted { id; _ } -> ignore (Server.handle d.server (Protocol.Result id))
          | _ -> failwith "handle probe: submit rejected");
      ignore (Spans.probe spans "farm.batch" (fun () -> Farm.build_batch ~jobs:1 ~cache:warm [ e ])))
    valid entries;
  let rtt = Spans.median_ms spans "ping" in
  let handle = Spans.median_ms spans "server.handle" in
  let batch = Spans.median_ms spans "farm.batch" in
  let p50 = Window.latency w.Window.plain 50.0 in
  let frames =
    List.concat_map
      (fun r -> [ Protocol.Submit { source = r.source; priority = 0; deadline_ms = None }; Protocol.Result 1 ])
      (Array.to_list sweep)
  in
  let resp_frames = List.concat_map (fun (s, r) -> s :: Option.to_list r) responses in
  Probes.staged_flow spans ~hls_config:Soc_hls.Engine.default_config
    (List.filteri (fun i _ -> i < 6) entries);
  let fleet_metrics =
    if not fleet then []
    else begin
      let key_of source =
        Soc_farm.Chash.to_hex
          (Soc_farm.Chash.digest (Soc_core.Printer.to_source (Soc_core.Parser.parse ~validate:false source)))
      in
      let r0 = List.hd d.remotes in
      List.iter
        (fun source ->
          ignore
            (Spans.probe spans "remote.handle" (fun () ->
                 Remote.handle r0 (Protocol.Build { source; key = key_of source; deadline_ms = None }))))
        valid;
      let co =
        Coordinator.create
          { Coordinator.default_config with
            Coordinator.endpoints = List.map (fun r -> ("127.0.0.1", Remote.port r)) d.remotes }
      in
      List.iter
        (fun source ->
          match Spans.probe spans "coordinator.build" (fun () -> Coordinator.build co ~source ~key:(key_of source) ()) with
          | Ok (Coordinator.Built _) -> ()
          | _ -> failwith "coordinator probe: build failed")
        valid;
      Coordinator.stop co;
      let remote = Spans.median_ms spans "remote.handle" in
      let cb = Spans.median_ms spans "coordinator.build" in
      [ m "remote.handle_ms" "ms" remote;
        m "coordinator.build_ms" "ms" cb;
        m "coordinator.hop_ms" "ms" (cb -. remote);
        m "coordinator.dispatches" "count" (float_of_int st.Protocol.remote_dispatches);
        m "coordinator.retries" "count" (float_of_int st.Protocol.remote_retries);
        m "coordinator.hedges" "count" (float_of_int st.Protocol.remote_hedges);
        m "coordinator.fallbacks" "count" (float_of_int st.Protocol.remote_fallbacks) ]
    end
  in
  let admitted =
    match
      Server.handle d.server
        (Protocol.Submit
           { source = read_file "examples/broken/unknown_kernel.tg"; priority = 0; deadline_ms = None })
    with
    | Protocol.Accepted _ -> 1.0
    | _ -> 0.0
  in
  [ m "bench.refs_s" "s" refs_s;
    m "check.unknown_kernel_admitted" "count" admitted;
    m "transport.ping_rtt_ms" "ms" rtt;
    m "transport.connect_ms" "ms" (Spans.median_ms spans "transport.connect");
    m "client.submit_ms" "ms" (Spans.median_ms spans "client.submit");
    m "client.result_ms" "ms" (Spans.median_ms spans "client.result");
    m "server.handle_ms" "ms" handle;
    m "farm.batch_ms" "ms" batch;
    m "server.daemon_ms" "ms" (handle -. batch);
    m "server.completed" "count" (float_of_int st.Protocol.completed);
    m "server.rejected_check" "count" (float_of_int st.Protocol.rejected_check);
    m "server.coalesced" "count" (float_of_int st.Protocol.coalesced);
    m "server.rejected_queue" "count" (float_of_int st.Protocol.rejected_queue);
    m "hls.engine_runs" "count" (float_of_int engine_runs);
    m "cache.hits" "count" (float_of_int st.Protocol.cache_hits);
    m "cache.disk_hits" "count" (float_of_int st.Protocol.cache_disk_hits);
    m "cache.misses" "count" (float_of_int st.Protocol.cache_misses);
    m "cache.hit_rate" "ratio" st.Protocol.hit_rate ]
  (* Served p50 minus transport RTT, daemon time and the farm batch
     (handle covers the last two): what no measured layer accounts for.
     Only serve-local: in the fleet, handle already includes the
     coordinator hop. *)
  @ (if fleet then [] else [ m "serve.unattributed_ms" "ms" (p50 -. rtt -. handle) ])
  @ Probes.codec_metrics frames resp_frames
  @ Probes.cache_metrics spans ~hls_config:Soc_hls.Engine.default_config entries
  @ Probes.staged_metrics spans
  @ fleet_metrics

let run ~fleet ~seed ~seconds ~trace =
  let make () =
    let kernels = library () in
    (kernels, start ~fleet kernels)
  in
  let kernels, d = make () in
  let clock =
    setup_clock ~per_round:20 ~setup:make ~teardown:(fun (_, d) ->
        stop d;
        rm_rf d.dir)
  in
  let port = Server.port d.server in
  let reqs, refs_s = time (fun () -> references kernels (sources ())) in
  let sweep = sweep_requests ~seed reqs in
  let spans = Spans.create () in
  let w = Window.create () in
  let persistent = Client.connect ~port () in
  (* Client A asks on its persistent connection, client B on a fresh one. *)
  let ask ~fresh req =
    if not fresh then exchange spans persistent req
    else begin
      let c = Spans.span spans "transport.connect" (fun () -> Client.connect ~port ()) in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> exchange spans c req)
    end
  in
  (* One sweep: A and B are closed loops that each take the next request
     of the sweep as soon as their last one is answered, so each client's
     share follows its own speed. (Fixed alternate slots made the two
     shares exactly equal, which put the p50 on the edge between A's and
     B's latencies.) [f i answer seconds] sees every answer. *)
  let run_sweep ~deadline f =
    let next = Atomic.make 0 in
    let part fresh () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length sweep && now () < deadline then begin
          let resp, dt = time (fun () -> ask ~fresh sweep.(i)) in
          f i resp dt;
          loop ()
        end
      in
      loop ()
    in
    let tb = Thread.create (part true) () in
    part false ();
    Thread.join tb
  in
  (* Warm-up sweep: HLS goes warm; every answer is still checked. Its
     frames feed the codec probe. *)
  let lock = Mutex.create () and responses = ref [] in
  run_sweep ~deadline:infinity (fun i resp _ ->
      Mutex.lock lock;
      responses := resp :: !responses;
      Mutex.unlock lock;
      Window.warm_op w ~ok:(check sweep.(i) resp));
  let engine0 = Soc_hls.Engine.invocation_count () in
  let t_end = now () +. seconds in
  let sweep_no = ref 0 in
  while now () < t_end do
    let traced = trace && !sweep_no mod 2 = 1 in
    spans.Spans.enabled <- traced;
    timed_sweep w ~traced (fun () ->
        let answered = Atomic.make 0 in
        run_sweep ~deadline:t_end (fun i resp dt ->
            let req = sweep.(i) in
            let ok = check req resp in
            if not ok then
              Printf.eprintf "%s: wrong answer for %s: %s\n%!"
                (if fleet then "serve-fleet" else "serve-local")
                req.name (Protocol.to_string (Protocol.encode_response (fst resp)));
            Atomic.incr answered;
            Window.op w ~traced ~ms:(1000.0 *. dt) ~ok);
        Atomic.get answered = Array.length sweep);
    clock.round ();
    incr sweep_no
  done;
  let engine_runs = Soc_hls.Engine.invocation_count () - engine0 in
  let st = Server.stats d.server in
  spans.Spans.enabled <- false;
  let layers () =
    layer_metrics ~fleet ~d ~kernels ~sweep ~spans ~w ~persistent ~responses:!responses ~engine_runs
      ~st ~refs_s
  in
  let teardown () =
    Client.close persistent;
    stop d
  in
  { window = w; setup_s = clock.setup_s (); layers; teardown }
