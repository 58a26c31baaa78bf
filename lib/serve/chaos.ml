(* Serve-mode chaos campaign: one scripted adversarial client run against
   a live in-process daemon, exercising every self-healing layer in
   sequence — sim-backend degradation, worker crashes, poison-pill
   breakers, wedged-build watchdogs, wire-level abuse, slow clients —
   and then proving the daemon is still whole: pool intact, not
   degraded, still serving, drains cleanly, and a restart on the same
   cache directory reproduces a byte-identical manifest.

   Each phase is a named check with a pass/fail and a detail string; the
   campaign is [healthy] iff every check passed. Used by
   [socdsl chaos --serve] (exit 1 unless healthy) and CI. *)

module Protocol = Protocol
module Fault = Soc_fault.Fault
module Farm = Soc_farm.Farm

type config = {
  workers : int;
  kernels : (string * Soc_kernel.Ast.kernel) list;
  good_sources : string list;  (** specs that must build; at least one *)
  poison_source : string;  (** spec whose kernel the HLS engine will die on *)
  poison_kernel : string;  (** kernel name armed with a Raise *)
  hang_source : string;  (** spec whose kernel the HLS engine will hang on *)
  hang_kernel : string;  (** kernel name armed with a Hang *)
  cache_dir : string option;  (** persistent dir for the restart check *)
}

type check = { cname : string; pass : bool; detail : string }

type report = { checks : check list; healthy : bool; manifest : string }

let render ?(title = "serve-chaos campaign") r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (title ^ "\n");
  Buffer.add_string buf (String.make (String.length title) '-' ^ "\n");
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  [%s] %-24s %s\n" (if c.pass then "ok" else "FAIL") c.cname
           c.detail))
    r.checks;
  Buffer.add_string buf
    (Printf.sprintf "verdict: %s\n" (if r.healthy then "healthy" else "UNHEALTHY"));
  Buffer.contents buf

(* ---------------- helpers ---------------- *)

let with_client port f =
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* Submit one source and block for its terminal state. *)
let outcome_of port ?deadline_ms source =
  with_client port (fun c ->
      match Client.submit_and_wait c ?deadline_ms source with
      | Protocol.Rejected { reason; _ }, _ ->
        `Rejected (Protocol.reject_reason_label reason)
      | Protocol.Accepted _, Some (Protocol.Result_r { state; _ }) -> (
        match state with
        | Protocol.Done -> `Done
        | Protocol.Failed m -> `Failed m
        | Protocol.Expired -> `Expired
        | _ -> `Odd)
      | _ -> `Odd)

let outcome_label = function
  | `Done -> "done"
  | `Failed m -> "failed: " ^ m
  | `Expired -> "expired"
  | `Rejected r -> "rejected: " ^ r
  | `Odd -> "unexpected reply"

(* Poll [p] every 10 ms for up to [for_s] seconds. *)
let eventually ?(for_s = 5.0) p =
  let deadline = Unix.gettimeofday () +. for_s in
  let rec go () =
    if p () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* A raw (non-Client) TCP connection for wire abuse. *)
let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  fd

let raw_send fd bytes =
  let b = Bytes.of_string bytes in
  ignore (Unix.write fd b 0 (Bytes.length b))

let raw_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let frame_of payload =
  let n = String.length payload in
  let hdr = Bytes.create 4 in
  Bytes.set_uint8 hdr 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 hdr 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 hdr 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 hdr 3 (n land 0xff);
  Bytes.to_string hdr ^ payload

(* ---------------- the campaign ---------------- *)

let run (cfg : config) : report =
  if cfg.good_sources = [] then invalid_arg "Chaos.run: no good sources";
  let checks = ref [] in
  let note cname pass detail = checks := { cname; pass; detail } :: !checks in
  let idle_ms = 2000 in
  let scfg =
    { Server.default_config with
      workers = cfg.workers; kernels = cfg.kernels; cache_dir = cfg.cache_dir;
      breaker_threshold = 2; breaker_cooldown_ms = 60_000;
      build_timeout_ms = Some 5000; watchdog_grace_ms = 100;
      max_sessions = 32; idle_session_timeout_ms = Some idle_ms }
  in
  Fault.Service.reset ();
  let srv = ref (Server.start scfg) in
  let manifest = ref "" in
  Fun.protect
    ~finally:(fun () -> Fault.Service.reset ())
    (fun () ->
      let port () = Server.port !srv in

      (* 1. Sim-backend degradation: the first compiled-tape lowering
         dies; the build must still succeed on the interpreter. *)
      Fault.Service.arm Fault.Service.Csim ~times:1 (Fault.Service.Raise "chaos: csim");
      let oks = List.map (fun src -> outcome_of (port ()) src) cfg.good_sources in
      let all_done = List.for_all (fun o -> o = `Done) oks in
      let fb = (Server.stats !srv).Protocol.sim_fallbacks in
      note "sim-fallback round" (all_done && fb >= 1)
        (Printf.sprintf "%d/%d done, sim_fallbacks=%d"
           (List.length (List.filter (fun o -> o = `Done) oks))
           (List.length oks) fb);
      Fault.Service.disarm Fault.Service.Csim;

      (* 2. Worker crashes: the next two dispatches kill their worker
         threads; both requests must fail (not hang), the supervisor
         must restore the pool, and resubmits must succeed. *)
      let g0 = List.nth cfg.good_sources 0 in
      let g1 = List.nth cfg.good_sources (min 1 (List.length cfg.good_sources - 1)) in
      Fault.Service.arm Fault.Service.Worker ~times:2 (Fault.Service.Raise "chaos: worker");
      let o0 = outcome_of (port ()) g0 in
      let o1 = outcome_of (port ()) g1 in
      let crashed =
        match (o0, o1) with `Failed _, `Failed _ -> true | _ -> false
      in
      let restored =
        eventually (fun () ->
            let s = Server.stats !srv in
            s.Protocol.worker_restarts >= 2
            && s.Protocol.live_workers >= cfg.workers)
      in
      let o0' = outcome_of (port ()) g0 in
      note "worker supervision"
        (crashed && restored && o0' = `Done)
        (Printf.sprintf "crash outcomes [%s; %s], pool restored=%b, resubmit %s"
           (outcome_label o0) (outcome_label o1) restored (outcome_label o0'));
      Fault.Service.disarm Fault.Service.Worker;

      (* 3. Poison pill: a spec whose kernel always crashes the engine
         fails twice, then trips the breaker — the third submit is
         rejected as poisoned without burning a worker. *)
      Fault.Service.arm Fault.Service.Hls ~only:cfg.poison_kernel
        (Fault.Service.Raise "chaos: poison kernel");
      let p1 = outcome_of (port ()) cfg.poison_source in
      let p2 = outcome_of (port ()) cfg.poison_source in
      let p3 = outcome_of (port ()) cfg.poison_source in
      let s3 = Server.stats !srv in
      let breaker_ok =
        (match (p1, p2) with `Failed _, `Failed _ -> true | _ -> false)
        && p3 = `Rejected "poisoned"
        && s3.Protocol.breaker_open_keys >= 1
        && s3.Protocol.rejected_poisoned >= 1
      in
      note "poison-pill breaker" breaker_ok
        (Printf.sprintf "[%s; %s; %s], open_keys=%d" (outcome_label p1)
           (outcome_label p2) (outcome_label p3) s3.Protocol.breaker_open_keys);
      Fault.Service.disarm Fault.Service.Hls;

      (* 4. Wedged build: the engine hangs far past the request deadline;
         the watchdog must expire the request (the waiter unblocks) and
         replace the abandoned worker. *)
      Fault.Service.arm Fault.Service.Hls ~only:cfg.hang_kernel ~times:1
        (Fault.Service.Hang 30.0);
      let h = outcome_of (port ()) ~deadline_ms:400 cfg.hang_source in
      let s4 = Server.stats !srv in
      Fault.Service.release_hangs ();
      let pool_back =
        eventually (fun () -> (Server.stats !srv).Protocol.live_workers >= cfg.workers)
      in
      note "watchdog expiry"
        (h = `Expired && s4.Protocol.watchdog_fires >= 1 && pool_back)
        (Printf.sprintf "outcome %s, watchdog_fires=%d, pool restored=%b"
           (outcome_label h) s4.Protocol.watchdog_fires pool_back);

      (* 5. Wire abuse: garbage bytes, oversized and truncated frames,
         instant disconnects, valid frames of invalid JSON — every one
         answered with a clean error or a dropped session, and the
         daemon still answers pings. *)
      let abuse =
        [ ("garbage", "\xde\xad\xbe\xef\xde\xad\xbe\xef");
          ("oversized header", "\x7f\xff\xff\xff");
          ("truncated frame", String.sub (frame_of (String.make 100 'x')) 0 14);
          ("empty disconnect", "");
          ("bad json", frame_of "{not json") ]
      in
      let wire_ok =
        List.for_all
          (fun (_, bytes) ->
            (try
               let fd = raw_connect (port ()) in
               if bytes <> "" then raw_send fd bytes;
               Thread.delay 0.02;
               raw_close fd
             with Unix.Unix_error _ -> ());
            with_client (port ()) Client.ping)
          abuse
      in
      note "wire abuse" wire_ok
        (Printf.sprintf "%d attack shapes, daemon answered ping after each"
           (List.length abuse));

      (* 6. Slow loris: a client that sends half a header and goes
         silent is dropped by the idle-session timeout instead of
         pinning a session slot forever. *)
      let fd = raw_connect (port ()) in
      raw_send fd "\x00\x00";
      let dropped =
        eventually
          ~for_s:((float_of_int idle_ms /. 1000.0) +. 3.0)
          (fun () -> Server.session_count !srv = 0)
      in
      raw_close fd;
      note "idle session drop" dropped
        (Printf.sprintf "half-frame client evicted=%b" dropped);

      (* 7. After all of it: a full good round on an intact pool. *)
      let oks = List.map (fun src -> outcome_of (port ()) src) cfg.good_sources in
      let s7 = Server.stats !srv in
      let intact =
        List.for_all (fun o -> o = `Done) oks
        && s7.Protocol.live_workers >= cfg.workers
        && (not s7.Protocol.degraded)
        && not s7.Protocol.draining
      in
      note "final good round" intact
        (Printf.sprintf "%d/%d done, live_workers=%d/%d, degraded=%b"
           (List.length (List.filter (fun o -> o = `Done) oks))
           (List.length oks) s7.Protocol.live_workers cfg.workers
           s7.Protocol.degraded);

      (* 8. Clean drain. *)
      let completed, failed = with_client (port ()) Client.drain in
      let drained =
        match Server.wait !srv with `Drained _ -> true | `Killed _ -> false
      in
      note "drain" drained (Printf.sprintf "completed=%d failed=%d" completed failed);
      Server.stop !srv;

      (* 9. Restart on the same cache directory: the rebuilt manifest of
         a good spec must byte-match a direct farm build. *)
      Fault.Service.reset ();
      srv := Server.start scfg;
      let direct =
        match Soc_core.Parser.parse ~validate:false g0 with
        | exception _ -> ""
        | spec ->
          Farm.manifest_json
            (Farm.build_batch ~jobs:1
               [ Soc_farm.Jobgraph.entry_of ~library:cfg.kernels spec ])
      in
      let served =
        with_client (port ()) (fun c ->
            match Client.submit_and_wait c g0 with
            | Protocol.Accepted _, Some (Protocol.Result_r { state = Protocol.Done; manifest; _ })
              -> manifest
            | _ -> "<not served>")
      in
      manifest := served;
      note "restart manifest" (served <> "" && served = direct)
        (if served = direct then
           Printf.sprintf "byte-identical (%d bytes)" (String.length served)
         else "MISMATCH vs direct farm build");
      Server.stop !srv;

      let checks = List.rev !checks in
      { checks; healthy = List.for_all (fun c -> c.pass) checks; manifest = !manifest })

(* ---------------- the fleet campaign ---------------- *)

type fleet_config = {
  fleet_size : int;  (** worker daemons; at least 2 *)
  fkernels : (string * Soc_kernel.Ast.kernel) list;
  fgood_sources : string list;  (** specs that must build; at least one *)
  fcache_dir : string;  (** shared content-addressed cache directory *)
  fseed : int;  (** victim selection + net-fault determinism *)
}

(* Submit every source concurrently (one client each) and collect
   (outcome, manifest) in source order. *)
let submit_all port sources =
  let results = Array.make (List.length sources) (`Odd, "") in
  let threads =
    List.mapi
      (fun i src ->
        Thread.create
          (fun () ->
            let r =
              try
                with_client port (fun c ->
                    match Client.submit_and_wait c src with
                    | Protocol.Rejected { reason; _ }, _ ->
                      (`Rejected (Protocol.reject_reason_label reason), "")
                    | ( Protocol.Accepted _,
                        Some (Protocol.Result_r { state; manifest; _ }) ) -> (
                      match state with
                      | Protocol.Done -> (`Done, manifest)
                      | Protocol.Failed m -> (`Failed m, "")
                      | Protocol.Expired -> (`Expired, "")
                      | _ -> (`Odd, ""))
                    | _ -> (`Odd, ""))
              with _ -> (`Odd, "")
            in
            results.(i) <- r)
          ())
      sources
  in
  List.iter Thread.join threads;
  Array.to_list results

let all_done rs = List.for_all (fun (o, _) -> o = `Done) rs

let outcomes_label rs =
  String.concat "; " (List.map (fun (o, _) -> outcome_label o) rs)

(* Every manifest present and byte-equal to its reference. *)
let manifests_match rs refs =
  List.length rs = List.length refs
  && List.for_all2 (fun (_, m) m0 -> m <> "" && m = m0) rs refs

let run_fleet (cfg : fleet_config) : report =
  if cfg.fgood_sources = [] then invalid_arg "Chaos.run_fleet: no good sources";
  let n = max 2 cfg.fleet_size in
  let checks = ref [] in
  let note cname pass detail = checks := { cname; pass; detail } :: !checks in
  Fault.Service.reset ();
  Fault.Net.reset ();
  let wcfg i port =
    { Remote.default_config with
      port;
      cache_dir = Some cfg.fcache_dir;
      kernels = cfg.fkernels;
      worker_id = Printf.sprintf "w%d" i }
  in
  let workers = Array.init n (fun i -> ref (Remote.start (wcfg i 0))) in
  let ports = Array.map (fun w -> Remote.port !w) workers in
  let endpoints = Array.to_list (Array.map (fun p -> ("127.0.0.1", p)) ports) in
  let srv =
    Server.start
      { Server.default_config with
        workers = 2;
        kernels = cfg.fkernels;
        cache_dir = Some cfg.fcache_dir;
        fleet = endpoints;
        fleet_rpc_timeout_ms = 2_500 }
  in
  let port = Server.port srv in
  let manifest = ref "" in
  Fun.protect
    ~finally:(fun () ->
      Fault.Service.reset ();
      Fault.Net.reset ();
      (try Server.stop srv with _ -> ());
      Array.iter (fun w -> try Remote.stop !w with _ -> ()) workers)
    (fun () ->
      let srcs = cfg.fgood_sources in
      let g0 = List.hd srcs in

      (* 1. Cold round through the fleet: every build is dispatched to a
         remote worker, runs real HLS exactly once, and the served
         manifests become the reference for every later phase. *)
      let r1 = submit_all port srcs in
      let refs = List.map snd r1 in
      manifest := List.hd refs;
      let hls0 = Soc_hls.Engine.invocation_count () in
      let s1 = Server.stats srv in
      note "cold fleet round"
        (all_done r1
        && List.for_all (fun m -> m <> "") refs
        && s1.Protocol.remote_dispatches >= List.length srcs
        && s1.Protocol.fleet_live = n)
        (Printf.sprintf "[%s], dispatches=%d, live=%d/%d" (outcomes_label r1)
           s1.Protocol.remote_dispatches s1.Protocol.fleet_live n);

      (* 2. Seeded kill -9 mid-batch: injected batch-entry hangs hold the
         in-flight builds open while one worker (picked from the seed)
         dies; the coordinator must fail over, every request must still
         finish with the reference manifest, and a restart on the same
         port must rejoin the fleet. *)
      let victim = abs cfg.fseed mod n in
      Fault.Service.arm Fault.Service.Batch
        ~times:(4 * List.length srcs)
        (Fault.Service.Hang 0.25);
      let killer =
        Thread.create
          (fun () ->
            Thread.delay 0.1;
            Remote.kill !(workers.(victim)))
          ()
      in
      let r2 = submit_all port srcs in
      Thread.join killer;
      Fault.Service.release_hangs ();
      Fault.Service.disarm Fault.Service.Batch;
      workers.(victim) := Remote.start (wcfg victim ports.(victim));
      let rejoined =
        eventually ~for_s:8.0 (fun () -> (Server.stats srv).Protocol.fleet_live = n)
      in
      note "seeded kill failover"
        (all_done r2 && manifests_match r2 refs && rejoined)
        (Printf.sprintf "killed w%d mid-batch: [%s], manifests ok=%b, rejoined=%b"
           victim (outcomes_label r2) (manifests_match r2 refs) rejoined);

      (* 3. One-way partition: a worker's replies vanish (it still hears
         us). Heartbeats must mark it down, dispatch must route around
         it, and healing the link must bring it back. *)
      let pvictim = (victim + 1) mod n in
      let plink = "wk:" ^ Remote.worker_id !(workers.(pvictim)) in
      Fault.Net.partition ~link:plink;
      let down =
        eventually ~for_s:8.0 (fun () ->
            (Server.stats srv).Protocol.fleet_live <= n - 1)
      in
      let r3 = submit_all port srcs in
      Fault.Net.heal ~link:plink;
      let healed =
        eventually ~for_s:8.0 (fun () -> (Server.stats srv).Protocol.fleet_live = n)
      in
      note "one-way partition"
        (down && all_done r3 && manifests_match r3 refs && healed)
        (Printf.sprintf "w%d suspected=%b, [%s], manifests ok=%b, healed=%b"
           pvictim down (outcomes_label r3) (manifests_match r3 refs) healed);

      (* 4. 20 % frame drop on every fleet link, two full rounds: retries,
         re-routing and (at worst) local fallback must complete every
         request with the reference manifest. *)
      Fault.Net.arm ~seed:cfg.fseed ~drop:0.2 ();
      let r4a = submit_all port srcs in
      let r4b = submit_all port srcs in
      Fault.Net.disarm ();
      Fault.Net.heal_all ();
      let dropped = Fault.Net.fault_count "drop" in
      note "20% frame drop"
        (all_done r4a && all_done r4b
        && manifests_match r4a refs
        && manifests_match r4b refs
        && dropped > 0)
        (Printf.sprintf "2 rounds [%s] [%s], frames dropped=%d"
           (outcomes_label r4a) (outcomes_label r4b) dropped);

      (* 5. Total fleet loss: every worker killed; the accepted request
         must degrade to a local build and still serve the reference
         manifest. *)
      let fb0 = (Server.stats srv).Protocol.remote_fallbacks in
      Array.iter (fun w -> Remote.kill !w) workers;
      let r5 = submit_all port [ g0 ] in
      let s5 = Server.stats srv in
      note "total fleet loss"
        (all_done r5
        && manifests_match r5 [ List.hd refs ]
        && s5.Protocol.remote_fallbacks > fb0)
        (Printf.sprintf "[%s], remote_fallbacks=%d (+%d)" (outcomes_label r5)
           s5.Protocol.remote_fallbacks
           (s5.Protocol.remote_fallbacks - fb0));

      (* 6. Direct farm parity: a clean single-process build on the same
         cache must reproduce the served manifests byte for byte. *)
      let cache = Soc_farm.Cache.create ~disk_dir:cfg.fcache_dir () in
      let direct =
        List.map
          (fun src ->
            match Soc_core.Parser.parse ~validate:false src with
            | exception _ -> ""
            | spec ->
              Farm.manifest_json
                (Farm.build_batch ~jobs:1 ~cache
                   [ Soc_farm.Jobgraph.entry_of ~library:cfg.fkernels spec ]))
          srcs
      in
      let parity = List.for_all2 (fun d m -> d <> "" && d = m) direct refs in
      note "direct farm parity" parity
        (if parity then
           Printf.sprintf "%d manifests byte-identical" (List.length refs)
         else "MISMATCH vs direct farm build");

      (* 7. The whole campaign — kills, partitions, drops, fallback and
         the direct replay — must not have repeated a single HLS run
         past the cold round: dispatch is idempotent and the cache is
         content-addressed. *)
      let hls_end = Soc_hls.Engine.invocation_count () in
      note "zero repeated HLS" (hls_end = hls0)
        (Printf.sprintf "%d invocations cold, +%d across all chaos" hls0
           (hls_end - hls0));

      let checks = List.rev !checks in
      { checks; healthy = List.for_all (fun c -> c.pass) checks; manifest = !manifest })
