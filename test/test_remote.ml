(* The distributed serve path: protocol v2 framing hardening (typed read
   errors, structured frame_too_large), the fleet request/response
   vocabulary, deterministic net-fault plans, the remote worker daemon
   (hello negotiation, heartbeats, idempotent duplicate builds,
   cancellable injected hangs, a kill that frees its port), and the coordinator (failover retries,
   all-down exhaustion, hedged stragglers) — plus the server acceptance
   criteria: fleet-dispatched manifests byte-match a direct farm build,
   two clients of one spec in flight on a remote worker cost exactly one
   dispatch, and total fleet loss degrades to a local build. *)

module Protocol = Soc_serve.Protocol
module Remote = Soc_serve.Remote
module Coordinator = Soc_serve.Coordinator
module Server = Soc_serve.Server
module Client = Soc_serve.Client
module Farm = Soc_farm.Farm
module Jobgraph = Soc_farm.Jobgraph
module Fault = Soc_fault.Fault
module Graphs = Soc_apps.Graphs
module Cengine = Soc_rtl_compile.Engine

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let w = 16
let h = 16

let arch_source arch = Soc_core.Printer.to_source (Graphs.arch_spec arch)
let kernel_library () = Soc_apps.Otsu.kernels ~width:w ~height:h

(* Reference manifest built the way the fleet builds it: the spec parsed
   from the submitted source text (spans participate in the digest). *)
let direct_manifest arch =
  let entry =
    { Jobgraph.spec = Soc_core.Parser.parse (arch_source arch);
      kernels = Graphs.arch_kernels arch ~width:w ~height:h }
  in
  Farm.manifest_json (Farm.build_batch ~jobs:1 [ entry ])

let fresh_dir prefix =
  let d = Filename.temp_file prefix ".cache" in
  Sys.remove d;
  d

let with_faults f =
  Fault.Service.reset ();
  Fault.Net.reset ();
  Cengine.clear_degraded ();
  Fun.protect
    ~finally:(fun () ->
      Fault.Service.reset ();
      Fault.Net.reset ();
      Cengine.clear_degraded ())
    f

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

let with_worker ?cache_dir ?(worker_id = "worker") f =
  let wk =
    Remote.start
      { Remote.default_config with
        cache_dir; kernels = kernel_library (); worker_id }
  in
  Fun.protect ~finally:(fun () -> Remote.stop wk) (fun () -> f wk)

let with_coordinator cfg f =
  let co = Coordinator.create cfg in
  Fun.protect ~finally:(fun () -> Coordinator.stop co) (fun () -> f co)

(* A port that refuses connections: bound once, then released. *)
let dead_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  Unix.close fd;
  port

let quiet_beats = 600_000 (* heartbeat interval that never fires in a test *)

let coord_config ?(retries = 3) ?(retry_base_ms = 10) ?hedge_after_ms endpoints =
  { Coordinator.default_config with
    endpoints; retries; retry_base_ms; hedge_after_ms;
    heartbeat_interval_ms = quiet_beats; rpc_timeout_ms = 10_000 }

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  fd

let raw_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Protocol v2: typed read errors                                      *)
(* ------------------------------------------------------------------ *)

let test_read_errors () =
  (* Oversized: the announced length alone must fail the read, before
     any payload allocation or consumption. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 0x7fffffffl;
  ignore (Unix.write a hdr 0 4);
  (match Protocol.read_frame_checked ~max_len:1024 b with
  | Error (Protocol.Oversized { announced; limit }) ->
    check int "announced" 0x7fffffff announced;
    check int "limit" 1024 limit
  | _ -> Alcotest.fail "expected Oversized");
  Unix.close a;
  Unix.close b;
  (* Torn: header promises more bytes than ever arrive. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Bytes.set_int32_be hdr 0 64l;
  ignore (Unix.write a hdr 0 4);
  ignore (Unix.write a (Bytes.of_string "xy") 0 2);
  Unix.close a;
  (match Protocol.read_frame_checked b with
  | Error (Protocol.Torn _) -> ()
  | _ -> Alcotest.fail "expected Torn");
  Unix.close b;
  (* Clean EOF at a frame boundary is not an error. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close a;
  (match Protocol.read_frame_checked b with
  | Ok None -> ()
  | _ -> Alcotest.fail "expected Ok None on clean EOF");
  Unix.close b

let test_fleet_request_roundtrip () =
  let roundtrips r = Protocol.decode_request (Protocol.encode_request r) = Ok r in
  List.iter
    (fun r -> check bool "request survives json" true (roundtrips r))
    [ Protocol.Hello { version = 2; peer = "coordinator" };
      Protocol.Heartbeat;
      Protocol.Build
        { source = "design d {}"; key = "abc123"; deadline_ms = Some 500 };
      Protocol.Build { source = ""; key = "k"; deadline_ms = None };
      Protocol.Cancel { key = "abc123" } ]

let test_fleet_response_roundtrip () =
  let roundtrips r = Protocol.decode_response (Protocol.encode_response r) = Ok r in
  List.iter
    (fun r -> check bool "response survives json" true (roundtrips r))
    [ Protocol.Hello_r { version = 2; worker_id = "w0" };
      Protocol.Heartbeat_r { in_flight = 3; builds_done = 17 };
      Protocol.Built_r
        { key = "abc"; state = Protocol.Done; design = "d"; digest = "0xfeed";
          manifest = "{}"; wall_ms = 12.5 };
      Protocol.Built_r
        { key = "abc"; state = Protocol.Failed "cancelled"; design = "";
          digest = ""; manifest = ""; wall_ms = 0.0 };
      Protocol.Cancelled_r { key = "abc"; was_running = true };
      Protocol.Rejected
        { reason = Protocol.Frame_too_large; detail = "announced 9 bytes";
          diags = [] };
      Protocol.Rejected
        { reason = Protocol.Version_skew; detail = "peer speaks protocol 1";
          diags = [] } ]

(* ------------------------------------------------------------------ *)
(* Net fault plans                                                     *)
(* ------------------------------------------------------------------ *)

let test_net_determinism () =
  with_faults (fun () ->
      Fault.Net.arm ~seed:7 ~drop:0.5 ();
      let seq () = List.init 64 (fun _ -> Fault.Net.decide ~link:"a") in
      let s1 = seq () in
      Fault.Net.reset ();
      Fault.Net.arm ~seed:7 ~drop:0.5 ();
      let s2 = seq () in
      check bool "same seed, same verdict sequence" true (s1 = s2);
      check bool "plan actually drops" true
        (List.exists (fun d -> d = Fault.Net.Drop) s1);
      check bool "plan actually delivers" true
        (List.exists (fun d -> d = Fault.Net.Deliver) s1);
      Fault.Net.reset ();
      Fault.Net.arm ~seed:7 ~drop:1.0 ();
      check bool "drop=1 always drops" true
        (List.for_all (fun d -> d = Fault.Net.Drop) (seq ())))

let test_net_partition () =
  with_faults (fun () ->
      check bool "unpartitioned link delivers" true
        (Fault.Net.decide ~link:"wk:w0" = Fault.Net.Deliver);
      Fault.Net.partition ~link:"wk:w0";
      check bool "partitioned" true (Fault.Net.partitioned ~link:"wk:w0");
      check bool "partitioned link drops every frame" true
        (List.for_all
           (fun d -> d = Fault.Net.Drop)
           (List.init 8 (fun _ -> Fault.Net.decide ~link:"wk:w0")));
      check bool "other links unaffected" true
        (Fault.Net.decide ~link:"wk:w1" = Fault.Net.Deliver);
      check bool "drops were counted" true (Fault.Net.fault_count "drop" >= 8);
      Fault.Net.heal ~link:"wk:w0";
      check bool "healed link delivers" true
        (Fault.Net.decide ~link:"wk:w0" = Fault.Net.Deliver))

(* ------------------------------------------------------------------ *)
(* The worker daemon                                                   *)
(* ------------------------------------------------------------------ *)

(* Both daemons negotiate [Hello] the same way; each names itself in
   the skew rejection and in the hello reply. *)
let check_hello handle ~daemon ~worker_id =
  (match handle (Protocol.Hello { version = 99; peer = "test" }) with
  | Protocol.Hello_r { version; worker_id = id } ->
    check int (daemon ^ ": negotiated down to ours") Protocol.protocol_version version;
    check string (daemon ^ ": id") worker_id id
  | _ -> Alcotest.fail (daemon ^ ": expected Hello_r"));
  match handle (Protocol.Hello { version = 1; peer = "test" }) with
  | Protocol.Rejected { reason = Protocol.Version_skew; detail; _ } ->
    check bool (daemon ^ ": detail names the daemon") true
      (Tstr.contains detail ("this " ^ daemon ^ " requires"))
  | _ -> Alcotest.fail (daemon ^ ": expected Version_skew rejection")

let test_worker_hello () =
  let srv = Server.start Server.default_config in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> check_hello (Server.handle srv) ~daemon:"server" ~worker_id:"server");
  with_worker ~worker_id:"w7" (fun wk ->
      check_hello (Remote.handle wk) ~daemon:"worker" ~worker_id:"w7";
      (match Remote.handle wk Protocol.Heartbeat with
      | Protocol.Heartbeat_r { in_flight; builds_done } ->
        check int "idle worker" 0 in_flight;
        check int "no builds yet" 0 builds_done
      | _ -> Alcotest.fail "expected Heartbeat_r");
      match Remote.handle wk Protocol.Drain with
      | Protocol.Error_r _ -> ()
      | _ -> Alcotest.fail "coordinator-only ops must be refused")

let test_worker_idempotent_duplicate () =
  with_faults (fun () ->
      with_worker (fun wk ->
          (* Hold the first build open at batch entry so the duplicate
             provably attaches to the in-flight record. *)
          Fault.Service.arm Fault.Service.Batch ~times:1 (Fault.Service.Hang 10.0);
          let source = arch_source Graphs.Arch1 in
          let build () =
            Remote.handle wk
              (Protocol.Build { source; key = "dup"; deadline_ms = None })
          in
          let r1 = ref Protocol.Pong and r2 = ref Protocol.Pong in
          let t1 = Thread.create (fun () -> r1 := build ()) () in
          check bool "first build in flight" true
            (eventually (fun () -> Remote.in_flight wk = 1));
          let t2 = Thread.create (fun () -> r2 := build ()) () in
          Thread.delay 0.15;
          Fault.Service.release_hangs ();
          Thread.join t1;
          Thread.join t2;
          (match (!r1, !r2) with
          | ( Protocol.Built_r { state = Protocol.Done; manifest = m1; _ },
              Protocol.Built_r { state = Protocol.Done; manifest = m2; _ } ) ->
            check bool "manifests non-empty" true (m1 <> "");
            check string "duplicate served the same bytes" m1 m2
          | _ -> Alcotest.fail "expected two Done replies");
          check int "one dispatch, one build" 1 (Remote.builds_done wk)))

let test_worker_cancel_interrupts_hang () =
  with_faults (fun () ->
      with_worker (fun wk ->
          Fault.Service.arm Fault.Service.Batch ~times:1 (Fault.Service.Hang 30.0);
          let source = arch_source Graphs.Arch2 in
          let r = ref Protocol.Pong in
          let t0 = Unix.gettimeofday () in
          let t =
            Thread.create
              (fun () ->
                r :=
                  Remote.handle wk
                    (Protocol.Build { source; key = "c1"; deadline_ms = None }))
              ()
          in
          check bool "build wedged in the injected hang" true
            (eventually (fun () -> Remote.in_flight wk = 1));
          Thread.delay 0.05;
          (match Remote.handle wk (Protocol.Cancel { key = "c1" }) with
          | Protocol.Cancelled_r { was_running; key } ->
            check string "echoed key" "c1" key;
            check bool "found the running build" true was_running
          | _ -> Alcotest.fail "expected Cancelled_r");
          Thread.join t;
          let elapsed = Unix.gettimeofday () -. t0 in
          (match !r with
          | Protocol.Built_r { state = Protocol.Failed msg; _ } ->
            check string "cancel verdict" "cancelled" msg
          | _ -> Alcotest.fail "expected a Failed reply");
          check bool "interrupted long before the 30s hang" true (elapsed < 10.0);
          check int "cancel landed on a live build" 1 (Remote.cancel_hits wk);
          (* A cancel for an unknown key is a clean no. *)
          match Remote.handle wk (Protocol.Cancel { key = "nope" }) with
          | Protocol.Cancelled_r { was_running = false; _ } -> ()
          | _ -> Alcotest.fail "expected was_running=false"))

(* A killed worker's port closes at once: a connect is refused, and a
   new worker starts on the same port straight away. *)
let test_worker_kill_frees_port () =
  let cfg = { Remote.default_config with worker_id = "k" } in
  let wk = ref (Remote.start cfg) in
  let cfg = { cfg with port = Remote.port !wk } in
  Fun.protect
    ~finally:(fun () -> Remote.stop !wk)
    (fun () ->
      for round = 1 to 10 do
        let label what = Printf.sprintf "round %d: %s" round what in
        let c = Client.connect ~port:cfg.port () in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            check bool (label "ping") true (Client.ping c);
            Remote.kill !wk);
        (match Client.connect ~port:cfg.port () with
        | exception Client.Error _ -> ()
        | c ->
          Client.close c;
          Alcotest.fail (label "killed worker still accepts connections"));
        wk := Remote.start cfg
      done)

let test_frame_too_large_structured () =
  (* Both daemons must answer an oversized announcement with a typed
     rejection, then hang up — never allocate or desync. *)
  let oversized_hdr = "\x7f\xff\xff\xff" in
  let expect_rejection port =
    let fd = raw_connect port in
    Fun.protect
      ~finally:(fun () -> raw_close fd)
      (fun () ->
        ignore (Unix.write fd (Bytes.of_string oversized_hdr) 0 4);
        (match Protocol.recv fd with
        | Some j -> (
          match Protocol.decode_response j with
          | Ok (Protocol.Rejected { reason = Protocol.Frame_too_large; detail; _ })
            ->
            check bool "detail names the limit" true
              (String.length detail > 0)
          | _ -> Alcotest.fail "expected Frame_too_large rejection")
        | None -> Alcotest.fail "expected a reply before hangup");
        match Protocol.recv fd with
        | None -> ()
        | Some _ -> Alcotest.fail "session must close after the rejection")
  in
  with_worker (fun wk -> expect_rejection (Remote.port wk));
  let srv = Server.start { Server.default_config with kernels = [] } in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> expect_rejection (Server.port srv))

(* ------------------------------------------------------------------ *)
(* The coordinator                                                     *)
(* ------------------------------------------------------------------ *)

let test_coordinator_failover () =
  with_faults (fun () ->
      let dir = fresh_dir "fleet-failover" in
      with_worker ~cache_dir:dir (fun wk ->
          let dead = dead_port () in
          let eps = [ ("127.0.0.1", dead); ("127.0.0.1", Remote.port wk) ] in
          with_coordinator (coord_config ~retries:4 eps) (fun co ->
              let source = arch_source Graphs.Arch1 in
              (* Several keys: rotation spreads first attempts over both
                 endpoints, so some dispatches must fail over from the
                 dead worker and still come back Built. *)
              for i = 0 to 7 do
                match
                  Coordinator.build co ~source ~key:(Printf.sprintf "fo%d" i) ()
                with
                | Ok (Coordinator.Built b) ->
                  check bool "manifest served" true (b.Coordinator.manifest <> "")
                | Ok (Coordinator.Build_failed m) ->
                  Alcotest.fail ("build failed: " ^ m)
                | Error e -> Alcotest.fail ("fleet exhausted: " ^ e)
              done;
              let s = Coordinator.stats co in
              check bool "dispatches counted" true (s.Coordinator.dispatches >= 8);
              check bool "dead endpoint forced retries" true
                (s.Coordinator.retries >= 1))))

let test_coordinator_all_down () =
  with_faults (fun () ->
      let eps =
        [ ("127.0.0.1", dead_port ()); ("127.0.0.1", dead_port ()) ]
      in
      with_coordinator (coord_config ~retries:1 eps) (fun co ->
          match Coordinator.build co ~source:"design d {}" ~key:"k" () with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "a dead fleet cannot build"))

let test_coordinator_hedge () =
  with_faults (fun () ->
      let dir = fresh_dir "fleet-hedge" in
      with_worker ~cache_dir:dir ~worker_id:"w0" (fun w0 ->
          with_worker ~cache_dir:dir ~worker_id:"w1" (fun w1 ->
              let eps =
                [ ("127.0.0.1", Remote.port w0); ("127.0.0.1", Remote.port w1) ]
              in
              with_coordinator
                (coord_config ~hedge_after_ms:100.0 eps)
                (fun co ->
                  (* The first dispatch wedges at batch entry; the hedge
                     races the other worker past the 100 ms threshold and
                     must win long before the 20 s hang expires. *)
                  Fault.Service.arm Fault.Service.Batch ~times:1
                    (Fault.Service.Hang 20.0);
                  let t0 = Unix.gettimeofday () in
                  (match
                     Coordinator.build co ~source:(arch_source Graphs.Arch3)
                       ~key:"h1" ()
                   with
                  | Ok (Coordinator.Built b) ->
                    check bool "hedge won a manifest" true
                      (b.Coordinator.manifest <> "")
                  | Ok (Coordinator.Build_failed m) ->
                    Alcotest.fail ("build failed: " ^ m)
                  | Error e -> Alcotest.fail ("fleet exhausted: " ^ e));
                  check bool "won before the hang expired" true
                    (Unix.gettimeofday () -. t0 < 15.0);
                  let s = Coordinator.stats co in
                  check bool "a hedge was launched" true
                    (s.Coordinator.hedges >= 1);
                  check bool "the loser was cancelled" true
                    (eventually (fun () ->
                         (Coordinator.stats co).Coordinator.cancels >= 1
                         || Remote.cancel_hits w0 + Remote.cancel_hits w1 >= 1));
                  Fault.Service.release_hangs ()))))

(* The dispatch loop sleeps on the race's condition, not a poll: a warm
   build costs the worker's batch plus a round trip, with no dispatch
   tick on top (a 20 ms poll alone would cost 400 ms here). *)
let test_coordinator_warm_builds_fast () =
  with_faults (fun () ->
      let dir = fresh_dir "fleet-warm" in
      with_worker ~cache_dir:dir (fun wk ->
          with_coordinator
            (coord_config [ ("127.0.0.1", Remote.port wk) ])
            (fun co ->
              let source = arch_source Graphs.Arch1 in
              let build key =
                match Coordinator.build co ~source ~key () with
                | Ok (Coordinator.Built _) -> ()
                | Ok (Coordinator.Build_failed m) -> Alcotest.fail ("build failed: " ^ m)
                | Error e -> Alcotest.fail ("fleet exhausted: " ^ e)
              in
              build "warm";
              let t0 = Unix.gettimeofday () in
              for i = 1 to 20 do
                build (Printf.sprintf "warm%d" i)
              done;
              let dt = Unix.gettimeofday () -. t0 in
              if dt >= 0.3 then
                Alcotest.failf "20 warm builds took %.0f ms (bound 300 ms)" (1000.0 *. dt))))

(* ------------------------------------------------------------------ *)
(* The server in fleet mode                                            *)
(* ------------------------------------------------------------------ *)

let with_fleet_server ?(fleet_rpc_timeout_ms = 10_000) fleet f =
  let srv =
    Server.start
      { Server.default_config with
        kernels = kernel_library (); fleet; fleet_rpc_timeout_ms }
  in
  let client = Client.connect ~port:(Server.port srv) () in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      Server.stop srv)
    (fun () -> f srv client)

let test_server_fleet_parity () =
  with_faults (fun () ->
      let dir = fresh_dir "fleet-parity" in
      with_worker ~cache_dir:dir (fun wk ->
          with_fleet_server
            [ ("127.0.0.1", Remote.port wk) ]
            (fun srv client ->
              match Client.submit_and_wait client (arch_source Graphs.Arch1) with
              | ( Protocol.Accepted _,
                  Some
                    (Protocol.Result_r
                       { state = Protocol.Done; manifest; digest; _ }) ) ->
                check bool "digest present" true (digest <> "");
                check string "remote manifest byte-matches a direct farm build"
                  (direct_manifest Graphs.Arch1) manifest;
                let s = Server.stats srv in
                check int "one remote dispatch" 1 s.Protocol.remote_dispatches;
                check int "fleet size" 1 s.Protocol.fleet_workers;
                check int "no local fallback" 0 s.Protocol.remote_fallbacks;
                check int "the worker built it" 1 (Remote.builds_done wk)
              | _ -> Alcotest.fail "expected a Done result")))

let test_server_fleet_coalesce () =
  with_faults (fun () ->
      let dir = fresh_dir "fleet-coalesce" in
      with_worker ~cache_dir:dir (fun wk ->
          with_fleet_server
            [ ("127.0.0.1", Remote.port wk) ]
            (fun srv client ->
              (* Wedge the remote build so the second client provably
                 arrives while the first is in flight. *)
              Fault.Service.arm Fault.Service.Batch ~times:1
                (Fault.Service.Hang 20.0);
              let source = arch_source Graphs.Arch4 in
              let id1 =
                match Client.submit client source with
                | Protocol.Accepted { id; coalesced; _ } ->
                  check bool "first submit runs" false coalesced;
                  id
                | _ -> Alcotest.fail "expected Accepted"
              in
              check bool "dispatched to the worker" true
                (eventually (fun () -> Remote.in_flight wk = 1));
              let id2 =
                match Client.submit client source with
                | Protocol.Accepted { id; coalesced; _ } ->
                  check bool "second submit coalesces" true coalesced;
                  id
                | _ -> Alcotest.fail "expected Accepted"
              in
              Fault.Service.release_hangs ();
              let manifest_of id =
                match Client.result client id with
                | Protocol.Result_r { state = Protocol.Done; manifest; _ } ->
                  manifest
                | _ -> Alcotest.fail "expected Done"
              in
              let m1 = manifest_of id1 in
              let m2 = manifest_of id2 in
              check bool "manifest non-empty" true (m1 <> "");
              check string "both clients got identical bytes" m1 m2;
              let s = Server.stats srv in
              check int "two submissions" 2 s.Protocol.submitted;
              check int "one coalesced" 1 s.Protocol.coalesced;
              check int "exactly one remote dispatch" 1
                s.Protocol.remote_dispatches;
              check int "the worker built once" 1 (Remote.builds_done wk))))

let test_server_fleet_fallback () =
  with_faults (fun () ->
      with_fleet_server ~fleet_rpc_timeout_ms:2_000
        [ ("127.0.0.1", dead_port ()) ]
        (fun srv client ->
          match Client.submit_and_wait client (arch_source Graphs.Arch2) with
          | ( Protocol.Accepted _,
              Some (Protocol.Result_r { state = Protocol.Done; manifest; _ }) )
            ->
            check string "local fallback still byte-matches"
              (direct_manifest Graphs.Arch2) manifest;
            let s = Server.stats srv in
            check bool "fleet exhaustion was counted" true
              (s.Protocol.remote_fallbacks >= 1)
          | _ -> Alcotest.fail "expected a Done result via local fallback"))

let suite =
  [
    Alcotest.test_case "framing: typed read errors" `Quick test_read_errors;
    Alcotest.test_case "protocol: fleet requests roundtrip" `Quick
      test_fleet_request_roundtrip;
    Alcotest.test_case "protocol: fleet responses roundtrip" `Quick
      test_fleet_response_roundtrip;
    Alcotest.test_case "net: seeded plans are deterministic" `Quick
      test_net_determinism;
    Alcotest.test_case "net: one-way partition drops a link" `Quick
      test_net_partition;
    Alcotest.test_case "worker: hello negotiation + heartbeat" `Quick
      test_worker_hello;
    Alcotest.test_case "worker: duplicate build attaches, builds once" `Quick
      test_worker_idempotent_duplicate;
    Alcotest.test_case "worker: cancel interrupts an injected hang" `Quick
      test_worker_cancel_interrupts_hang;
    Alcotest.test_case "worker: kill closes the port, restart reuses it" `Quick
      test_worker_kill_frees_port;
    Alcotest.test_case "wire: oversized frame gets a structured rejection" `Quick
      test_frame_too_large_structured;
    Alcotest.test_case "coordinator: retries fail over a dead worker" `Quick
      test_coordinator_failover;
    Alcotest.test_case "coordinator: all workers down is an error" `Quick
      test_coordinator_all_down;
    Alcotest.test_case "coordinator: warm builds pay no dispatch poll" `Quick
      test_coordinator_warm_builds_fast;
    Alcotest.test_case "coordinator: stragglers are hedged, losers cancelled"
      `Quick test_coordinator_hedge;
    Alcotest.test_case "server: fleet manifest byte-matches direct farm" `Quick
      test_server_fleet_parity;
    Alcotest.test_case "server: coalescing spans the remote path" `Quick
      test_server_fleet_coalesce;
    Alcotest.test_case "server: total fleet loss degrades to local" `Quick
      test_server_fleet_fallback;
  ]
