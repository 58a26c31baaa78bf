(* The generation daemon: wire protocol (JSON + framing), admission
   scheduler (coalescing, backpressure, deadlines), and the live server
   end-to-end over real TCP — including the acceptance criteria: K
   identical concurrent submissions run HLS exactly once and return K
   bit-identical manifests; queue overflow is a structured rejection;
   past-deadline requests expire without engine work; and a --kill-at
   crash plus restart on the same cache dir recovers byte-identically
   with zero repeated HLS. *)

module Protocol = Soc_serve.Protocol
module Scheduler = Soc_serve.Scheduler
module Server = Soc_serve.Server
module Client = Soc_serve.Client
module Farm = Soc_farm.Farm
module Jobgraph = Soc_farm.Jobgraph
module Fault = Soc_fault.Fault
module Diag = Soc_util.Diag
module Graphs = Soc_apps.Graphs
module Engine = Soc_hls.Engine
module Breaker = Soc_serve.Breaker
module Cengine = Soc_rtl_compile.Engine

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let w = 16
let h = 16

let arch_source arch = Soc_core.Printer.to_source (Graphs.arch_spec arch)
let kernel_library () = Soc_apps.Otsu.kernels ~width:w ~height:h

(* Reference entry built exactly the way the server builds it: the spec is
   PARSED from the submitted source (parsing attaches source spans, which
   participate in the build digest), not taken from the EDSL directly. *)
let parsed_entry arch =
  { Jobgraph.spec = Soc_core.Parser.parse (arch_source arch);
    kernels = Graphs.arch_kernels arch ~width:w ~height:h }

let fresh_dir prefix =
  let d = Filename.temp_file prefix ".cache" in
  Sys.remove d;
  d

(* A started in-process server plus a connected client, torn down in
   order no matter how the test ends. *)
let with_server ?(workers = 2) ?(queue_cap = 64) ?cache_dir ?kill ?default_deadline_ms
    ?breaker_threshold ?breaker_cooldown_ms ?build_timeout_ms ?max_worker_restarts
    ?max_sessions ?idle_session_timeout_ms ?clock f =
  let d = Server.default_config in
  let opt v dflt = Option.value v ~default:dflt in
  let cfg =
    { d with
      workers; queue_cap; cache_dir; kill; default_deadline_ms;
      kernels = kernel_library ();
      breaker_threshold = opt breaker_threshold d.Server.breaker_threshold;
      breaker_cooldown_ms = opt breaker_cooldown_ms d.Server.breaker_cooldown_ms;
      build_timeout_ms =
        (match build_timeout_ms with Some _ as v -> v | None -> d.Server.build_timeout_ms);
      max_worker_restarts = opt max_worker_restarts d.Server.max_worker_restarts;
      max_sessions = opt max_sessions d.Server.max_sessions;
      idle_session_timeout_ms =
        (match idle_session_timeout_ms with
        | Some _ as v -> v
        | None -> d.Server.idle_session_timeout_ms);
      clock = opt clock d.Server.clock }
  in
  let srv = Server.start cfg in
  let client = Client.connect ~port:(Server.port srv) () in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      Server.stop srv)
    (fun () -> f srv client)

(* Deterministic service-fault hygiene: every injected behaviour (and the
   global degraded-netlist memory it may leave behind) is cleared no
   matter how the test ends. *)
let with_faults f =
  Fault.Service.reset ();
  Cengine.clear_degraded ();
  Fun.protect
    ~finally:(fun () ->
      Fault.Service.reset ();
      Cengine.clear_degraded ())
    f

(* ------------------------------------------------------------------ *)
(* Protocol: JSON                                                      *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [ Protocol.Null; Protocol.Bool true; Protocol.Bool false; Protocol.Num 0.0;
      Protocol.Num 42.0; Protocol.Num (-17.0); Protocol.Num 0.5; Protocol.Num 1e15;
      Protocol.Str ""; Protocol.Str "plain"; Protocol.Str "esc \" \\ \n \t \r quo";
      Protocol.Str "unicode \xc3\xa9 \xe2\x82\xac"; Protocol.Arr [];
      Protocol.Arr [ Protocol.Num 1.0; Protocol.Str "two"; Protocol.Null ];
      Protocol.Obj [];
      Protocol.Obj
        [ ("a", Protocol.Num 1.0);
          ("nested", Protocol.Obj [ ("b", Protocol.Arr [ Protocol.Bool false ]) ]) ] ]
  in
  List.iter
    (fun v ->
      let s = Protocol.to_string v in
      check Alcotest.bool (Printf.sprintf "roundtrip %s" s) true
        (Protocol.of_string s = v))
    cases

let test_json_escapes () =
  (* One escaper (Soc_util.Json) serves the protocol codec, diagnostics,
     traces and reports; every row must also parse back to the raw text. *)
  List.iter
    (fun (raw, body) ->
      check Alcotest.string (Printf.sprintf "escape %S" raw) body (Soc_util.Json.escape raw);
      check Alcotest.string (Printf.sprintf "protocol %S" raw) ("\"" ^ body ^ "\"")
        (Protocol.to_string (Protocol.Str raw));
      check Alcotest.bool (Printf.sprintf "diag message %S parses back" raw) true
        (match Protocol.of_string (Diag.to_json (Diag.error ~code:"X" ~subject:"s" raw)) with
        | Protocol.Obj fields -> List.assoc_opt "message" fields = Some (Protocol.Str raw)
        | _ -> false))
    [ ("\x01\n", {|\u0001\n|});
      ("a\"b\\c", {|a\"b\\c|});
      ("\r\t", {|\r\t|});
      ("\x1f\x7f", {|\u001f|} ^ "\x7f");
      ("caf\xc3\xa9", "caf\xc3\xa9") ];
  check Alcotest.bool "\\uXXXX decodes" true
    (Protocol.of_string {|"\u00e9"|} = Protocol.Str "\xc3\xa9");
  check Alcotest.bool "integral floats print as ints" true
    (Protocol.to_string (Protocol.Num 7.0) = "7")

let test_json_parse_errors () =
  List.iter
    (fun s ->
      check Alcotest.bool (Printf.sprintf "reject %S" s) true
        (match Protocol.of_string s with
        | exception Protocol.Parse_error _ -> true
        | _ -> false))
    [ ""; "{"; "tru"; "1 2"; "{\"a\":}"; "[1,]"; "\"\\ud800\""; "nul" ]

let json_gen =
  let open QCheck in
  let leaf =
    Gen.oneof
      [ Gen.return Protocol.Null;
        Gen.map (fun b -> Protocol.Bool b) Gen.bool;
        (* Integral and dyadic values round-trip exactly through the
           printer; that is all the protocol ever sends. *)
        Gen.map (fun n -> Protocol.Num (float_of_int n)) (Gen.int_range (-1000000) 1000000);
        Gen.map (fun n -> Protocol.Num (float_of_int n /. 16.0)) (Gen.int_range 0 10000);
        Gen.map (fun s -> Protocol.Str s) Gen.string_printable ]
  in
  let tree =
    Gen.sized (fun size ->
        Gen.fix
          (fun self n ->
            if n = 0 then leaf
            else
              Gen.oneof
                [ leaf;
                  Gen.map (fun l -> Protocol.Arr l) (Gen.list_size (Gen.int_bound 4) (self (n / 2)));
                  Gen.map
                    (fun kvs -> Protocol.Obj kvs)
                    (Gen.list_size (Gen.int_bound 4)
                       (Gen.pair Gen.string_printable (self (n / 2)))) ])
          (min size 6))
  in
  QCheck.make ~print:(fun v -> Protocol.to_string v) tree

let prop_json_roundtrip =
  QCheck.Test.make ~name:"protocol json print/parse roundtrip" ~count:300 json_gen
    (fun v -> Protocol.of_string (Protocol.to_string v) = v)

(* ------------------------------------------------------------------ *)
(* Protocol: framing                                                   *)
(* ------------------------------------------------------------------ *)

let with_pipe f =
  let r, wfd = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close wfd with Unix.Unix_error _ -> ())
    (fun () -> f r wfd)

let test_framing_roundtrip () =
  with_pipe (fun r wfd ->
      Protocol.write_frame wfd "hello";
      Protocol.write_frame wfd "";
      (* Stay well under the pipe's buffer: these writes happen before any
         read drains it. *)
      Protocol.write_frame wfd (String.make 30000 'x');
      Unix.close wfd;
      check Alcotest.(option string) "first" (Some "hello") (Protocol.read_frame r);
      check Alcotest.(option string) "empty" (Some "") (Protocol.read_frame r);
      check Alcotest.(option int) "large" (Some 30000)
        (Option.map String.length (Protocol.read_frame r));
      check Alcotest.(option string) "clean EOF" None (Protocol.read_frame r))

let test_framing_torn_payload () =
  with_pipe (fun r wfd ->
      (* Header announces 10 bytes; only 3 arrive before EOF. *)
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 10l;
      ignore (Unix.write wfd hdr 0 4);
      ignore (Unix.write_substring wfd "abc" 0 3);
      Unix.close wfd;
      check Alcotest.bool "torn payload detected" true
        (match Protocol.read_frame r with
        | exception Protocol.Framing_error _ -> true
        | _ -> false))

let test_framing_oversize () =
  with_pipe (fun r wfd ->
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 1000l;
      ignore (Unix.write wfd hdr 0 4);
      check Alcotest.bool "oversize frame rejected" true
        (match Protocol.read_frame ~max_len:64 r with
        | exception Protocol.Framing_error _ -> true
        | _ -> false);
      check Alcotest.bool "oversize write rejected" true
        (match Protocol.write_frame ~max_len:8 wfd "123456789" with
        | exception Protocol.Framing_error _ -> true
        | _ -> false))

(* ------------------------------------------------------------------ *)
(* Protocol: request / response vocabulary                             *)
(* ------------------------------------------------------------------ *)

let sample_diags =
  [ Diag.error ~span:{ Diag.line = 3; col = 7 } ~code:"SOC031" ~subject:"a.x->b.y"
      "rates differ";
    Diag.warning ~code:"RES211" ~subject:"budget" "close to the edge" ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      check Alcotest.bool "request roundtrip" true
        (Protocol.decode_request (Protocol.of_string (Protocol.to_string (Protocol.encode_request req)))
        = Ok req))
    [ Protocol.Submit { source = "object x {}"; priority = 3; deadline_ms = Some 250 };
      Protocol.Submit { source = ""; priority = 0; deadline_ms = None };
      Protocol.Status 7; Protocol.Result 9; Protocol.Stats; Protocol.Drain;
      Protocol.Ping ]

let test_response_roundtrip () =
  let stats =
    { Protocol.uptime_ms = 1234.0; workers = 4; live_workers = 3; degraded = true;
      draining = false; submitted = 10;
      coalesced = 3; completed = 6; failed = 1; expired = 1; rejected_queue = 2;
      rejected_check = 1; queue_depth = 2; running = 1; cache_hits = 5;
      cache_disk_hits = 2; cache_misses = 3; hit_rate = 0.7; engine_runs = 3;
      worker_restarts = 2; watchdog_fires = 1; breaker_open_keys = 1;
      rejected_poisoned = 4; sim_fallbacks = 1; rtl_verify_rejects = 2;
      fleet_workers = 2; fleet_live = 1; remote_dispatches = 9; remote_retries = 2;
      remote_hedges = 1; remote_cancels = 1; remote_fallbacks = 3;
      lat_count = 6; lat_p50_ms = 8.0; lat_p95_ms = 16.0; lat_p99_ms = 16.0 }
  in
  List.iter
    (fun resp ->
      check Alcotest.bool "response roundtrip" true
        (Protocol.decode_response
           (Protocol.of_string (Protocol.to_string (Protocol.encode_response resp)))
        = Ok resp))
    [ Protocol.Accepted { id = 1; key = "abcd"; coalesced = true; diags = sample_diags };
      Protocol.Rejected
        { reason = Protocol.Queue_full; detail = "cap 2"; diags = [] };
      Protocol.Rejected
        { reason = Protocol.Check_failed; detail = "1 error"; diags = sample_diags };
      Protocol.Status_r { id = 4; state = Protocol.Queued 2 };
      Protocol.Status_r { id = 4; state = Protocol.Running };
      Protocol.Status_r { id = 4; state = Protocol.Failed "boom" };
      Protocol.Result_r
        { id = 4; state = Protocol.Done; design = "otsu_arch1"; digest = "ff00";
          manifest = "[]\n"; wall_ms = 12.5 };
      Protocol.Stats_r stats; Protocol.Drained { completed = 6; failed = 1 };
      Protocol.Error_r "unknown id"; Protocol.Pong ]

let test_diag_json_roundtrip () =
  List.iter
    (fun d ->
      check Alcotest.bool "diag roundtrip" true
        (Protocol.diag_of_json (Protocol.json_of_diag d) = d))
    sample_diags

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let test_sched_priority_fifo () =
  let s = Scheduler.create ~queue_cap:10 () in
  ignore (Scheduler.submit s ~key:"a" "a");
  ignore (Scheduler.submit s ~key:"b" ~priority:5 "b");
  ignore (Scheduler.submit s ~key:"c" "c");
  let take () =
    match Scheduler.next s with
    | Some j ->
      Scheduler.finish s j (Scheduler.Ok_r ());
      Scheduler.job_key j
    | None -> "none"
  in
  let first = take () in
  let second = take () in
  let third = take () in
  check Alcotest.(list string) "priority first, then FIFO" [ "b"; "a"; "c" ]
    [ first; second; third ]

let test_sched_coalescing () =
  let s = Scheduler.create ~queue_cap:10 () in
  let id1 =
    match Scheduler.submit s ~key:"k" "payload" with
    | Scheduler.Enqueued id -> id
    | _ -> Alcotest.fail "expected Enqueued"
  in
  let id2 =
    match Scheduler.submit s ~key:"k" "payload" with
    | Scheduler.Coalesced id -> id
    | _ -> Alcotest.fail "expected Coalesced"
  in
  let job = Option.get (Scheduler.next s) in
  check Alcotest.(list int) "both requests attached" [ id1; id2 ] (Scheduler.job_ids job);
  (* Still coalesces while running. *)
  (match Scheduler.submit s ~key:"k" "payload" with
  | Scheduler.Coalesced _ -> ()
  | _ -> Alcotest.fail "expected coalescing with the running job");
  Scheduler.finish s job (Scheduler.Ok_r "done");
  check Alcotest.bool "waiters see the one result" true
    (Scheduler.wait s id1 = Some (Scheduler.Ok_r "done")
    && Scheduler.wait s id2 = Some (Scheduler.Ok_r "done"));
  (* After the job finished, the key is fresh again. *)
  (match Scheduler.submit s ~key:"k" "payload" with
  | Scheduler.Enqueued _ -> ()
  | _ -> Alcotest.fail "finished keys must not coalesce");
  let st = Scheduler.stats s in
  check Alcotest.int "coalesced counted" 2 st.Scheduler.coalesced;
  check Alcotest.int "completed counts every attached request" 3 st.Scheduler.completed

let test_sched_backpressure () =
  let s = Scheduler.create ~queue_cap:2 () in
  ignore (Scheduler.submit s ~key:"a" "a");
  ignore (Scheduler.submit s ~key:"b" "b");
  check Alcotest.bool "over-cap submit rejected" true
    (Scheduler.submit s ~key:"c" "c" = Scheduler.Rejected_full);
  (* Coalescing does not create a job, so it is admitted past the cap. *)
  (match Scheduler.submit s ~key:"a" "a" with
  | Scheduler.Coalesced _ -> ()
  | _ -> Alcotest.fail "coalescing must bypass the cap");
  check Alcotest.int "rejection counted" 1 (Scheduler.stats s).Scheduler.rejected

let test_sched_deadline_expiry () =
  let now = ref 0.0 in
  let lat = ref [] in
  let s =
    Scheduler.create ~clock:(fun () -> !now)
      ~on_done:(fun ~latency -> lat := latency :: !lat)
      ~queue_cap:10 ()
  in
  let id1 =
    match Scheduler.submit s ~key:"a" ~deadline_ms:100 "a" with
    | Scheduler.Enqueued id -> id
    | _ -> Alcotest.fail "expected Enqueued"
  in
  ignore (Scheduler.submit s ~key:"b" "b");
  now := 1.0;
  (* Dispatch skips the dead job without running it and hands out the
     live one. *)
  let job = Option.get (Scheduler.next s) in
  check Alcotest.string "expired job never dispatched" "b" (Scheduler.job_key job);
  check Alcotest.bool "expired status" true
    (Scheduler.status s id1 = Some (Scheduler.Finished Scheduler.Expired));
  Scheduler.finish s job (Scheduler.Ok_r ());
  check Alcotest.int "expired counted" 1 (Scheduler.stats s).Scheduler.expired;
  check Alcotest.(list (float 0.001)) "latency recorded for both" [ 1000.0; 1000.0 ]
    !lat

let test_sched_abort_all () =
  let s = Scheduler.create ~queue_cap:10 () in
  let id1 =
    match Scheduler.submit s ~key:"a" "a" with
    | Scheduler.Enqueued id -> id
    | _ -> Alcotest.fail "expected Enqueued"
  in
  let job = Option.get (Scheduler.next s) in
  let id2 =
    match Scheduler.submit s ~key:"b" "b" with
    | Scheduler.Enqueued id -> id
    | _ -> Alcotest.fail "expected Enqueued"
  in
  Scheduler.abort_all s ~reason:"killed";
  check Alcotest.bool "running job failed" true
    (Scheduler.wait s id1 = Some (Scheduler.Failed "killed"));
  check Alcotest.bool "queued job failed" true
    (Scheduler.wait s id2 = Some (Scheduler.Failed "killed"));
  check Alcotest.bool "workers sent home" true (Scheduler.next s = None);
  (* A late finish from the worker that held the job must not overwrite
     the abort verdict or double-count. *)
  Scheduler.finish s job (Scheduler.Ok_r "late");
  check Alcotest.bool "abort verdict sticks" true
    (Scheduler.wait s id1 = Some (Scheduler.Failed "killed"));
  check Alcotest.int "no double count" 2 (Scheduler.stats s).Scheduler.failed

let test_sched_drain () =
  let s = Scheduler.create ~queue_cap:10 () in
  ignore (Scheduler.submit s ~key:"a" "a");
  Scheduler.drain s;
  check Alcotest.bool "no admissions while draining" true
    (Scheduler.submit s ~key:"b" "b" = Scheduler.Rejected_full);
  let job = Option.get (Scheduler.next s) in
  Scheduler.finish s job (Scheduler.Ok_r ());
  Scheduler.quiesce s;
  check Alcotest.bool "drained queue hands out None" true (Scheduler.next s = None)

let test_sched_status_positions () =
  let s = Scheduler.create ~queue_cap:10 () in
  Scheduler.pause s;
  let id1 =
    match Scheduler.submit s ~key:"a" "a" with Scheduler.Enqueued id -> id | _ -> assert false
  in
  let id2 =
    match Scheduler.submit s ~key:"b" "b" with Scheduler.Enqueued id -> id | _ -> assert false
  in
  check Alcotest.bool "head of queue" true
    (Scheduler.status s id1 = Some (Scheduler.Queued 0));
  check Alcotest.bool "one ahead" true (Scheduler.status s id2 = Some (Scheduler.Queued 1));
  check Alcotest.bool "unknown id" true (Scheduler.status s 999 = None);
  Scheduler.unpause s;
  let j1 = Option.get (Scheduler.next s) in
  check Alcotest.bool "running" true (Scheduler.status s id1 = Some Scheduler.Running);
  Scheduler.finish s j1 (Scheduler.Ok_r ());
  let j2 = Option.get (Scheduler.next s) in
  Scheduler.finish s j2 (Scheduler.Ok_r ())

(* ------------------------------------------------------------------ *)
(* Server end-to-end (real TCP)                                        *)
(* ------------------------------------------------------------------ *)

let submit_ok client ?priority ?deadline_ms source =
  match Client.submit client ?priority ?deadline_ms source with
  | Protocol.Accepted { id; coalesced; _ } -> (id, coalesced)
  | r ->
    Alcotest.failf "submit not accepted: %s" Protocol.(to_string (encode_response r))

let result_done client id =
  match Client.result client id with
  | Protocol.Result_r { state = Protocol.Done; design; digest; manifest; _ } ->
    (design, digest, manifest)
  | r ->
    Alcotest.failf "result not done: %s" Protocol.(to_string (encode_response r))

let test_serve_single_build () =
  with_server (fun _srv client ->
      check Alcotest.bool "ping" true (Client.ping client);
      let id, coalesced = submit_ok client (arch_source Graphs.Arch1) in
      check Alcotest.bool "first submit is fresh" false coalesced;
      let design, digest, manifest = result_done client id in
      check Alcotest.string "design name" "otsu_arch1" design;
      (* The served digest and manifest are exactly what a direct farm
         build of the same source produces. *)
      let direct = Farm.build_batch ~jobs:1 [ parsed_entry Graphs.Arch1 ] in
      let direct_digest =
        match direct.Farm.builds with
        | [ (_, b) ] -> Farm.build_digest b
        | _ -> Alcotest.fail "direct build failed"
      in
      check Alcotest.string "digest matches direct build" direct_digest digest;
      check Alcotest.string "manifest matches direct build"
        (Farm.manifest_json direct) manifest)

let test_serve_coalescing_concurrent () =
  with_server ~workers:2 (fun srv client ->
      Server.pause srv;
      let engine0 = Engine.invocation_count () in
      let source = arch_source Graphs.Arch1 in
      let ids =
        List.init 8 (fun i ->
            let id, coalesced = submit_ok client source in
            check Alcotest.bool
              (Printf.sprintf "submission %d coalesces iff not first" i)
              (i > 0) coalesced;
            id)
      in
      Server.unpause srv;
      let results = List.map (fun id -> result_done client id) ids in
      (match results with
      | [] -> Alcotest.fail "no results"
      | (_, digest0, manifest0) :: rest ->
        List.iteri
          (fun i (_, digest, manifest) ->
            check Alcotest.string (Printf.sprintf "digest %d identical" (i + 1))
              digest0 digest;
            check Alcotest.string (Printf.sprintf "manifest %d identical" (i + 1))
              manifest0 manifest)
          rest);
      (* 8 requests, 1 job, 1 distinct kernel: exactly one real HLS run. *)
      check Alcotest.int "exactly one HLS engine run" 1
        (Engine.invocation_count () - engine0);
      let s = Client.stats client in
      check Alcotest.int "submitted" 8 s.Protocol.submitted;
      check Alcotest.int "coalesced" 7 s.Protocol.coalesced;
      check Alcotest.int "completed" 8 s.Protocol.completed;
      check Alcotest.int "engine runs in stats" 1 s.Protocol.engine_runs;
      check Alcotest.int "latency observed per request" 8 s.Protocol.lat_count;
      check Alcotest.bool "p50 <= p95 <= p99" true
        (s.Protocol.lat_p50_ms <= s.Protocol.lat_p95_ms
        && s.Protocol.lat_p95_ms <= s.Protocol.lat_p99_ms
        && s.Protocol.lat_p50_ms > 0.0))

let test_serve_mixed_batch_dedup () =
  with_server ~workers:2 (fun srv client ->
      Server.pause srv;
      (* 4 distinct archs, then every one again: only true duplicates
         coalesce. *)
      let sources = List.map arch_source Graphs.all_archs in
      let fresh = List.map (fun s -> submit_ok client s) sources in
      let dups = List.map (fun s -> submit_ok client s) sources in
      List.iter
        (fun (_, coalesced) -> check Alcotest.bool "fresh arch enqueued" false coalesced)
        fresh;
      List.iter
        (fun (_, coalesced) -> check Alcotest.bool "repeat arch coalesced" true coalesced)
        dups;
      Server.unpause srv;
      List.iter2
        (fun (id_f, _) (id_d, _) ->
          let _, digest_f, manifest_f = result_done client id_f in
          let _, digest_d, manifest_d = result_done client id_d in
          check Alcotest.string "dup digest identical" digest_f digest_d;
          check Alcotest.string "dup manifest identical" manifest_f manifest_d)
        fresh dups;
      let s = Client.stats client in
      check Alcotest.int "4 of 8 coalesced" 4 s.Protocol.coalesced;
      check Alcotest.int "all 8 completed" 8 s.Protocol.completed)

let test_serve_queue_overflow () =
  with_server ~workers:1 ~queue_cap:2 (fun srv client ->
      Server.pause srv;
      ignore (submit_ok client (arch_source Graphs.Arch1));
      ignore (submit_ok client (arch_source Graphs.Arch2));
      (* Third distinct design: structured rejection, not a hang. *)
      (match Client.submit client (arch_source Graphs.Arch3) with
      | Protocol.Rejected { reason = Protocol.Queue_full; detail; _ } ->
        check Alcotest.bool "detail names the cap" true
          (String.length detail > 0)
      | r ->
        Alcotest.failf "expected Queue_full, got %s"
          Protocol.(to_string (encode_response r)));
      (* A duplicate of a queued design still coalesces past the cap. *)
      let _, coalesced = submit_ok client (arch_source Graphs.Arch1) in
      check Alcotest.bool "coalescing bypasses the cap" true coalesced;
      Server.unpause srv;
      let s = Client.stats client in
      check Alcotest.int "rejection counted" 1 s.Protocol.rejected_queue)

let test_serve_deadline_expiry () =
  with_server ~workers:1 (fun srv client ->
      Server.pause srv;
      let engine0 = Engine.invocation_count () in
      let id, _ = submit_ok client ~deadline_ms:1 (arch_source Graphs.Arch1) in
      Unix.sleepf 0.05;
      Server.unpause srv;
      (match Client.result client id with
      | Protocol.Result_r { state = Protocol.Expired; _ } -> ()
      | r ->
        Alcotest.failf "expected Expired, got %s"
          Protocol.(to_string (encode_response r)));
      check Alcotest.int "no engine work for an expired request" 0
        (Engine.invocation_count () - engine0);
      check Alcotest.int "expired counted" 1 (Client.stats client).Protocol.expired)

let test_serve_check_gate () =
  with_server (fun _srv client ->
      (match Client.submit client "this is not a design" with
      | Protocol.Rejected { reason = Protocol.Parse_failed; diags; _ } ->
        check Alcotest.bool "SOC000 diag travels" true
          (List.exists (fun (d : Diag.t) -> d.Diag.code = "SOC000") diags)
      | r ->
        Alcotest.failf "expected Parse_failed, got %s"
          Protocol.(to_string (encode_response r)));
      (* Parses, but the analyzer finds a structural error (duplicate
         node name, SOC001): rejected with the diagnostics attached. *)
      let bad =
        "object bad extends App {\n  tg nodes;\n    tg node \"A\" is \"p\" end;\n\
        \    tg node \"A\" is \"q\" end;\n  tg end_nodes;\n  tg edges;\n\
        \    tg link 'soc to (\"A\", \"p\") end;\n  tg end_edges;\n}"
      in
      (match Client.submit client bad with
      | Protocol.Rejected { reason = Protocol.Check_failed; diags; _ } ->
        check Alcotest.bool "SOC001 diag travels" true
          (List.exists (fun (d : Diag.t) -> d.Diag.code = "SOC001") diags)
      | r ->
        Alcotest.failf "expected Check_failed, got %s"
          Protocol.(to_string (encode_response r)));
      let s = Client.stats client in
      check Alcotest.int "check rejections counted" 2 s.Protocol.rejected_check;
      check Alcotest.int "nothing admitted" 0 s.Protocol.submitted)

let test_serve_rejects_unknown_kernel () =
  (* A node with no kernel in the daemon's library is SOC020 at
     admission. The analyzer sees the whole library; narrowed to the
     spec's node names it would be empty here and skip the check. *)
  let source =
    In_channel.with_open_bin "../examples/broken/unknown_kernel.tg" In_channel.input_all
  in
  with_server (fun _srv client ->
      (match Client.submit client source with
      | Protocol.Rejected { reason = Protocol.Check_failed; diags; _ } ->
        check Alcotest.bool "SOC020 diag travels" true
          (List.exists (fun (d : Diag.t) -> d.Diag.code = "SOC020") diags)
      | r ->
        Alcotest.failf "expected Check_failed, got %s"
          Protocol.(to_string (encode_response r)));
      check Alcotest.int "nothing admitted" 0 (Client.stats client).Protocol.submitted)

let test_serve_status_and_errors () =
  with_server (fun srv client ->
      (match Client.status client 424242 with
      | Protocol.Error_r _ -> ()
      | r ->
        Alcotest.failf "expected Error_r, got %s"
          Protocol.(to_string (encode_response r)));
      Server.pause srv;
      let id, _ = submit_ok client (arch_source Graphs.Arch1) in
      (match Client.status client id with
      | Protocol.Status_r { state = Protocol.Queued 0; _ } -> ()
      | r ->
        Alcotest.failf "expected Queued 0, got %s"
          Protocol.(to_string (encode_response r)));
      Server.unpause srv;
      ignore (result_done client id);
      match Client.status client id with
      | Protocol.Status_r { state = Protocol.Done; _ } -> ()
      | r ->
        Alcotest.failf "expected Done, got %s" Protocol.(to_string (encode_response r)))

let test_serve_drain () =
  with_server (fun srv client ->
      let id, _ = submit_ok client (arch_source Graphs.Arch1) in
      ignore (result_done client id);
      let completed, failed = Client.drain client in
      check Alcotest.int "drained completed" 1 completed;
      check Alcotest.int "drained failed" 0 failed;
      (* Post-drain submissions are refused, not queued. *)
      (match Client.submit client (arch_source Graphs.Arch2) with
      | Protocol.Rejected { reason = Protocol.Draining; _ } -> ()
      | r ->
        Alcotest.failf "expected Draining, got %s"
          Protocol.(to_string (encode_response r)));
      check Alcotest.bool "server observed the drain" true
        (Server.wait srv = `Drained (1, 0)))

(* The [Drained] reply must reach the client even when the daemon's
   owner stops the server as soon as [wait] returns, as [socdsl serve]
   does: the stop shuts every session socket, so the phase change that
   ends [wait] has to follow the reply onto the wire. The race window is
   narrow, so the drain is repeated on fresh servers. *)
let test_serve_drain_reply_survives_stop () =
  for _ = 1 to 200 do
    let srv = Server.start { Server.default_config with kernels = kernel_library () } in
    let owner =
      Thread.create
        (fun () ->
          ignore (Server.wait srv);
          Server.stop srv)
        ()
    in
    let client = Client.connect ~port:(Server.port srv) () in
    let drained = try Some (Client.drain client) with _ -> None in
    Client.close client;
    Thread.join owner;
    check
      Alcotest.(option (pair int int))
      "drain reply delivered" (Some (0, 0)) drained
  done

let test_serve_kill_and_restart () =
  let dir = fresh_dir "socserve" in
  (* Phase 1: armed crash point fires inside the build, after HLS
     committed (synth is downstream of every hls job). *)
  let engine0 = Engine.invocation_count () in
  with_server ~workers:1 ~cache_dir:dir ~kill:(Fault.Kill_at ("synth", 0))
    (fun srv client ->
      let id, _ = submit_ok client (arch_source Graphs.Arch1) in
      (match Client.result client id with
      | Protocol.Result_r { state = Protocol.Failed reason; _ } ->
        check Alcotest.bool "failure names the kill" true
          (String.length reason > 0)
      | r ->
        Alcotest.failf "expected Failed, got %s"
          Protocol.(to_string (encode_response r)));
      check Alcotest.bool "server reports the crash point" true
        (Server.wait srv = `Killed ("synth", 0));
      (* A dead server admits nothing. *)
      match Client.submit client (arch_source Graphs.Arch1) with
      | Protocol.Rejected { reason = Protocol.Server_killed; _ } -> ()
      | r ->
        Alcotest.failf "expected Server_killed, got %s"
          Protocol.(to_string (encode_response r)));
  let hls_runs_before_kill = Engine.invocation_count () - engine0 in
  check Alcotest.int "HLS committed before the crash" 1 hls_runs_before_kill;
  (* Phase 2: a fresh daemon on the same cache dir — startup fsck, journal
     resume, disk-cache reuse. The rebuilt design is byte-identical to an
     uninterrupted build and repeats zero HLS work. *)
  let reference = Farm.build_batch ~jobs:1 [ parsed_entry Graphs.Arch1 ] in
  let reference_digest =
    match reference.Farm.builds with
    | [ (_, b) ] -> Farm.build_digest b
    | _ -> Alcotest.fail "reference build failed"
  in
  let engine1 = Engine.invocation_count () in
  with_server ~workers:1 ~cache_dir:dir (fun _srv client ->
      let id, _ = submit_ok client (arch_source Graphs.Arch1) in
      let _, digest, manifest = result_done client id in
      check Alcotest.string "recovered digest identical to uninterrupted build"
        reference_digest digest;
      check Alcotest.string "recovered manifest identical"
        (Farm.manifest_json reference) manifest;
      let s = Client.stats client in
      check Alcotest.int "zero repeated HLS after restart" 0 s.Protocol.engine_runs;
      check Alcotest.bool "artifact came from the disk cache" true
        (s.Protocol.cache_disk_hits >= 1));
  check Alcotest.int "no engine work in the restarted server" 0
    (Engine.invocation_count () - engine1)

let test_serve_warm_cache_hit_rate () =
  with_server ~workers:1 (fun _srv client ->
      let id1, _ = submit_ok client (arch_source Graphs.Arch1) in
      ignore (result_done client id1);
      (* Same design again after the first finished: no coalescing (the
         job is gone), but the shared cache absorbs the HLS work. *)
      let engine0 = Engine.invocation_count () in
      let id2, coalesced = submit_ok client (arch_source Graphs.Arch1) in
      check Alcotest.bool "sequential repeat is not coalesced" false coalesced;
      let _, d1, _ = result_done client id1 in
      let _, d2, _ = result_done client id2 in
      check Alcotest.string "warm rebuild bit-identical" d1 d2;
      check Alcotest.int "warm rebuild runs no engine" 0
        (Engine.invocation_count () - engine0);
      let s = Client.stats client in
      check Alcotest.bool "hit rate reflects the warm build" true
        (s.Protocol.hit_rate > 0.0 && s.Protocol.cache_hits >= 1))

(* ------------------------------------------------------------------ *)
(* Self-healing: breaker, supervision, watchdog, degradation           *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_breaker_unit () =
  let now = ref 0.0 in
  let b = Breaker.create ~clock:(fun () -> !now) ~threshold:2 ~cooldown_ms:1000 () in
  check Alcotest.bool "closed admits" true (Breaker.check b "k" = Breaker.Admit);
  Breaker.record b "k" ~ok:false;
  check Alcotest.bool "one failure still admits" true (Breaker.check b "k" = Breaker.Admit);
  Breaker.record b "k" ~ok:false;
  (match Breaker.check b "k" with
  | Breaker.Reject remaining ->
    check Alcotest.bool "cooldown remaining reported" true (remaining > 0.0)
  | _ -> Alcotest.fail "expected Reject at the threshold");
  check Alcotest.int "one open key" 1 (Breaker.open_keys b);
  check Alcotest.int "one trip" 1 (Breaker.trips b);
  check Alcotest.bool "other keys unaffected" true (Breaker.check b "other" = Breaker.Admit);
  now := 1.5;
  check Alcotest.bool "past cooldown: half-open probe" true
    (Breaker.check b "k" = Breaker.Probe);
  check Alcotest.bool "probe in flight: reject until its lease ends" true
    (Breaker.check b "k" = Breaker.Reject 1.0);
  Breaker.record b "k" ~ok:false;
  (match Breaker.check b "k" with
  | Breaker.Reject _ -> ()
  | _ -> Alcotest.fail "failed probe must reopen");
  check Alcotest.int "reopen counted as a trip" 2 (Breaker.trips b);
  now := 3.0;
  check Alcotest.bool "second probe offered" true (Breaker.check b "k" = Breaker.Probe);
  Breaker.record b "k" ~ok:true;
  check Alcotest.bool "successful probe closes" true (Breaker.check b "k" = Breaker.Admit);
  check Alcotest.int "no open keys after recovery" 0 (Breaker.open_keys b);
  (* Intermittent flakiness never trips: success resets the count. *)
  Breaker.record b "f" ~ok:false;
  Breaker.record b "f" ~ok:true;
  Breaker.record b "f" ~ok:false;
  check Alcotest.bool "alternating outcomes stay closed" true
    (Breaker.check b "f" = Breaker.Admit);
  (* threshold <= 0 disables the breaker entirely. *)
  let off = Breaker.create ~threshold:0 ~cooldown_ms:10 () in
  Breaker.record off "x" ~ok:false;
  Breaker.record off "x" ~ok:false;
  check Alcotest.bool "disabled breaker always admits" true
    (Breaker.check off "x" = Breaker.Admit)

(* A probe that never reports (refused at admission, or expired in the
   queue before any work) must not poison its key until restart: one
   cooldown after it was issued it counts as lost and a new probe goes
   out. *)
let test_breaker_lost_probe () =
  let now = ref 0.0 in
  let b = Breaker.create ~clock:(fun () -> !now) ~threshold:1 ~cooldown_ms:1000 () in
  Breaker.record b "k" ~ok:false;
  now := 1.0;
  check Alcotest.bool "cooldown over: probe" true (Breaker.check b "k" = Breaker.Probe);
  now := 1.5;
  check Alcotest.bool "probe still in flight: retry when its lease ends" true
    (Breaker.check b "k" = Breaker.Reject 0.5);
  now := 2.0;
  check Alcotest.bool "unreported probe is lost: new probe" true
    (Breaker.check b "k" = Breaker.Probe);
  check Alcotest.int "a lost probe is not a trip" 1 (Breaker.trips b);
  Breaker.record b "k" ~ok:true;
  check Alcotest.bool "the new probe's success closes" true
    (Breaker.check b "k" = Breaker.Admit)

let test_sched_flush_queued () =
  let s = Scheduler.create ~queue_cap:10 () in
  let id1 =
    match Scheduler.submit s ~key:"a" "a" with Scheduler.Enqueued id -> id | _ -> assert false
  in
  let job = Option.get (Scheduler.next s) in
  let id2 =
    match Scheduler.submit s ~key:"b" "b" with Scheduler.Enqueued id -> id | _ -> assert false
  in
  let id3 =
    match Scheduler.submit s ~key:"c" "c" with Scheduler.Enqueued id -> id | _ -> assert false
  in
  check Alcotest.int "both queued jobs flushed" 2
    (Scheduler.flush_queued s ~reason:"pool dead");
  check Alcotest.bool "queued waiters failed, running job untouched" true
    (Scheduler.wait s id2 = Some (Scheduler.Failed "pool dead")
    && Scheduler.wait s id3 = Some (Scheduler.Failed "pool dead")
    && Scheduler.status s id1 = Some Scheduler.Running);
  (* try_finish: the first verdict lands, a late second one no-ops. *)
  check Alcotest.bool "watchdog verdict lands" true
    (Scheduler.try_finish s job Scheduler.Expired);
  check Alcotest.bool "late worker finish no-ops" false
    (Scheduler.try_finish s job (Scheduler.Ok_r "late"));
  check Alcotest.bool "expiry verdict sticks" true
    (Scheduler.wait s id1 = Some Scheduler.Expired)

let test_serve_batch_fault_contained () =
  with_faults (fun () ->
      with_server ~workers:2 (fun srv client ->
          (* An exception escaping Farm.build_batch fails the request,
             never the worker thread that ran it. *)
          Fault.Service.arm Fault.Service.Batch ~times:1
            (Fault.Service.Raise "boom in build_batch");
          let id, _ = submit_ok client (arch_source Graphs.Arch1) in
          (match Client.result client id with
          | Protocol.Result_r { state = Protocol.Failed reason; _ } ->
            check Alcotest.bool "failure names the injection" true
              (contains reason "internal error" && contains reason "boom in build_batch")
          | r ->
            Alcotest.failf "expected Failed, got %s"
              Protocol.(to_string (encode_response r)));
          check Alcotest.int "no worker died" 2 (Server.live_workers srv);
          check Alcotest.int "no restart burned" 0
            (Client.stats client).Protocol.worker_restarts;
          let id2, _ = submit_ok client (arch_source Graphs.Arch2) in
          ignore (result_done client id2)))

let test_serve_worker_crash_supervised () =
  with_faults (fun () ->
      with_server ~workers:2 (fun srv client ->
          (* A worker thread that dies outside the containment boundary:
             the held request fails, the supervisor spawns a replacement. *)
          Fault.Service.arm Fault.Service.Worker ~times:1
            (Fault.Service.Raise "thread down");
          let id, _ = submit_ok client (arch_source Graphs.Arch1) in
          (match Client.result client id with
          | Protocol.Result_r { state = Protocol.Failed reason; _ } ->
            check Alcotest.bool "failure names the crashed worker" true
              (contains reason "crashed")
          | r ->
            Alcotest.failf "expected Failed, got %s"
              Protocol.(to_string (encode_response r)));
          check Alcotest.bool "supervisor restores the pool" true
            (Tstr.eventually (fun () ->
                 Server.live_workers srv = 2
                 && (Server.stats srv).Protocol.worker_restarts >= 1));
          check Alcotest.bool "pool not degraded" false (Server.is_degraded srv);
          let id2, _ = submit_ok client (arch_source Graphs.Arch1) in
          ignore (result_done client id2)))

let test_serve_degraded_pool () =
  with_faults (fun () ->
      with_server ~workers:1 ~max_worker_restarts:0 (fun srv client ->
          Fault.Service.arm Fault.Service.Worker ~times:1
            (Fault.Service.Raise "thread down");
          let id, _ = submit_ok client (arch_source Graphs.Arch1) in
          (match Client.result client id with
          | Protocol.Result_r { state = Protocol.Failed _; _ } -> ()
          | r ->
            Alcotest.failf "expected Failed, got %s"
              Protocol.(to_string (encode_response r)));
          (* Zero restart budget: the dead worker is not replaced and the
             pool is declared degraded. *)
          check Alcotest.bool "pool declared degraded" true
            (Tstr.eventually (fun () -> Server.is_degraded srv));
          check Alcotest.int "no live workers left" 0 (Server.live_workers srv);
          check Alcotest.bool "stats carry the flag" true
            (Server.stats srv).Protocol.degraded;
          (* Admission refuses outright rather than queueing into the void. *)
          match Client.submit client (arch_source Graphs.Arch2) with
          | Protocol.Rejected { reason = Protocol.Degraded; _ } -> ()
          | r ->
            Alcotest.failf "expected Degraded, got %s"
              Protocol.(to_string (encode_response r))))

let test_serve_watchdog_expires_wedged_build () =
  with_faults (fun () ->
      let now = ref 0.0 in
      with_server ~workers:1 ~clock:(fun () -> !now) (fun srv client ->
          (* The build wedges inside HLS; its 100 ms deadline passes on
             the fake clock; the watchdog must expire it and replace the
             wedged worker without waiting out the hang. *)
          Fault.Service.arm Fault.Service.Hls ~times:1 (Fault.Service.Hang 30.0);
          let id, _ = submit_ok client ~deadline_ms:100 (arch_source Graphs.Arch1) in
          check Alcotest.bool "build wedged in flight" true
            (Tstr.eventually (fun () -> (Server.stats srv).Protocol.running = 1));
          now := 1.0;
          (match Client.result client id with
          | Protocol.Result_r { state = Protocol.Expired; _ } -> ()
          | r ->
            Alcotest.failf "expected Expired, got %s"
              Protocol.(to_string (encode_response r)));
          check Alcotest.int "watchdog fire counted" 1
            (Server.stats srv).Protocol.watchdog_fires;
          Fault.Service.release_hangs ();
          check Alcotest.bool "replacement restores the pool" true
            (Tstr.eventually (fun () ->
                 Server.live_workers srv = 1
                 && (Server.stats srv).Protocol.worker_restarts >= 1));
          let id2, _ = submit_ok client (arch_source Graphs.Arch2) in
          ignore (result_done client id2)))

let test_serve_poison_breaker () =
  with_faults (fun () ->
      let now = ref 0.0 in
      with_server ~workers:1 ~breaker_threshold:2 ~breaker_cooldown_ms:1000
        ~clock:(fun () -> !now) (fun _srv client ->
          Fault.Service.arm Fault.Service.Hls (Fault.Service.Raise "poison");
          let fail_once () =
            let id, _ = submit_ok client (arch_source Graphs.Arch1) in
            match Client.result client id with
            | Protocol.Result_r { state = Protocol.Failed _; _ } -> ()
            | r ->
              Alcotest.failf "expected Failed, got %s"
                Protocol.(to_string (encode_response r))
          in
          fail_once ();
          fail_once ();
          (* Threshold reached: the key is rejected without burning a
             worker on a build known to die. *)
          (match Client.submit client (arch_source Graphs.Arch1) with
          | Protocol.Rejected { reason = Protocol.Poisoned; detail; _ } ->
            check Alcotest.bool "detail explains the breaker" true
              (String.length detail > 0)
          | r ->
            Alcotest.failf "expected Poisoned, got %s"
              Protocol.(to_string (encode_response r)));
          let s = Client.stats client in
          check Alcotest.int "poisoned rejection counted" 1 s.Protocol.rejected_poisoned;
          check Alcotest.int "breaker open in stats" 1 s.Protocol.breaker_open_keys;
          (* Cooldown elapses (fake clock) and the poison is cured: the
             half-open probe succeeds and closes the breaker. *)
          Fault.Service.disarm Fault.Service.Hls;
          now := 2.0;
          let id, _ = submit_ok client (arch_source Graphs.Arch1) in
          ignore (result_done client id);
          check Alcotest.int "probe success closes the breaker" 0
            (Client.stats client).Protocol.breaker_open_keys))

(* A small streamed RTL sweep: the one daemon request that co-simulates,
   so the one that instantiates compiled simulators. *)
let explore_frontier client =
  let req =
    Protocol.Explore
      { strategy = "random"; seed = 5; budget_pct = 100; population = 8;
        generations = 4; samples = 4; width = 8; height = 8 }
  in
  match Client.explore client ~on_update:ignore req with
  | Protocol.Explore_r { frontier; _ } -> frontier
  | r -> Alcotest.failf "explore failed: %s" Protocol.(to_string (encode_response r))

let clean_frontier = lazy (with_faults (fun () -> with_server ~workers:1 (fun _ c -> explore_frontier c)))

(* Run the sweep with a compiled-simulation fault armed by [arm], on an
   empty program table so that the sweep has to lower its netlists. *)
let faulted_sweep arm =
  let clean = Lazy.force clean_frontier in
  with_faults (fun () ->
      with_server ~workers:1 (fun _srv client ->
          Cengine.clear_degraded ();
          Soc_rtl_compile.Csim.clear_programs ();
          arm ();
          let frontier = explore_frontier client in
          check Alcotest.string "frontier identical to the unfaulted sweep" clean frontier;
          Client.stats client))

let test_serve_sim_fallback () =
  (* A compiled-tape lowering failure mid-sweep degrades that netlist to
     the interpreter; the sweep still finds the same frontier. *)
  let s =
    faulted_sweep (fun () ->
        Fault.Service.arm Fault.Service.Csim ~times:1 (Fault.Service.Raise "lowering dies"))
  in
  check Alcotest.bool "fallback surfaces in stats" true (s.Protocol.sim_fallbacks >= 1)

let test_serve_corrupt_tape_rejected () =
  (* A miscompiled tape (injected corruption after lowering) is rejected
     by the translation validator, the engine degrades that netlist to
     the interpreter, and the sweep's frontier is byte-identical to an
     uncorrupted one, because the backend choice never leaks into the
     results. *)
  let s = faulted_sweep (fun () -> Fault.Service.arm_corrupt_tape ~times:1 ~seed:11 ()) in
  check Alcotest.bool "verifier rejection surfaces in stats" true
    (s.Protocol.rtl_verify_rejects >= 1);
  check Alcotest.bool "interpreter fallback surfaces in stats" true
    (s.Protocol.sim_fallbacks >= 1)

let test_serve_session_cap () =
  with_server ~max_sessions:1 (fun srv client ->
      check Alcotest.bool "the one admitted session works" true (Client.ping client);
      let refused =
        match Client.connect ~port:(Server.port srv) () with
        | exception Client.Error _ -> true
        | c2 ->
          let r =
            match Client.rpc c2 Protocol.Ping with
            | Protocol.Error_r _ -> true
            | exception Client.Error _ -> true
            | _ -> false
          in
          Client.close c2;
          r
      in
      check Alcotest.bool "over-cap connection refused" true refused;
      check Alcotest.bool "original session unharmed" true (Client.ping client);
      check Alcotest.int "cap never exceeded" 1 (Server.session_count srv))

let test_serve_idle_session_timeout () =
  with_server ~idle_session_timeout_ms:100 (fun srv client ->
      check Alcotest.bool "fresh session answers" true (Client.ping client);
      Unix.sleepf 0.5;
      let dropped =
        match Client.ping client with exception Client.Error _ -> true | ok -> not ok
      in
      check Alcotest.bool "idle session dropped" true dropped;
      check Alcotest.bool "session slot reclaimed" true
        (Tstr.eventually (fun () -> Server.session_count srv = 0));
      let c2 = Client.connect ~port:(Server.port srv) () in
      Fun.protect
        ~finally:(fun () -> Client.close c2)
        (fun () -> check Alcotest.bool "fresh connection serves" true (Client.ping c2)))

let test_serve_wire_fuzz () =
  with_server ~workers:1 (fun srv client ->
      let rng = Random.State.make [| 0xC0FFEE |] in
      let attack i =
        let fd = Tstr.raw_connect (Server.port srv) in
        (match i mod 5 with
        | 0 ->
          (* random garbage bytes *)
          let n = 1 + Random.State.int rng 64 in
          Tstr.raw_send fd (String.init n (fun _ -> Char.chr (Random.State.int rng 256)))
        | 1 ->
          (* absurd length prefix *)
          Tstr.raw_send fd "\x7f\xff\xff\xffjunk"
        | 2 ->
          (* truncated frame: header promises bytes that never come *)
          let hdr = Bytes.create 4 in
          Bytes.set_int32_be hdr 0 (Int32.of_int (64 + Random.State.int rng 1000));
          Tstr.raw_send fd (Bytes.to_string hdr ^ "abc")
        | 3 -> () (* connect-and-vanish *)
        | _ ->
          (* well-framed payload that is not JSON *)
          Tstr.raw_send fd
            (Protocol.frame
               (String.init (Random.State.int rng 32) (fun _ ->
                    Char.chr (32 + Random.State.int rng 95)))));
        Tstr.raw_close fd
      in
      for i = 0 to 59 do
        attack i;
        if i mod 10 = 9 then
          check Alcotest.bool (Printf.sprintf "daemon answers after attack %d" i) true
            (Client.ping client)
      done;
      check Alcotest.bool "abusive sessions all reaped" true
        (Tstr.eventually (fun () -> Server.session_count srv = 1));
      (* Still a fully functional daemon, not merely a responsive one. *)
      let id, _ = submit_ok client (arch_source Graphs.Arch1) in
      ignore (result_done client id))

(* Sequential round trips on one persistent connection must not stall
   on the transport: a frame whose header and payload left in separate
   writes waited out the peer's delayed ACK (~40 ms each way). *)
let test_serve_ping_round_trips () =
  with_server (fun _srv client ->
      let t0 = Unix.gettimeofday () in
      for _ = 1 to 50 do
        check Alcotest.bool "ping" true (Client.ping client)
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt >= 1.0 then Alcotest.failf "50 pings took %.3f s (bound 1 s)" dt)

let suite =
  [
    ("protocol json roundtrip", `Quick, test_json_roundtrip);
    ("protocol json escapes", `Quick, test_json_escapes);
    ("protocol json parse errors", `Quick, test_json_parse_errors);
    ("protocol framing roundtrip", `Quick, test_framing_roundtrip);
    ("protocol framing torn payload", `Quick, test_framing_torn_payload);
    ("protocol framing oversize", `Quick, test_framing_oversize);
    ("protocol request roundtrip", `Quick, test_request_roundtrip);
    ("protocol response roundtrip", `Quick, test_response_roundtrip);
    ("protocol diag json roundtrip", `Quick, test_diag_json_roundtrip);
    ("scheduler priority + FIFO", `Quick, test_sched_priority_fifo);
    ("scheduler coalescing", `Quick, test_sched_coalescing);
    ("scheduler backpressure", `Quick, test_sched_backpressure);
    ("scheduler deadline expiry", `Quick, test_sched_deadline_expiry);
    ("scheduler abort_all", `Quick, test_sched_abort_all);
    ("scheduler drain", `Quick, test_sched_drain);
    ("scheduler status positions", `Quick, test_sched_status_positions);
    ("serve: single build over TCP", `Quick, test_serve_single_build);
    ("serve: 8 identical submissions, 1 HLS run", `Quick, test_serve_coalescing_concurrent);
    ("serve: mixed batch dedups only duplicates", `Quick, test_serve_mixed_batch_dedup);
    ("serve: queue overflow is a structured rejection", `Quick, test_serve_queue_overflow);
    ("serve: past-deadline request expires without work", `Quick, test_serve_deadline_expiry);
    ("serve: parse/check gate rejects with diagnostics", `Quick, test_serve_check_gate);
    ("serve: unknown kernel rejected as SOC020", `Quick, test_serve_rejects_unknown_kernel);
    ("serve: status transitions and unknown ids", `Quick, test_serve_status_and_errors);
    ("serve: drain stops admission and reports", `Quick, test_serve_drain);
    ("serve: kill + restart recovers byte-identically", `Quick, test_serve_kill_and_restart);
    ("serve: warm cache absorbs repeat builds", `Quick, test_serve_warm_cache_hit_rate);
    ("breaker: trip, probe, close, disable", `Quick, test_breaker_unit);
    ("scheduler flush_queued + try_finish", `Quick, test_sched_flush_queued);
    ("serve: build fault contained, worker survives", `Quick, test_serve_batch_fault_contained);
    ("serve: dead worker replaced by supervisor", `Quick, test_serve_worker_crash_supervised);
    ("serve: exhausted restart budget degrades the pool", `Quick, test_serve_degraded_pool);
    ("serve: watchdog expires a wedged build", `Quick, test_serve_watchdog_expires_wedged_build);
    ("serve: poison pill opens the breaker, probe closes it", `Quick, test_serve_poison_breaker);
    ("serve: compiled-sim failure degrades to interpreter", `Quick, test_serve_sim_fallback);
    ("serve: corrupt tape rejected by the verifier, build identical", `Quick,
     test_serve_corrupt_tape_rejected);
    ("serve: session cap refuses politely", `Quick, test_serve_session_cap);
    ("serve: idle sessions reaped", `Quick, test_serve_idle_session_timeout);
    ("serve: wire abuse never takes the daemon down", `Quick, test_serve_wire_fuzz);
    ("serve: 50 pings on one connection stay fast", `Quick, test_serve_ping_round_trips);
    qtest prop_json_roundtrip;
    ("serve: drain reply survives an immediate stop", `Quick,
     test_serve_drain_reply_survives_stop);
    ("breaker: an unreported probe is reissued", `Quick, test_breaker_lost_probe);
  ]
