(* The remote build worker: one `socdsl serve --worker` daemon.

   A worker is the dumb end of the fleet — it owns no queue, no journal
   and no supervision ladder; it parses the source a coordinator hands
   it, runs [Farm.build_batch ~jobs:1] against its (usually shared)
   content-addressed cache and answers with the build artifacts. All the
   retry/hedge/failover intelligence lives in {!Coordinator}; what the
   worker guarantees is *idempotency*: builds are keyed by the
   coalescing key the coordinator supplies, a duplicate [Build] for a
   key already in flight attaches to the running build instead of
   re-dispatching it, and finished work is served from the farm cache,
   so the coordinator may re-send, race or abandon requests freely
   without ever repeating HLS.

   The worker deliberately opens no write-ahead journal: several worker
   processes may share one cache directory, and the journal format is
   single-writer. Crash safety comes from the cache's atomic temp+rename
   commits alone — a worker killed mid-build loses only in-flight work,
   which the coordinator re-dispatches elsewhere.

   Cancellation: [Cancel key] flips the cancel flag of the in-flight
   build for [key]; the build notices at the next injected-hang poll
   ({!Soc_fault.Fault.Service.with_cancel}) and aborts with a [Failed
   "cancelled"] answer to any attached waiters. A build that never hits
   an injection point simply runs to completion and warms the cache —
   harmless, because results are content-addressed.

   Replies are written with the worker's ["wk:<id>"] net-fault link, so
   a chaos campaign can one-way-partition a worker (it hears requests;
   its answers vanish) without touching the worker's code. *)

module Protocol = Protocol
module Fault = Soc_fault.Fault
module Farm = Soc_farm.Farm

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  cache_dir : string option;
  cache_max_mb : int option;
  kernels : (string * Soc_kernel.Ast.kernel) list;
  max_frame : int;
  worker_id : string;  (** label in hello replies and net-fault links *)
}

let default_config =
  { host = "127.0.0.1"; port = 0; cache_dir = None; cache_max_mb = None;
    kernels = []; max_frame = Protocol.max_frame_default; worker_id = "worker" }

(* One in-flight build; owned by [t.lock]. The record outlives its
   registry entry: waiters hold the record and read [result] off it
   after the builder removed the key. *)
type inflight = {
  mutable cancelled : bool;
  mutable result : Protocol.response option;
}

type session_rec = {
  sid : int;
  sfd : Unix.file_descr;
  mutable sthread : Thread.t option;
}

type t = {
  cfg : config;
  listener : Unix.file_descr;
  bound_port : int;
  cache : Soc_farm.Cache.t;
  link : string;  (* net-fault label for every reply this worker writes *)
  builds_done : int Atomic.t;
  cancel_hits : int Atomic.t;
  lock : Mutex.t;
  cond : Condition.t;
  registry : (string, inflight) Hashtbl.t;
  mutable stopping : bool;
  mutable killed : bool;
  mutable sessions : session_rec list;
  mutable next_sid : int;
  mutable accept_thread : Thread.t option;
}

let port t = t.bound_port
let worker_id t = t.cfg.worker_id
let builds_done t = Atomic.get t.builds_done
let cancel_hits t = Atomic.get t.cancel_hits

let in_flight t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.registry in
  Mutex.unlock t.lock;
  n

(* Run the build for [key], with attached-waiter idempotency: the first
   session to ask becomes the builder; concurrent duplicates block on
   the record until the builder publishes. The registry only holds
   in-flight work — completed results live in the farm cache, which
   answers re-sent requests without re-running anything. *)
let run_build t ~source ~key : Protocol.response =
  let fail reason =
    Protocol.Built_r
      { key; state = Protocol.Failed reason; design = ""; digest = ""; manifest = "";
        wall_ms = 0.0 }
  in
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.registry key with
  | Some inf ->
    (* Duplicate of a live build: attach, never re-dispatch. *)
    let rec await () =
      match inf.result with
      | Some r -> r
      | None ->
        Condition.wait t.cond t.lock;
        await ()
    in
    let r = await () in
    Mutex.unlock t.lock;
    r
  | None ->
    let inf = { cancelled = false; result = None } in
    Hashtbl.replace t.registry key inf;
    Mutex.unlock t.lock;
    let resp =
      match Soc_core.Parser.parse ~validate:false source with
      | exception Soc_core.Parser.Parse_error (msg, _, _)
      | exception Soc_core.Lexer.Lex_error (msg, _, _) -> fail ("parse: " ^ msg)
      | spec -> (
        let entry = Soc_farm.Jobgraph.entry_of ~library:t.cfg.kernels spec in
        let probe () =
          Mutex.lock t.lock;
          let c = inf.cancelled in
          Mutex.unlock t.lock;
          c
        in
        match
          Fault.Service.with_cancel probe (fun () ->
              Farm.build_batch ~jobs:1 ~cache:t.cache [ entry ])
        with
        | exception Fault.Service.Cancelled -> fail "cancelled"
        | exception e -> fail ("internal error: " ^ Printexc.to_string e)
        | report -> (
          match report.Farm.builds with
          | [ (_, b) ] ->
            Atomic.incr t.builds_done;
            Protocol.Built_r
              { key; state = Protocol.Done;
                design = b.Soc_core.Flow.spec.Soc_core.Spec.design_name;
                digest = Farm.build_digest b;
                manifest = Farm.manifest_json report;
                wall_ms = 1000.0 *. report.Farm.stats.Farm.wall_seconds }
          | _ ->
            fail
              (match report.Farm.failures with
              | f :: _ -> Format.asprintf "%a" Soc_farm.Pool.pp_failure f
              | [] -> "build produced no artifact")))
    in
    Mutex.lock t.lock;
    inf.result <- Some resp;
    Hashtbl.remove t.registry key;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    resp

let cancel t ~key : Protocol.response =
  Mutex.lock t.lock;
  let was_running =
    match Hashtbl.find_opt t.registry key with
    | Some inf ->
      inf.cancelled <- true;
      true
    | None -> false
  in
  Mutex.unlock t.lock;
  if was_running then Atomic.incr t.cancel_hits;
  Protocol.Cancelled_r { key; was_running }

let handle t (req : Protocol.request) : Protocol.response =
  match req with
  | Protocol.Hello { version; peer = _ } ->
    if version < Protocol.min_protocol_version then
      Protocol.Rejected
        { reason = Protocol.Version_skew;
          detail =
            Printf.sprintf "peer speaks protocol %d; this worker requires >= %d"
              version Protocol.min_protocol_version;
          diags = [] }
    else
      Protocol.Hello_r
        { version = min version Protocol.protocol_version;
          worker_id = t.cfg.worker_id }
  | Protocol.Heartbeat ->
    Protocol.Heartbeat_r { in_flight = in_flight t; builds_done = builds_done t }
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Build { source; key; deadline_ms = _ } -> run_build t ~source ~key
  | Protocol.Cancel { key } -> cancel t ~key
  | Protocol.Submit _ | Protocol.Status _ | Protocol.Result _ | Protocol.Stats
  | Protocol.Drain | Protocol.Explore _ ->
    Protocol.Error_r "not a coordinator: this daemon only speaks the worker protocol"

let session t sr =
  let fd = sr.sfd in
  let max_len = t.cfg.max_frame in
  let reply v = Protocol.send ~link:t.link ~max_len fd (Protocol.encode_response v) in
  let rec loop () =
    match Protocol.recv_checked ~max_len fd with
    | Ok None -> ()
    | Ok (Some j) ->
      (match Protocol.decode_request j with
      | Error msg -> reply (Protocol.Error_r msg)
      | Ok req -> reply (handle t req));
      loop ()
    | Error (Protocol.Oversized { announced; limit }) ->
      (* The payload was never read, so the stream cannot be resynced:
         explain, then hang up. *)
      reply
        (Protocol.Rejected
           { reason = Protocol.Frame_too_large;
             detail = Printf.sprintf "announced %d bytes; limit is %d" announced limit;
             diags = [] })
    | Error (Protocol.Torn _) -> ()
  in
  (try loop () with
  | Protocol.Framing_error _ | Protocol.Parse_error _ | Unix.Unix_error _ | Sys_error _
    -> ());
  Mutex.lock t.lock;
  t.sessions <- List.filter (fun s -> s.sid <> sr.sid) t.sessions;
  Mutex.unlock t.lock;
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listener with
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
      -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | fd, _ ->
      if t.stopping || t.killed then (try Unix.close fd with Unix.Unix_error _ -> ())
      else begin
        Mutex.lock t.lock;
        let sid = t.next_sid in
        t.next_sid <- sid + 1;
        let sr = { sid; sfd = fd; sthread = None } in
        t.sessions <- sr :: t.sessions;
        Mutex.unlock t.lock;
        sr.sthread <- Some (Thread.create (fun () -> session t sr) ())
      end;
      if not (t.stopping || t.killed) then loop ()
  in
  loop ()

let start (cfg : config) =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let cache =
    Soc_farm.Cache.create ?disk_dir:cfg.cache_dir ?max_mb:cfg.cache_max_mb ()
  in
  Soc_farm.Cache.enable_tape_cache cache;
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen listener 64
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let t =
    { cfg; listener; bound_port; cache; link = "wk:" ^ cfg.worker_id;
      builds_done = Atomic.make 0; cancel_hits = Atomic.make 0;
      lock = Mutex.create (); cond = Condition.create ();
      registry = Hashtbl.create 16; stopping = false; killed = false;
      sessions = []; next_sid = 0; accept_thread = None }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let poke_accept t =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string t.cfg.host, t.bound_port))
     with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* Simulated kill -9: no farewell frames, no draining. Sessions are shut
   down at the socket level (peers see EOF/torn frames mid-whatever);
   in-flight builds get their cancel flag so an injected hang aborts
   instead of wedging the thread. Session fds are shut down but not
   closed here — a thread may still be blocked in [read] on them, and
   the shutdown is what wakes it; the session body closes its own fd on
   the way out. *)
let kill t =
  Mutex.lock t.lock;
  t.killed <- true;
  let sessions = t.sessions in
  Hashtbl.iter (fun _ inf -> inf.cancelled <- true) t.registry;
  Mutex.unlock t.lock;
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  List.iter
    (fun sr -> try Unix.shutdown sr.sfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    sessions

let stop t =
  t.stopping <- true;
  Mutex.lock t.lock;
  Hashtbl.iter (fun _ inf -> inf.cancelled <- true) t.registry;
  Mutex.unlock t.lock;
  poke_accept t;
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  Mutex.lock t.lock;
  let sessions = t.sessions in
  Mutex.unlock t.lock;
  List.iter
    (fun sr -> try Unix.shutdown sr.sfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    sessions;
  List.iter (fun sr -> Option.iter Thread.join sr.sthread) sessions
