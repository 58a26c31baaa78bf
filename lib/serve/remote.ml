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

   The socket side is a {!Listener}, as for the serve daemon, but with
   no session cap and no idle timeout: the only peers are coordinators.
   Replies are written with the worker's ["wk:<id>"] net-fault link, so
   a chaos campaign can one-way-partition a worker (it hears requests;
   its answers vanish) without touching the worker's code. *)

module Protocol = Protocol
module Fault = Soc_fault.Fault

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

type t = {
  cfg : config;
  listener : Listener.t;
  cache : Soc_farm.Cache.t;
  link : string;  (* net-fault label for every reply this worker writes *)
  builds_done : int Atomic.t;
  cancel_hits : int Atomic.t;
  lock : Mutex.t;
  cond : Condition.t;
  registry : (string, inflight) Hashtbl.t;
}

let port t = Listener.port t.listener
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
              Coordinator.build_entry ~cache:t.cache entry)
        with
        | exception Fault.Service.Cancelled -> fail "cancelled"
        | Error reason -> fail reason
        | Ok b ->
          Atomic.incr t.builds_done;
          Protocol.Built_r
            { key; state = Protocol.Done; design = b.Coordinator.design;
              digest = b.Coordinator.digest; manifest = b.Coordinator.manifest;
              wall_ms = b.Coordinator.wall_ms })
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
    Protocol.hello_reply ~daemon:"worker" ~worker_id:t.cfg.worker_id version
  | Protocol.Heartbeat ->
    Protocol.Heartbeat_r { in_flight = in_flight t; builds_done = builds_done t }
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Build { source; key; deadline_ms = _ } -> run_build t ~source ~key
  | Protocol.Cancel { key } -> cancel t ~key
  | Protocol.Submit _ | Protocol.Status _ | Protocol.Result _ | Protocol.Stats
  | Protocol.Drain | Protocol.Explore _ ->
    Protocol.Error_r "not a coordinator: this daemon only speaks the worker protocol"

let start (cfg : config) =
  let cache =
    Soc_farm.Cache.create ?disk_dir:cfg.cache_dir ?max_mb:cfg.cache_max_mb ()
  in
  Soc_farm.Cache.enable_tape_cache cache;
  let t =
    { cfg; listener = Listener.bind ~host:cfg.host ~port:cfg.port; cache;
      link = "wk:" ^ cfg.worker_id; builds_done = Atomic.make 0;
      cancel_hits = Atomic.make 0; lock = Mutex.create (); cond = Condition.create ();
      registry = Hashtbl.create 16 }
  in
  Listener.serve ~link:t.link ~max_frame:cfg.max_frame t.listener (fun reply req ->
      reply (handle t req));
  t

(* Flag every in-flight build cancelled, so an injected hang aborts
   instead of wedging its thread. *)
let cancel_all t =
  Mutex.lock t.lock;
  Hashtbl.iter (fun _ inf -> inf.cancelled <- true) t.registry;
  Mutex.unlock t.lock

(* Simulated kill -9: no farewell frames, no draining. The port closes
   at once; sessions are shut down at the socket level, so peers see
   EOF or torn frames mid-whatever. *)
let kill t =
  Listener.kill t.listener;
  cancel_all t

let stop t =
  cancel_all t;
  Listener.stop t.listener
