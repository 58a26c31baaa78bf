(* The generation daemon: the whole flow — parse, static-analysis gate,
   crash-safe farm build — behind a TCP socket.

   Threading model: a {!Listener} (one accept thread, one systhread per
   connection, bounded by [max_sessions] and [idle_session_timeout_ms]),
   a fixed pool of worker threads pulling from the {!Scheduler}, and one
   supervisor thread watching all of it. Each worker runs its build
   through {!Coordinator.build_entry}: a [Farm.build_batch ~jobs:1] run
   inline on a domain spawned for that build, so total parallelism is
   [workers] builds in flight and no build holds the runtime lock of the
   daemon's own threads. Workers share one content-addressed cache and
   one write-ahead journal (both are internally locked; the journal's
   replay machinery ignores interleaved batch markers), so coalesced or
   repeated requests reuse HLS work across the daemon's whole lifetime
   and a kill at any instant is recoverable by restarting the daemon on
   the same cache directory.

   Self-healing: exceptions inside a build are contained (the request
   fails, the worker survives); an exception that nevertheless kills a
   worker thread leaves a death note for the supervisor, which replaces
   the thread under exponential backoff and a restart-intensity budget —
   past the budget the pool is declared degraded rather than thrashing.
   A watchdog expires in-flight builds stuck past their deadline (or the
   configured build timeout), unblocks their waiters, abandons the
   wedged worker and spawns a replacement. A per-key circuit breaker
   turns persistently failing specs (poison pills) into immediate
   [Poisoned] rejections until a cooldown probe proves them healthy. *)

module Protocol = Protocol
module Scheduler = Scheduler
module Breaker = Breaker
module Diag = Soc_util.Diag
module Fault = Soc_fault.Fault
module Histogram = Soc_util.Metrics.Histogram
module Cengine = Soc_rtl_compile.Engine

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  workers : int;
  queue_cap : int;
  default_deadline_ms : int option;
  cache_dir : string option;
  cache_max_mb : int option;
  kill : Fault.crash_point option;
  kernels : (string * Soc_kernel.Ast.kernel) list;
  clock : unit -> float;
  (* supervision *)
  breaker_threshold : int;  (** consecutive failures to open a key; <= 0 disables *)
  breaker_cooldown_ms : int;
  build_timeout_ms : int option;  (** per-build wall cap, independent of deadlines *)
  max_worker_restarts : int;  (** restart budget within [restart_window_ms] *)
  max_sessions : int;  (** concurrent connection cap *)
  idle_session_timeout_ms : int option;  (** drop sessions idle this long *)
  (* fleet *)
  fleet : (string * int) list;
      (** remote worker endpoints; non-empty turns this server into a
          coordinator that dispatches builds to the fleet and only
          builds locally as a fallback *)
  fleet_rpc_timeout_ms : int;  (** per-dispatch-attempt budget *)
}

let default_config =
  { host = "127.0.0.1"; port = 0; workers = 2; queue_cap = 64;
    default_deadline_ms = None; cache_dir = None; cache_max_mb = None;
    kill = None; kernels = [];
    clock = Unix.gettimeofday;
    breaker_threshold = 3; breaker_cooldown_ms = 30_000;
    build_timeout_ms = None;
    max_worker_restarts = 8; max_sessions = 64; idle_session_timeout_ms = None;
    fleet = []; fleet_rpc_timeout_ms = 60_000 }

(* The sliding window [max_worker_restarts] counts over, and the base of
   the exponential backoff before each replacement. *)
let restart_window_ms = 60_000
let restart_backoff_ms = 10

(* Slack past a build's limit before the watchdog fires, in seconds. *)
let watchdog_grace = 0.1

(* What a job carries; it yields a {!Coordinator.built}. [source] is the
   submitted DSL text verbatim: a remote worker must parse the *same
   bytes* the coordinator admitted, because parsing attaches source spans
   that participate in the build digest. *)
type payload = { entry : Soc_farm.Jobgraph.entry; source : string }

type phase = Serving | Drained of int * int | Killed of string * int

(* Worker pool records, owned by [t.lock]. [W_building] carries the job
   and its dispatch time (by [cfg.clock]) for the watchdog. An
   [abandoned] worker had its job expired out from under it: it may
   still be wedged in the build, so it is never joined and retires
   itself if the build ever returns. *)
type wstate =
  | W_idle
  | W_building of (payload, Coordinator.built) Scheduler.job * float
  | W_dead  (* thread crashed; death note filed *)
  | W_retired  (* thread exited cleanly *)

type worker = {
  wid : int;
  mutable wthread : Thread.t option;
  mutable wstate : wstate;
  mutable abandoned : bool;
}

type t = {
  cfg : config;
  listener : Listener.t;
  sched : (payload, Coordinator.built) Scheduler.t;
  cache : Soc_farm.Cache.t;
  journal : Soc_farm.Journal.t option;
  kill_slot : Fault.crash_point option Atomic.t;
  hist : Histogram.t;
  breaker : Breaker.t;
  started_at : float;
  engine_base : int;
  sim_base : int;
  verify_base : int;
  rejected_check : int Atomic.t;
  rejected_poisoned : int Atomic.t;
  worker_restarts : int Atomic.t;
  watchdog_fires : int Atomic.t;
  coord : Coordinator.t option;
  remote_fallbacks : int Atomic.t;
  startup_diags : Diag.t list;
  lock : Mutex.t;
  cond : Condition.t;
  mutable phase : phase;
  mutable stopping : bool;
  mutable workers : worker list;
  mutable next_wid : int;
  mutable death_notes : (worker * exn) list;
  mutable restart_times : float list;  (* sliding restart-intensity window *)
  mutable degraded : bool;
  mutable monitor_thread : Thread.t option;
}

let port t = Listener.port t.listener
let startup_diags t = t.startup_diags
let pause t = Scheduler.pause t.sched
let unpause t = Scheduler.unpause t.sched

let set_phase t p =
  Mutex.lock t.lock;
  (match t.phase with Serving -> t.phase <- p | _ -> ());
  Condition.broadcast t.cond;
  Mutex.unlock t.lock

let killed t =
  Mutex.lock t.lock;
  let k = match t.phase with Killed (s, k) -> Some (s, k) | _ -> None in
  Mutex.unlock t.lock;
  k

let live_workers_locked t =
  List.fold_left
    (fun n w ->
      match w.wstate with
      | (W_idle | W_building _) when not w.abandoned -> n + 1
      | _ -> n)
    0 t.workers

let live_workers t =
  Mutex.lock t.lock;
  let n = live_workers_locked t in
  Mutex.unlock t.lock;
  n

let is_degraded t =
  Mutex.lock t.lock;
  let d = t.degraded in
  Mutex.unlock t.lock;
  d

let session_count t = Listener.session_count t.listener

(* ---------------- admission ---------------- *)

(* The content key under which identical requests coalesce: the hash of
   the spec's canonical printed form — whitespace or comment differences
   in the submitted source do not defeat sharing. *)
let coalescing_key spec =
  Soc_farm.Chash.to_hex (Soc_farm.Chash.digest (Soc_core.Printer.to_source spec))

let admit t ~source ~priority ~deadline_ms : Protocol.response =
  let reject reason detail diags =
    Protocol.Rejected { reason; detail; diags }
  in
  match killed t with
  | Some (s, k) ->
    reject Protocol.Server_killed
      (Printf.sprintf "server killed at %s:%d; restart it on the same cache dir" s k)
      []
  | None ->
    if is_degraded t && live_workers t = 0 then
      reject Protocol.Degraded
        "worker pool exhausted its restart budget; restart the server" []
    else if Scheduler.draining t.sched then reject Protocol.Draining "server is draining" []
    else (
      match Soc_core.Parser.parse ~validate:false source with
      | exception Soc_core.Parser.Parse_error (msg, line, col)
      | exception Soc_core.Lexer.Lex_error (msg, line, col) ->
        Atomic.incr t.rejected_check;
        reject Protocol.Parse_failed msg
          [ Diag.error ~span:{ Diag.line; col } ~code:"SOC000" ~subject:"request" msg ]
      | spec ->
        (* The analyzer gets the whole library: it narrows to the spec's
           nodes itself, and an empty list would skip SOC020. *)
        let diags = Soc_analysis.Analyze.run ~kernels:t.cfg.kernels spec in
        if Diag.has_errors diags then begin
          Atomic.incr t.rejected_check;
          reject Protocol.Check_failed
            (Printf.sprintf "static analysis found %d error(s)" (Diag.error_count diags))
            diags
        end
        else
          let key = coalescing_key spec in
          match Breaker.check t.breaker key with
          | Breaker.Reject remaining ->
            Atomic.incr t.rejected_poisoned;
            reject Protocol.Poisoned
              (Printf.sprintf
                 "circuit breaker open for this spec (%d consecutive failures); retry in %.1fs"
                 t.cfg.breaker_threshold remaining)
              []
          | Breaker.Admit | Breaker.Probe -> (
            let entry = Soc_farm.Jobgraph.entry_of ~library:t.cfg.kernels spec in
            let payload = { entry; source } in
            let deadline_ms =
              match deadline_ms with Some _ as d -> d | None -> t.cfg.default_deadline_ms
            in
            match Scheduler.submit t.sched ~key ~priority ?deadline_ms payload with
            | Scheduler.Enqueued id -> Protocol.Accepted { id; key; coalesced = false; diags }
            | Scheduler.Coalesced id -> Protocol.Accepted { id; key; coalesced = true; diags }
            | Scheduler.Rejected_full ->
              if Scheduler.draining t.sched then
                reject Protocol.Draining "server is draining" []
              else
                reject Protocol.Queue_full
                  (Printf.sprintf "queue is at its cap of %d" t.cfg.queue_cap)
                  []))

(* ---------------- workers ---------------- *)

(* Land a build's verdict on [job]. The breaker is told only when this
   call is the one that landed it (a watchdog may have expired the job
   first). *)
let settle t job r =
  let outcome =
    match r with Ok built -> Scheduler.Ok_r built | Error reason -> Scheduler.Failed reason
  in
  if Scheduler.try_finish t.sched job outcome then
    Breaker.record t.breaker (Scheduler.job_key job) ~ok:(Result.is_ok r)

(* Run one build with full containment: only {!Fault.Killed} (the
   injected whole-process crash) escapes the normal flow, and even that
   is turned into an orderly phase change. Any other exception — engine
   bug, poisoned spec, planner crash — fails this request and leaves the
   worker healthy. *)
let build_local t job =
  (* The armed kill point is taken by exactly one build: the daemon dies
     once, like a process does. *)
  let kill = Atomic.exchange t.kill_slot None in
  let payload = Scheduler.job_payload job in
  match Coordinator.build_entry ~cache:t.cache ?journal:t.journal ?kill payload.entry with
  | exception Fault.Killed (s, k) ->
    set_phase t (Killed (s, k));
    (* Fail everything still live (the journal is sealed; committed work
       is on disk) and send the blocked workers home. *)
    Scheduler.abort_all t.sched
      ~reason:(Printf.sprintf "server killed at %s:%d" s k);
    `Killed
  | r ->
    settle t job r;
    `Ok

(* With a fleet configured, builds go to the coordinator first. A
   worker's [Build_failed] is authoritative — it still feeds the
   breaker, so a spec that kills remote workers is quarantined here
   rather than cascading through the fleet. Only fleet *exhaustion*
   (all endpoints down, every attempt failed on infrastructure) falls
   back to the local in-process build — requests survive total fleet
   loss at the cost of this box's own CPU. *)
let build_one t job =
  match t.coord with
  | None -> build_local t job
  | Some coord -> (
    let payload = Scheduler.job_payload job in
    let key = Scheduler.job_key job in
    match Coordinator.build coord ~source:payload.source ~key () with
    | Ok (Coordinator.Built built) ->
      settle t job (Ok built);
      `Ok
    | Ok (Coordinator.Build_failed reason) ->
      settle t job (Error reason);
      `Ok
    | Error _fleet_exhausted ->
      Atomic.incr t.remote_fallbacks;
      build_local t job)

let rec worker_loop t w =
  match Scheduler.next t.sched with
  | None -> ()
  | Some job ->
    Mutex.lock t.lock;
    w.wstate <- W_building (job, t.cfg.clock ());
    Mutex.unlock t.lock;
    (* Injected worker death fires here, outside containment: the
       exception escapes to [worker_main], which files a death note. *)
    Fault.Service.step Fault.Service.Worker ();
    let res = build_one t job in
    Mutex.lock t.lock;
    let abandoned = w.abandoned in
    w.wstate <- (if abandoned then W_retired else W_idle);
    Mutex.unlock t.lock;
    (* An abandoned worker's job was already expired by the watchdog and
       a replacement is on duty — retire instead of double-serving. *)
    if abandoned then () else match res with `Killed -> () | `Ok -> worker_loop t w

(* Thread body: anything that escapes [worker_loop] is a dead worker.
   Fail the job it held (waiters must never hang on a corpse) and leave
   a death note for the supervisor. *)
let worker_main t w =
  match worker_loop t w with
  | () ->
    Mutex.lock t.lock;
    w.wstate <- W_retired;
    Mutex.unlock t.lock
  | exception e ->
    Mutex.lock t.lock;
    let held = match w.wstate with W_building (job, _) -> Some job | _ -> None in
    w.wstate <- W_dead;
    t.death_notes <- (w, e) :: t.death_notes;
    Mutex.unlock t.lock;
    Option.iter
      (fun job ->
        settle t job
          (Error (Printf.sprintf "worker %d crashed: %s" w.wid (Printexc.to_string e))))
      held

let spawn_worker t w = w.wthread <- Some (Thread.create (fun () -> worker_main t w) ())

(* Restart accounting over a sliding window. Over budget the pool is
   declared degraded — no more replacements, and if nothing is left
   alive the queue is flushed so no waiter hangs on an empty pool. *)
let plan_restart t =
  Mutex.lock t.lock;
  let now = t.cfg.clock () in
  let window = float_of_int restart_window_ms /. 1000.0 in
  t.restart_times <- List.filter (fun ts -> now -. ts <= window) t.restart_times;
  let r =
    if t.degraded || List.length t.restart_times >= t.cfg.max_worker_restarts then begin
      t.degraded <- true;
      `Degraded (live_workers_locked t)
    end
    else begin
      let k = List.length t.restart_times in
      t.restart_times <- now :: t.restart_times;
      `Replace (restart_backoff_ms * (1 lsl min 6 k))
    end
  in
  Mutex.unlock t.lock;
  r

let replace_worker t =
  match plan_restart t with
  | `Degraded live ->
    if live = 0 then
      ignore
        (Scheduler.flush_queued t.sched
           ~reason:"worker pool exhausted its restart budget; server degraded")
  | `Replace backoff_ms ->
    if backoff_ms > 0 then Thread.delay (float_of_int backoff_ms /. 1000.0);
    Mutex.lock t.lock;
    let wid = t.next_wid in
    t.next_wid <- wid + 1;
    let w = { wid; wthread = None; wstate = W_idle; abandoned = false } in
    t.workers <- w :: t.workers;
    Mutex.unlock t.lock;
    Atomic.incr t.worker_restarts;
    spawn_worker t w

(* Expire in-flight builds past their limit: the sooner of the request
   deadline and the per-build timeout, plus a grace. The waiters get
   [Expired] now; the wedged worker is abandoned and replaced. Time is
   read from [cfg.clock] so the whole path is fake-clock testable. *)
let watchdog_scan t =
  let now = t.cfg.clock () in
  Mutex.lock t.lock;
  let wedged =
    List.filter_map
      (fun w ->
        match w.wstate with
        | W_building (job, started) when not w.abandoned ->
          let timeout_limit =
            Option.map
              (fun ms -> started +. (float_of_int ms /. 1000.0))
              t.cfg.build_timeout_ms
          in
          let limit =
            match (Scheduler.job_deadline job, timeout_limit) with
            | Some d, Some l -> Some (Float.min d l)
            | (Some _ as x), None | None, (Some _ as x) -> x
            | None, None -> None
          in
          (match limit with
          | Some l when now > l +. watchdog_grace ->
            w.abandoned <- true;
            Some (w, job)
          | _ -> None)
        | _ -> None)
      t.workers
  in
  Mutex.unlock t.lock;
  List.iter
    (fun (_w, job) ->
      if Scheduler.try_finish t.sched job Scheduler.Expired then begin
        Atomic.incr t.watchdog_fires;
        Breaker.record t.breaker (Scheduler.job_key job) ~ok:false
      end;
      replace_worker t)
    wedged

(* The supervisor: drains death notes (replacing crashed workers) and
   runs the watchdog, a few hundred times a second. Cheap when idle —
   one lock round-trip per pass. *)
let rec supervise_loop t =
  if t.stopping then ()
  else begin
    Mutex.lock t.lock;
    let notes = t.death_notes in
    t.death_notes <- [];
    Mutex.unlock t.lock;
    List.iter (fun (_w, _e) -> replace_worker t) notes;
    watchdog_scan t;
    Thread.delay 0.002;
    supervise_loop t
  end

(* ---------------- stats ---------------- *)

let stats t : Protocol.server_stats =
  let s = Scheduler.stats t.sched in
  let c = Soc_farm.Cache.stats t.cache in
  let lookups = c.Soc_farm.Cache.hits + c.Soc_farm.Cache.disk_hits + c.Soc_farm.Cache.misses in
  let served = c.Soc_farm.Cache.hits + c.Soc_farm.Cache.disk_hits in
  let cs = Option.map Coordinator.stats t.coord in
  let fleet f = match cs with Some s -> f s | None -> 0 in
  { uptime_ms = 1000.0 *. (t.cfg.clock () -. t.started_at);
    workers = t.cfg.workers;
    live_workers = live_workers t;
    degraded = is_degraded t;
    draining = s.Scheduler.draining;
    submitted = s.Scheduler.submitted;
    coalesced = s.Scheduler.coalesced;
    completed = s.Scheduler.completed;
    failed = s.Scheduler.failed;
    expired = s.Scheduler.expired;
    rejected_queue = s.Scheduler.rejected;
    rejected_check = Atomic.get t.rejected_check;
    queue_depth = s.Scheduler.queue_depth;
    running = s.Scheduler.running;
    cache_hits = c.Soc_farm.Cache.hits;
    cache_disk_hits = c.Soc_farm.Cache.disk_hits;
    cache_misses = c.Soc_farm.Cache.misses;
    hit_rate = (if lookups = 0 then 0.0 else float_of_int served /. float_of_int lookups);
    engine_runs = Soc_hls.Engine.invocation_count () - t.engine_base;
    worker_restarts = Atomic.get t.worker_restarts;
    watchdog_fires = Atomic.get t.watchdog_fires;
    breaker_open_keys = Breaker.open_keys t.breaker;
    rejected_poisoned = Atomic.get t.rejected_poisoned;
    sim_fallbacks = Cengine.fallback_count () - t.sim_base;
    rtl_verify_rejects = Cengine.verify_reject_count () - t.verify_base;
    fleet_workers = fleet (fun s -> s.Coordinator.fleet_workers);
    fleet_live = fleet (fun s -> s.Coordinator.fleet_live);
    remote_dispatches = fleet (fun s -> s.Coordinator.dispatches);
    remote_retries = fleet (fun s -> s.Coordinator.retries);
    remote_hedges = fleet (fun s -> s.Coordinator.hedges);
    remote_cancels = fleet (fun s -> s.Coordinator.cancels);
    remote_fallbacks = Atomic.get t.remote_fallbacks;
    lat_count = Histogram.count t.hist;
    lat_p50_ms = Histogram.p50 t.hist;
    lat_p95_ms = Histogram.p95 t.hist;
    lat_p99_ms = Histogram.p99 t.hist }

(* ---------------- sessions ---------------- *)

let state_of_outcome (o : Coordinator.built Scheduler.outcome) : Protocol.request_state =
  match o with
  | Scheduler.Ok_r _ -> Protocol.Done
  | Scheduler.Failed m -> Protocol.Failed m
  | Scheduler.Expired -> Protocol.Expired

(* Refuse new work, let the admitted work finish, and count it. *)
let drain t =
  Scheduler.drain t.sched;
  Scheduler.quiesce t.sched;
  let s = Scheduler.stats t.sched in
  (s.Scheduler.completed, s.Scheduler.failed)

let handle t (req : Protocol.request) : Protocol.response =
  match req with
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Submit { source; priority; deadline_ms } ->
    admit t ~source ~priority ~deadline_ms
  | Protocol.Status id -> (
    match Scheduler.status t.sched id with
    | None -> Protocol.Error_r (Printf.sprintf "unknown request id %d" id)
    | Some (Scheduler.Queued n) -> Protocol.Status_r { id; state = Protocol.Queued n }
    | Some Scheduler.Running -> Protocol.Status_r { id; state = Protocol.Running }
    | Some (Scheduler.Finished o) -> Protocol.Status_r { id; state = state_of_outcome o })
  | Protocol.Result id -> (
    match Scheduler.wait t.sched id with
    | None -> Protocol.Error_r (Printf.sprintf "unknown request id %d" id)
    | Some (Scheduler.Ok_r b) ->
      Protocol.Result_r
        { id; state = Protocol.Done; design = b.Coordinator.design;
          digest = b.Coordinator.digest; manifest = b.Coordinator.manifest;
          wall_ms = b.Coordinator.wall_ms }
    | Some o ->
      Protocol.Result_r
        { id; state = state_of_outcome o; design = ""; digest = ""; manifest = "";
          wall_ms = 0.0 })
  | Protocol.Hello { version; peer = _ } ->
    Protocol.hello_reply ~daemon:"server" ~worker_id:"server" version
  | Protocol.Heartbeat ->
    let s = Scheduler.stats t.sched in
    Protocol.Heartbeat_r
      { in_flight = s.Scheduler.running; builds_done = s.Scheduler.completed }
  | Protocol.Build _ | Protocol.Cancel _ ->
    Protocol.Error_r "not a worker: this daemon takes builds via the submit op"
  | Protocol.Stats -> Protocol.Stats_r (stats t)
  | Protocol.Drain ->
    let completed, failed = drain t in
    Protocol.Drained { completed; failed }
  | Protocol.Explore _ ->
    (* Streamed at session level; reaching here means a decode bug. *)
    Protocol.Error_r "explore is a streaming op"

(* Streaming autotuner sweep on the daemon's shared HLS cache: one
   [Explore_update] frame per search round, then the terminal
   [Explore_r]. Runs on the session thread — the sweep prices its
   populations through the farm directly, not through the scheduler
   queue, but every real synthesis result lands in (and comes from)
   [t.cache], so served builds and sweeps warm each other. *)
let handle_explore t reply
    ~strategy ~seed ~budget_pct ~population ~generations ~samples ~width ~height =
  let clamp lo hi v = max lo (min hi v) in
  match killed t with
  | Some (s, k) ->
    reply
      (Protocol.Rejected
         { reason = Protocol.Server_killed;
           detail = Printf.sprintf "server killed at %s:%d; restart it on the same cache dir" s k;
           diags = [] })
  | None ->
    if Scheduler.draining t.sched then
      reply
        (Protocol.Rejected
           { reason = Protocol.Draining; detail = "server is draining"; diags = [] })
    else (
      match
        Soc_tune.Search.strategy_of_string
          ~samples:(clamp 1 256 samples)
          ~population:(clamp 2 64 population)
          ~generations:(clamp 1 16 generations)
          strategy
      with
      | Error msg -> reply (Protocol.Error_r msg)
      | Ok strategy ->
        let opts =
          { Soc_dse.Tuner.default_options with
            Soc_dse.Tuner.strategy;
            seed;
            budget_pct = clamp 1 100 budget_pct;
            width = clamp 8 64 width;
            height = clamp 8 64 height }
        in
        let t0 = t.cfg.clock () in
        let c0 = Soc_farm.Cache.stats t.cache in
        let on_round (p : Soc_tune.Search.progress) =
          let best_us =
            match p.Soc_tune.Search.frontier with
            | [] -> 0.0
            | best :: _ -> best.Soc_tune.Search.objectives.(0)
          in
          reply
            (Protocol.Explore_update
               { round = p.Soc_tune.Search.round;
                 evaluated = p.Soc_tune.Search.evaluated;
                 infeasible = p.Soc_tune.Search.infeasible;
                 frontier_size = List.length p.Soc_tune.Search.frontier;
                 best_us })
        in
        match Soc_dse.Tuner.run ~cache:t.cache ~on_round opts with
        | exception (Unix.Unix_error _ as e) -> raise e (* peer went away mid-stream *)
        | exception e -> reply (Protocol.Error_r ("explore failed: " ^ Printexc.to_string e))
        | o ->
          let r = o.Soc_dse.Tuner.search in
          let c1 = o.Soc_dse.Tuner.cache in
          let hits =
            c1.Soc_farm.Cache.hits + c1.Soc_farm.Cache.disk_hits
            - (c0.Soc_farm.Cache.hits + c0.Soc_farm.Cache.disk_hits)
          in
          reply
            (Protocol.Explore_r
               { frontier = Soc_tune.Render.frontier_json r;
                 evaluated = r.Soc_tune.Search.evaluated;
                 infeasible = r.Soc_tune.Search.infeasible;
                 rounds = r.Soc_tune.Search.rounds;
                 engine_runs = o.Soc_dse.Tuner.engine_invocations;
                 cache_hits = hits;
                 wall_ms = 1000.0 *. (t.cfg.clock () -. t0) }))

(* The listener's handler: explore streams its frames, everything else
   is one reply. A drain wakes {!wait} only once its reply has been
   written: the waiter's {!stop} shuts every session socket, and would
   otherwise cut the [Drained] frame off. *)
let serve_request t reply = function
  | Protocol.Explore
      { strategy; seed; budget_pct; population; generations; samples; width; height } ->
    handle_explore t reply ~strategy ~seed ~budget_pct ~population ~generations ~samples
      ~width ~height
  | Protocol.Drain ->
    let completed, failed = drain t in
    Fun.protect
      ~finally:(fun () -> set_phase t (Drained (completed, failed)))
      (fun () -> reply (Protocol.Drained { completed; failed }))
  | req -> reply (handle t req)

(* ---------------- lifecycle ---------------- *)

let start (cfg : config) =
  (* Startup hygiene, the doctor's passes: verify every cache artifact and
     compact the journal before trusting either. *)
  let startup_diags =
    match cfg.cache_dir with
    | None -> []
    | Some dir ->
      if not (Sys.file_exists dir) then []
      else begin
        let cr = Soc_farm.Cache.fsck ~dir in
        let jr =
          Soc_farm.Journal.fsck (Filename.concat dir Soc_farm.Journal.default_name)
        in
        cr.Soc_farm.Cache.fsck_diags @ jr.Soc_farm.Journal.jfsck_diags
      end
  in
  let cache =
    Soc_farm.Cache.create ?disk_dir:cfg.cache_dir ?max_mb:cfg.cache_max_mb ()
  in
  let journal =
    Option.map
      (fun dir ->
        Soc_farm.Journal.open_ ~resume:true
          (Filename.concat dir Soc_farm.Journal.default_name))
      cfg.cache_dir
  in
  let hist = Histogram.create () in
  let sched =
    Scheduler.create ~clock:cfg.clock
      ~on_done:(fun ~latency -> Histogram.observe hist latency)
      ~queue_cap:cfg.queue_cap ()
  in
  let listener = Listener.bind ~host:cfg.host ~port:cfg.port in
  let t =
    { cfg; listener; sched; cache; journal;
      kill_slot = Atomic.make cfg.kill; hist;
      breaker =
        Breaker.create ~clock:cfg.clock ~threshold:cfg.breaker_threshold
          ~cooldown_ms:cfg.breaker_cooldown_ms ();
      started_at = cfg.clock ();
      engine_base = Soc_hls.Engine.invocation_count ();
      sim_base = Cengine.fallback_count ();
      verify_base = Cengine.verify_reject_count ();
      rejected_check = Atomic.make 0; rejected_poisoned = Atomic.make 0;
      worker_restarts = Atomic.make 0; watchdog_fires = Atomic.make 0;
      coord =
        (if cfg.fleet = [] then None
         else
           Some
             (Coordinator.create
                { Coordinator.default_config with
                  endpoints = cfg.fleet; clock = cfg.clock;
                  rpc_timeout_ms = cfg.fleet_rpc_timeout_ms }));
      remote_fallbacks = Atomic.make 0;
      startup_diags; lock = Mutex.create ();
      cond = Condition.create (); phase = Serving; stopping = false;
      workers = []; next_wid = 0; death_notes = []; restart_times = [];
      degraded = false; monitor_thread = None }
  in
  t.workers <-
    List.init (max 1 cfg.workers) (fun i ->
        { wid = i; wthread = None; wstate = W_idle; abandoned = false });
  t.next_wid <- List.length t.workers;
  List.iter (fun w -> spawn_worker t w) t.workers;
  t.monitor_thread <- Some (Thread.create (fun () -> supervise_loop t) ());
  Listener.serve ~max_sessions:cfg.max_sessions
    ?idle_timeout_ms:cfg.idle_session_timeout_ms listener
    (serve_request t);
  t

let wait t =
  Mutex.lock t.lock;
  let rec go () =
    match t.phase with
    | Serving ->
      Condition.wait t.cond t.lock;
      go ()
    | Drained (ok, failed) -> `Drained (ok, failed)
    | Killed (s, k) -> `Killed (s, k)
  in
  let r = go () in
  Mutex.unlock t.lock;
  r

let stop t =
  t.stopping <- true;
  Scheduler.abort_all t.sched ~reason:"server stopped";
  (* Stop the coordinator first: workers blocked in a fleet dispatch
     abandon their attempts instead of riding out the rpc timeout. *)
  Option.iter Coordinator.stop t.coord;
  set_phase t (Drained (0, 0));
  (* [abort_all] finished every job, so no session is left blocked in
     [Result] or [Drain]. *)
  Listener.stop t.listener;
  Mutex.lock t.lock;
  let workers = t.workers in
  Mutex.unlock t.lock;
  (* Abandoned workers may be wedged in a build forever — never joined. *)
  List.iter
    (fun w -> if not w.abandoned then Option.iter Thread.join w.wthread)
    workers;
  Option.iter Thread.join t.monitor_thread;
  Option.iter Soc_farm.Journal.close t.journal
