(* Fleet dispatch for the generation daemon: retries, hedging,
   heartbeat health tracking and partition-safe failover over a set of
   {!Remote} worker daemons.

   Everything here leans on one invariant: dispatch is idempotent.
   Requests are keyed by the canonical-spec coalescing key, workers
   attach duplicate keys to the build already in flight, and results
   are verified artifacts of a shared content-addressed cache — so the
   worst a lost, repeated or raced request can cost is wasted wall
   clock, never a wrong or repeated build. That is what licenses every
   policy below:

   - {e Retry} with exponential backoff + deterministic jitter on any
     infrastructure failure (connection refused, torn frame, timeout),
     each retry on the next worker in a key-rotated order. A worker's
     *answer* of [Failed] is authoritative and is never retried — the
     server's breaker handles poison specs.
   - {e Hedge} a straggling build past a latency threshold (explicit,
     or derived as [hedge_factor x] the p95 of past wins) by racing one
     extra replica on a different worker; first valid answer wins and
     the loser is sent a best-effort [Cancel].
   - {e Fail over on partition}: a heartbeat thread beats every worker
     each [heartbeat_interval_ms]; [miss_threshold] consecutive misses
     mark it down. In-flight attempts poll that verdict between read
     slices, so an attempt stuck on a one-way-partitioned worker
     abandons and re-routes without waiting on TCP to notice.

   Total fleet loss is not an error the caller's clients ever see:
   [build] returns [Error] and the server degrades to a local
   in-process build, counted in [server_stats.remote_fallbacks].

   Coordinator frames are written on ["co:w<i>"] net-fault links and
   workers answer on ["wk:w<i>"], so chaos campaigns can drop, delay,
   duplicate, tear or one-way-partition either direction per worker. *)

module Protocol = Protocol
module Histogram = Soc_util.Metrics.Histogram
module Farm = Soc_farm.Farm

type config = {
  endpoints : (string * int) list;  (** (host, port); labelled w0, w1, … *)
  clock : unit -> float;
  max_frame : int;
  heartbeat_interval_ms : int;
  miss_threshold : int;  (** consecutive missed beats before a worker is down *)
  rpc_timeout_ms : int;  (** per-attempt budget: connect + handshake + build *)
  retries : int;  (** extra attempts after the first, all workers errored *)
  retry_base_ms : int;  (** base of the exponential retry backoff *)
  hedge_after_ms : float option;
      (** straggler threshold; [None] derives it from the p95 of wins *)
  hedge_factor : float;
  hedge_min_ms : float;
  seed : int;  (** jitter + rotation determinism *)
}

let default_config =
  { endpoints = []; clock = Unix.gettimeofday;
    max_frame = Protocol.max_frame_default; heartbeat_interval_ms = 250;
    miss_threshold = 3; rpc_timeout_ms = 60_000; retries = 3; retry_base_ms = 50;
    hedge_after_ms = None; hedge_factor = 2.0; hedge_min_ms = 100.0; seed = 0 }

type built = { design : string; digest : string; manifest : string; wall_ms : float }

type outcome =
  | Built of built
  | Build_failed of string  (** the worker's authoritative verdict *)

(* The single-entry in-process build behind both a worker's dispatch
   and the server's local path. *)
let build_entry ?journal ?kill ~cache entry =
  match Farm.build_batch ~jobs:1 ~cache ?journal ?kill [ entry ] with
  | exception ((Soc_fault.Fault.Killed _ | Soc_fault.Fault.Service.Cancelled) as e) ->
    raise e
  | exception e -> Error ("internal error: " ^ Printexc.to_string e)
  | { Farm.builds = [ (_, b) ]; _ } as report ->
    Ok
      { design = b.Soc_core.Flow.spec.Soc_core.Spec.design_name;
        digest = Farm.build_digest b;
        manifest = Farm.manifest_json report;
        wall_ms = 1000.0 *. report.Farm.stats.Farm.wall_seconds }
  | report ->
    Error
      (match report.Farm.failures with
      | f :: _ -> Format.asprintf "%a" Soc_farm.Pool.pp_failure f
      | [] -> "build produced no artifact")

type wrec = {
  name : string;
  whost : string;
  wport : int;
  link : string;  (* "co:<name>": the label on every frame we send it *)
  mutable misses : int;
  mutable down : bool;
  mutable hb_fd : Unix.file_descr option;  (* owned by the heartbeat thread *)
}

type t = {
  cfg : config;
  workers : wrec array;
  hist : Histogram.t;  (* winning-attempt latencies, ms *)
  s_dispatches : int Atomic.t;
  s_retries : int Atomic.t;
  s_hedges : int Atomic.t;
  s_cancels : int Atomic.t;
  lock : Mutex.t;
  mutable stopping : bool;
  mutable hb_thread : Thread.t option;
}

type stats = {
  fleet_workers : int;
  fleet_live : int;
  dispatches : int;
  retries : int;
  hedges : int;
  cancels : int;
}

(* Deterministic unit floats for jitter and rotation: a splitmix64
   finalizer over (seed, key, ordinal), mirroring {!Soc_fault.Fault.Net}
   so campaign replays are bit-stable. *)
let mix64 x =
  let open Int64 in
  let x = add x 0x9E3779B97F4A7C15L in
  let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
  logxor x (shift_right_logical x 31)

let unit_float ~seed ~key ~n =
  let h = ref (mix64 (Int64.of_int seed)) in
  String.iter (fun c -> h := mix64 (Int64.logxor !h (Int64.of_int (Char.code c)))) key;
  h := mix64 (Int64.logxor !h (Int64.of_int n));
  let bits = Int64.to_int (Int64.shift_right_logical !h 34) land ((1 lsl 30) - 1) in
  float_of_int bits /. float_of_int (1 lsl 30)

let is_down t w =
  Mutex.lock t.lock;
  let d = w.down in
  Mutex.unlock t.lock;
  d

let mark_beat t w ~ok =
  Mutex.lock t.lock;
  if ok then begin
    w.misses <- 0;
    w.down <- false
  end
  else begin
    w.misses <- w.misses + 1;
    if w.misses >= t.cfg.miss_threshold then w.down <- true
  end;
  Mutex.unlock t.lock

let live t =
  Mutex.lock t.lock;
  let n = Array.fold_left (fun n w -> if w.down then n else n + 1) 0 t.workers in
  Mutex.unlock t.lock;
  n

let stats t =
  { fleet_workers = Array.length t.workers;
    fleet_live = live t;
    dispatches = Atomic.get t.s_dispatches;
    retries = Atomic.get t.s_retries;
    hedges = Atomic.get t.s_hedges;
    cancels = Atomic.get t.s_cancels }

(* ---------------- wire helpers ---------------- *)

let close_quietly fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let connect (w : wrec) = Listener.connect ~host:w.whost ~port:w.wport

(* One frame off a dispatch connection, in short select slices so the
   attempt can abandon (worker marked down, race settled) without
   waiting on TCP. [slice ()] is the length of the next slice (at most
   0.1 s), which lets the race end one at its hedge deadline. The
   receive-timeout backstop bounds a stall *inside* a frame (partition
   after the header), where retrying the parse from scratch would
   desynchronise the stream — there we give the whole attempt up
   instead. *)
let read_response fd ~give_up ~slice ~deadline ~max_len =
  let rec wait_readable () =
    if give_up () then Error "abandoned"
    else if Unix.gettimeofday () > deadline then Error "attempt timed out"
    else
      match Unix.select [ fd ] [] [] (slice ()) with
      | [], _, _ -> wait_readable ()
      | _ -> (
        match Protocol.recv_checked ~max_len fd with
        | Ok (Some j) -> Ok j
        | Ok None -> Error "worker closed the connection"
        | Error e -> Error (Protocol.read_error_to_string e)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          -> Error "read stalled mid-frame"
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
        | exception Protocol.Parse_error m -> Error ("malformed frame: " ^ m))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable ()
  in
  wait_readable ()

(* One dispatch attempt: fresh connection, hello handshake, build, wait.
   [sent_build] tells the caller whether the worker may hold in-flight
   work worth cancelling. Returns [Ok] for the worker's authoritative
   answer (either way) and [Error] for infrastructure trouble. *)
let attempt t (w : wrec) ~source ~key ~deadline_ms ~give_up ~slice ~sent_build =
  let max_len = t.cfg.max_frame in
  let deadline = Unix.gettimeofday () +. (float_of_int t.cfg.rpc_timeout_ms /. 1000.0) in
  match connect w with
  | Error _ as e -> e
  | Ok fd ->
    Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    let ( let* ) = Result.bind in
    let send_req r =
      match Protocol.send ~link:w.link ~max_len fd (Protocol.encode_request r) with
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, _) -> Error ("send: " ^ Unix.error_message e)
      | exception Protocol.Framing_error m -> Error m
    in
    let* () =
      send_req
        (Protocol.Hello { version = Protocol.protocol_version; peer = "coordinator" })
    in
    let rec handshake () =
      let* j = read_response fd ~give_up ~slice ~deadline ~max_len in
      match Protocol.decode_response j with
      | Ok (Protocol.Hello_r _) -> Ok ()
      | Ok (Protocol.Rejected { reason = Protocol.Version_skew; detail; _ }) ->
        Error ("version skew: " ^ detail)
      | Ok _ -> handshake () (* net faults may duplicate frames *)
      | Error m -> Error ("undecodable hello reply: " ^ m)
    in
    let* () = handshake () in
    let* () = send_req (Protocol.Build { source; key; deadline_ms }) in
    sent_build := true;
    let rec await () =
      let* j = read_response fd ~give_up ~slice ~deadline ~max_len in
      match Protocol.decode_response j with
      | Ok (Protocol.Built_r { key = k; state; design; digest; manifest; wall_ms })
        when k = key -> (
        match state with
        | Protocol.Done -> Ok (Built { design; digest; manifest; wall_ms })
        | Protocol.Failed m -> Ok (Build_failed m)
        | _ -> Error "worker answered a non-terminal build state")
      | Ok _ -> await () (* duplicate or stale frame: keep reading *)
      | Error m -> Error ("undecodable build reply: " ^ m)
    in
    await ()

(* Best-effort, detached: tell [w] to abandon [key]. Fired at hedge
   losers and abandoned re-routes; a worker that already finished (or
   never started) answers [was_running = false], which is fine. *)
let send_cancel t (w : wrec) ~key =
  Atomic.incr t.s_cancels;
  ignore
    (Thread.create
       (fun () ->
         match connect w with
         | Error _ -> ()
         | Ok fd ->
           Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
           (try
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
              Protocol.send ~link:w.link ~max_len:t.cfg.max_frame fd
                (Protocol.encode_request (Protocol.Cancel { key }));
              ignore (Protocol.recv_checked ~max_len:t.cfg.max_frame fd)
            with
           | Unix.Unix_error _ | Protocol.Framing_error _ | Invalid_argument _
           | Sys_error _ -> ()))
       ())

(* ---------------- the race ---------------- *)

(* [changed] is broadcast under [rmx] whenever [settled]/[active] move
   or the hedge falls due, so [drive] sleeps until there is something to
   decide instead of polling. The hedge clock needs no thread of its
   own: attempts end their read slices at [hedge_at], and the first to
   pass it sets [hedge_due]. *)
type race = {
  rmx : Mutex.t;
  changed : Condition.t;
  hedge_at : float;  (* absolute; [infinity] when the race never hedges *)
  mutable settled : (outcome, string) result option;
  mutable active : int;
  mutable errors : string list;  (* newest first *)
  mutable hedge_due : bool;
}

(* The next read slice of an attempt in [r]: up to the hedge deadline,
   at most 0.1 s. Past the deadline it flags the hedge and wakes
   [drive], once per race. *)
let slice r () =
  Mutex.lock r.rmx;
  let now = Unix.gettimeofday () in
  let s =
    if r.hedge_due || r.settled <> None then 0.1
    else if now >= r.hedge_at then begin
      r.hedge_due <- true;
      Condition.broadcast r.changed;
      0.1
    end
    else Float.min 0.1 (r.hedge_at -. now)
  in
  Mutex.unlock r.rmx;
  s

let build t ~source ~key ?deadline_ms () : (outcome, string) result =
  let n = Array.length t.workers in
  if n = 0 then Error "no fleet configured"
  else begin
    (* Key-rotated worker order, live workers first: retries and hedges
       walk it so consecutive attempts land on different workers. *)
    let start = int_of_float (unit_float ~seed:t.cfg.seed ~key ~n:0 *. float_of_int n) in
    let rotated = List.init n (fun i -> t.workers.((start + i) mod n)) in
    let up, dn = List.partition (fun w -> not (is_down t w)) rotated in
    if up = [] then Error "fleet down: no live workers"
    else begin
      let order = Array.of_list (up @ dn) in
      let hedge_threshold_ms =
        match t.cfg.hedge_after_ms with
        | Some ms -> Some ms
        | None ->
          (* Not enough latency signal yet: don't burn a replica on a
             guess — cold builds always look like stragglers. *)
          if Histogram.count t.hist >= 8 then
            Some (Float.max t.cfg.hedge_min_ms (t.cfg.hedge_factor *. Histogram.p95 t.hist))
          else None
      in
      let hedge_at =
        match hedge_threshold_ms with
        | Some ms when n > 1 -> Unix.gettimeofday () +. (ms /. 1000.0)
        | _ -> infinity
      in
      let race =
        { rmx = Mutex.create (); changed = Condition.create (); hedge_at;
          settled = None; active = 0; errors = []; hedge_due = false }
      in
      let launch ord =
        let w = order.(ord mod n) in
        Atomic.incr t.s_dispatches;
        Mutex.lock race.rmx;
        race.active <- race.active + 1;
        Mutex.unlock race.rmx;
        ignore
          (Thread.create
             (fun () ->
               let give_up () =
                 let settled =
                   Mutex.lock race.rmx;
                   let s = race.settled <> None in
                   Mutex.unlock race.rmx;
                   s
                 in
                 settled || t.stopping || is_down t w
               in
               let sent_build = ref false in
               let t0 = Unix.gettimeofday () in
               let r =
                 attempt t w ~source ~key ~deadline_ms ~give_up ~slice:(slice race) ~sent_build
               in
               let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
               Mutex.lock race.rmx;
               let won =
                 match r with
                 | Ok o when race.settled = None ->
                   race.settled <- Some (Ok o);
                   true
                 | Ok _ -> false
                 | Error e ->
                   race.errors <- Printf.sprintf "%s: %s" w.name e :: race.errors;
                   false
               in
               race.active <- race.active - 1;
               Condition.broadcast race.changed;
               Mutex.unlock race.rmx;
               if won then Histogram.observe t.hist ms
               else begin
                 (* An abandoned give-up is the race's doing, not the
                    worker's — only real infra errors count against its
                    health between heartbeats. *)
                 (match r with
                 | Error e when e <> "abandoned" -> mark_beat t w ~ok:false
                 | _ -> ());
                 if !sent_build then send_cancel t w ~key
               end)
             ())
      in
      launch 0;
      let launched = ref 1 in
      let hedged = ref false in
      let retries_done = ref 0 in
      let rec drive () =
        Mutex.lock race.rmx;
        while
          race.settled = None && race.active > 0
          && not (race.hedge_due && not !hedged)
        do
          Condition.wait race.changed race.rmx
        done;
        let settled = race.settled in
        let active = race.active in
        let errors = race.errors in
        Mutex.unlock race.rmx;
        match settled with
        | Some r -> r
        | None ->
          if active = 0 then
            if !retries_done < t.cfg.retries && not t.stopping then begin
              (* Everything launched failed on infrastructure: back off
                 (exponential, deterministically jittered) and re-route
                 to the next worker in the order. *)
              incr retries_done;
              Atomic.incr t.s_retries;
              let backoff_ms =
                float_of_int (t.cfg.retry_base_ms * (1 lsl min 6 (!retries_done - 1)))
                *. (0.5 +. unit_float ~seed:t.cfg.seed ~key ~n:!retries_done)
              in
              Thread.delay (backoff_ms /. 1000.0);
              launch !launched;
              incr launched;
              drive ()
            end
            else
              Error
                (match errors with
                | [] -> "fleet exhausted"
                | es -> "fleet exhausted: " ^ String.concat "; " (List.rev es))
          else begin
            (* The hedge fell due with the first attempt still out. *)
            hedged := true;
            Atomic.incr t.s_hedges;
            launch !launched;
            incr launched;
            drive ()
          end
      in
      drive ()
    end
  end

(* ---------------- heartbeats ---------------- *)

(* One beat over the worker's persistent control connection,
   reconnecting as needed. Any failure — connect, send, timeout, torn
   frame — is one miss; the connection is dropped so the next beat
   starts clean (no mid-frame desync to worry about). *)
let hb_once t (w : wrec) =
  let max_len = t.cfg.max_frame in
  let read_timeout =
    Float.max 0.05 (float_of_int t.cfg.heartbeat_interval_ms /. 1000.0)
  in
  let fd =
    match w.hb_fd with
    | Some fd -> Some fd
    | None -> (
      match connect w with
      | Error _ -> None
      | Ok fd ->
        (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout
         with Unix.Unix_error _ | Invalid_argument _ -> ());
        w.hb_fd <- Some fd;
        Some fd)
  in
  match fd with
  | None -> false
  | Some fd -> (
    let drop () =
      w.hb_fd <- None;
      close_quietly fd;
      false
    in
    try
      Protocol.send ~link:w.link ~max_len fd (Protocol.encode_request Protocol.Heartbeat);
      let rec read_reply budget =
        if budget <= 0 then drop ()
        else
          match Protocol.recv_checked ~max_len fd with
          | Ok (Some j) -> (
            match Protocol.decode_response j with
            | Ok (Protocol.Heartbeat_r _) -> true
            | _ -> read_reply (budget - 1) (* duplicates / stale frames *))
          | Ok None | Error _ -> drop ()
      in
      read_reply 4
    with
    | Unix.Unix_error _ | Protocol.Framing_error _ | Protocol.Parse_error _
    | Sys_error _ | Invalid_argument _ -> drop ())

let rec hb_loop t =
  if t.stopping then ()
  else begin
    Array.iter
      (fun w -> if not t.stopping then mark_beat t w ~ok:(hb_once t w))
      t.workers;
    (* Sleep the interval in short slices so [stop] never waits out a
       long beat period to join this thread. *)
    let wake =
      Unix.gettimeofday () +. (float_of_int t.cfg.heartbeat_interval_ms /. 1000.0)
    in
    let rec nap () =
      if (not t.stopping) && Unix.gettimeofday () < wake then begin
        Thread.delay 0.05;
        nap ()
      end
    in
    nap ();
    hb_loop t
  end

(* ---------------- lifecycle ---------------- *)

let create (cfg : config) =
  let workers =
    Array.of_list
      (List.mapi
         (fun i (whost, wport) ->
           let name = Printf.sprintf "w%d" i in
           { name; whost; wport; link = "co:" ^ name; misses = 0; down = false;
             hb_fd = None })
         cfg.endpoints)
  in
  let t =
    { cfg; workers; hist = Histogram.create ();
      s_dispatches = Atomic.make 0; s_retries = Atomic.make 0;
      s_hedges = Atomic.make 0; s_cancels = Atomic.make 0;
      lock = Mutex.create (); stopping = false; hb_thread = None }
  in
  if Array.length workers > 0 then
    t.hb_thread <- Some (Thread.create (fun () -> hb_loop t) ());
  t

let stop t =
  t.stopping <- true;
  (match t.hb_thread with Some th -> Thread.join th | None -> ());
  Array.iter
    (fun w ->
      match w.hb_fd with
      | Some fd ->
        w.hb_fd <- None;
        close_quietly fd
      | None -> ())
    t.workers
