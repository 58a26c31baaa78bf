(* Keyed circuit breakers for poison-pill containment.

   One breaker per coalescing key (content hash of the canonical spec +
   config). A spec that keeps failing — a poison request that crashes the
   HLS engine every time — trips its breaker after [threshold]
   consecutive failures; while open, admission rejects the key
   immediately instead of burning a worker on a build that is known to
   die. After [cooldown_ms] the breaker goes half-open and lets exactly
   one probe through: success closes it, failure reopens it with a fresh
   cooldown. A probe can also be lost without a report: admission may
   refuse it (queue full, draining) or its deadline may expire it in the
   queue. A probe that has not reported within one cooldown therefore
   counts as lost, and the next check hands out a new one.

   Success on any key resets its consecutive-failure count, so flaky
   (intermittent) specs never trip; only persistent poison does.
   Thread-safe; clock injectable for deterministic tests. *)

type state =
  | Closed of int  (* consecutive failures so far *)
  | Open of float  (* opened_at, by [clock] *)
  | Half_open of float  (* single probe in flight, issued at, by [clock] *)

type t = {
  clock : unit -> float;
  threshold : int;  (* <= 0 disables the breaker entirely *)
  cooldown : float;  (* seconds *)
  lock : Mutex.t;
  tbl : (string, state) Hashtbl.t;
  mutable n_trips : int;
}

type verdict =
  | Admit
  | Probe  (* half-open: this caller carries the single probe *)
  | Reject of float  (* seconds until the key may be admitted again *)

let create ?(clock = Unix.gettimeofday) ~threshold ~cooldown_ms () =
  { clock; threshold; cooldown = float_of_int cooldown_ms /. 1000.0;
    lock = Mutex.create (); tbl = Hashtbl.create 16; n_trips = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let check t key =
  if t.threshold <= 0 then Admit
  else
    locked t (fun () ->
        let now = t.clock () in
        let probe () =
          Hashtbl.replace t.tbl key (Half_open now);
          Probe
        in
        match Hashtbl.find_opt t.tbl key with
        | None | Some (Closed _) -> Admit
        | Some (Open since | Half_open since) ->
          (* open until its cooldown ends; a probe in flight holds the key
             until its lease ends, after which it counts as lost *)
          let elapsed = now -. since in
          if elapsed >= t.cooldown then probe () else Reject (t.cooldown -. elapsed))

let record t key ~ok =
  if t.threshold > 0 then
    locked t (fun () ->
        if ok then Hashtbl.remove t.tbl key (* close; forget history *)
        else
          match Hashtbl.find_opt t.tbl key with
          | Some (Open _) -> () (* already open; keep the original cooldown *)
          | Some (Half_open _) ->
            (* failed probe: reopen with a fresh cooldown *)
            t.n_trips <- t.n_trips + 1;
            Hashtbl.replace t.tbl key (Open (t.clock ()))
          | None | Some (Closed _) ->
            let n =
              (match Hashtbl.find_opt t.tbl key with Some (Closed n) -> n | _ -> 0) + 1
            in
            if n >= t.threshold then begin
              t.n_trips <- t.n_trips + 1;
              Hashtbl.replace t.tbl key (Open (t.clock ()))
            end
            else Hashtbl.replace t.tbl key (Closed n))

let open_keys t =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ st acc -> match st with Open _ | Half_open _ -> acc + 1 | Closed _ -> acc)
        t.tbl 0)

let trips t = locked t (fun () -> t.n_trips)
