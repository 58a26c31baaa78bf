(** Deterministic, seed-driven fault injection: fault vocabulary, plans
    (pending faults + event log + counters) and seeded campaign
    generation. The platform executive owns the application of faults to
    simulated hardware; this module is pure bookkeeping so it can sit
    below both [Soc_axi] and [Soc_platform]. *)

type target =
  | Accel of string
  | Mm2s of string
  | S2mm of string
  | Fifo of string
  | Lite_slave of string
  | Dram_word of int

type kind =
  | Hang
  | Spurious_done
  | Corrupt_result of int
  | Dma_stall
  | Dma_error
  | Fifo_stuck
  | Slave_error
  | Bit_flip of int

type fault = { at_cycle : int; target : target; kind : kind; duration : int }

let permanent = max_int

let pp_target fmt = function
  | Accel n -> Format.fprintf fmt "accel %s" n
  | Mm2s n -> Format.fprintf fmt "mm2s %s" n
  | S2mm n -> Format.fprintf fmt "s2mm %s" n
  | Fifo n -> Format.fprintf fmt "fifo %s" n
  | Lite_slave n -> Format.fprintf fmt "lite slave %s" n
  | Dram_word a -> Format.fprintf fmt "dram word 0x%x" a

let kind_name = function
  | Hang -> "hang"
  | Spurious_done -> "spurious-done"
  | Corrupt_result m -> Printf.sprintf "corrupt-result(0x%x)" m
  | Dma_stall -> "dma-stall"
  | Dma_error -> "dma-transfer-error"
  | Fifo_stuck -> "fifo-stuck-full"
  | Slave_error -> "axi-lite-slverr"
  | Bit_flip b -> Printf.sprintf "bit-flip(b%d)" b

let pp_fault fmt f =
  Format.fprintf fmt "@@%d %s on %a%s" f.at_cycle (kind_name f.kind) pp_target f.target
    (if f.duration = permanent then " (permanent)"
     else if f.duration > 0 then Printf.sprintf " for %d cycles" f.duration
     else "")

let fault_to_string f = Format.asprintf "%a" pp_fault f

(* ------------------------------------------------------------------ *)
(* Event log                                                           *)
(* ------------------------------------------------------------------ *)

type event =
  | Injected of { cycle : int; fault : fault }
  | Skipped of { cycle : int; fault : fault; reason : string }
  | Detected of { cycle : int; unit_ : string; what : string }
  | Reset of { cycle : int; units : string list }
  | Retried of { cycle : int; task : string; attempt : int; backoff : int }
  | Fell_back of { cycle : int; task : string }
  | Recovered of { cycle : int; task : string; attempts : int }
  | Unrecovered of { cycle : int; task : string }

let pp_event fmt = function
  | Injected { cycle; fault } -> Format.fprintf fmt "[%8d] inject %a" cycle pp_fault fault
  | Skipped { cycle; fault; reason } ->
    Format.fprintf fmt "[%8d] skip %a (%s)" cycle pp_fault fault reason
  | Detected { cycle; unit_; what } ->
    Format.fprintf fmt "[%8d] detect %s: %s" cycle unit_ what
  | Reset { cycle; units } ->
    Format.fprintf fmt "[%8d] soft-reset %s" cycle (String.concat ", " units)
  | Retried { cycle; task; attempt; backoff } ->
    Format.fprintf fmt "[%8d] retry %s: attempt %d after %d-cycle backoff" cycle task
      attempt backoff
  | Fell_back { cycle; task } ->
    Format.fprintf fmt "[%8d] fallback %s: re-dispatched to the GPP" cycle task
  | Recovered { cycle; task; attempts } ->
    Format.fprintf fmt "[%8d] recovered %s after %d attempts" cycle task attempts
  | Unrecovered { cycle; task } -> Format.fprintf fmt "[%8d] UNRECOVERED %s" cycle task

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type plan = {
  all : fault list; (* sorted by at_cycle *)
  mutable pending : fault list;
  mutable log : event list; (* reverse chronological *)
  ctrs : Soc_util.Metrics.Counters.t;
  plan_seed : int option;
}

let plan_of_faults ?seed faults =
  let sorted = List.stable_sort (fun a b -> compare a.at_cycle b.at_cycle) faults in
  {
    all = sorted;
    pending = sorted;
    log = [];
    ctrs = Soc_util.Metrics.Counters.create ();
    plan_seed = seed;
  }

let seed p = p.plan_seed
let faults p = p.all

let due p ~cycle =
  let rec take acc = function
    | f :: rest when f.at_cycle <= cycle -> take (f :: acc) rest
    | rest ->
      p.pending <- rest;
      List.rev acc
  in
  take [] p.pending

let next_at p = match p.pending with f :: _ -> Some f.at_cycle | [] -> None

let record p e = p.log <- e :: p.log
let events p = List.rev p.log
let counters p = p.ctrs

let injected_faults p =
  List.rev
    (List.filter_map (function Injected { fault; _ } -> Some fault | _ -> None) p.log)

let render_report ?(label = "chaos") p =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s: seed=%s faults=%d\n" label
       (match p.plan_seed with Some s -> string_of_int s | None -> "-")
       (List.length p.all));
  Buffer.add_string b
    (Printf.sprintf "counters: %s\n"
       (Format.asprintf "%a" Soc_util.Metrics.Counters.pp p.ctrs));
  List.iter
    (fun e -> Buffer.add_string b (Format.asprintf "%a\n" pp_event e))
    (events p);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Seeded campaigns                                                    *)
(* ------------------------------------------------------------------ *)

type inventory = {
  accels : string list;
  mm2s : string list;
  s2mm : string list;
  fifos : string list;
  slaves : string list;
  dram_range : (int * int) option;
}

let random_campaign ~seed ~n ~horizon ?(include_permanent = false)
    ?(include_bit_flips = false) (inv : inventory) : fault list =
  let rng = Soc_util.Rng.create seed in
  let horizon = max 1 horizon in
  (* A transient long enough to be felt, short enough to self-heal well
     inside one watchdog window. *)
  let transient () = 50 + Soc_util.Rng.int rng (max 1 (horizon / 2)) in
  let classes =
    List.concat
      [
        (if inv.accels = [] then [] else [ `Accel ]);
        (if inv.mm2s = [] then [] else [ `Mm2s ]);
        (if inv.s2mm = [] then [] else [ `S2mm ]);
        (if inv.fifos = [] then [] else [ `Fifo ]);
        (if inv.slaves = [] then [] else [ `Slave ]);
        (match inv.dram_range with
        | Some (_, len) when include_bit_flips && len > 0 -> [ `Dram ]
        | _ -> []);
      ]
  in
  if classes = [] then []
  else
    List.init n (fun _ ->
        let at_cycle = Soc_util.Rng.int rng horizon in
        match Soc_util.Rng.choose rng classes with
        | `Accel ->
          let name = Soc_util.Rng.choose rng inv.accels in
          let kind, duration =
            match Soc_util.Rng.int rng (if include_permanent then 3 else 2) with
            | 0 -> (Hang, transient ())
            | 1 -> (Spurious_done, permanent)
            | _ -> (Hang, permanent)
          in
          { at_cycle; target = Accel name; kind; duration }
        | `Mm2s ->
          let name = Soc_util.Rng.choose rng inv.mm2s in
          if Soc_util.Rng.bool rng then
            { at_cycle; target = Mm2s name; kind = Dma_stall; duration = transient () }
          else { at_cycle; target = Mm2s name; kind = Dma_error; duration = 0 }
        | `S2mm ->
          let name = Soc_util.Rng.choose rng inv.s2mm in
          if Soc_util.Rng.bool rng then
            { at_cycle; target = S2mm name; kind = Dma_stall; duration = transient () }
          else { at_cycle; target = S2mm name; kind = Dma_error; duration = 0 }
        | `Fifo ->
          let name = Soc_util.Rng.choose rng inv.fifos in
          { at_cycle; target = Fifo name; kind = Fifo_stuck; duration = transient () }
        | `Slave ->
          let owner = Soc_util.Rng.choose rng inv.slaves in
          {
            at_cycle;
            target = Lite_slave owner;
            kind = Slave_error;
            duration = 1 + Soc_util.Rng.int rng 3;
          }
        | `Dram ->
          let addr, len = Option.get inv.dram_range in
          {
            at_cycle;
            target = Dram_word (addr + Soc_util.Rng.int rng len);
            kind = Bit_flip (Soc_util.Rng.int rng 32);
            duration = 0;
          })

(* ------------------------------------------------------------------ *)
(* Crash points: deterministic kill injection for the generation flow  *)
(* ------------------------------------------------------------------ *)

(* The runtime faults above perturb the *simulated hardware*; crash
   points perturb the *tool itself*: [Kill_at (stage, k)] kills the run
   the moment the k-th job of [stage] has been journaled as in-flight but
   before it does any work — the worst instant for a write-ahead journal.
   An armed injector is a one-shot guillotine: after it fires once, every
   subsequent step dies too, mimicking a process that no longer exists. *)

type crash_point = Kill_at of string * int

exception Killed of string * int

let () =
  Printexc.register_printer (function
    | Killed (stage, k) ->
      Some (Printf.sprintf "Soc_fault.Fault.Killed(injected crash at %s #%d)" stage k)
    | _ -> None)

type crash_injector = {
  cp : crash_point option;
  clock : Mutex.t;
  step_counts : (string, int) Hashtbl.t;
  mutable fired : (string * int) option;
}

let arm cp = { cp; clock = Mutex.create (); step_counts = Hashtbl.create 8; fired = None }

let crash_step inj ~stage =
  match inj.cp with
  | None -> ()
  | Some (Kill_at (kstage, kidx)) ->
    Mutex.lock inj.clock;
    let fire =
      if inj.fired <> None then true (* already dead: nothing runs any more *)
      else begin
        let k = Option.value ~default:0 (Hashtbl.find_opt inj.step_counts stage) in
        Hashtbl.replace inj.step_counts stage (k + 1);
        if stage = kstage && k = kidx then begin
          inj.fired <- Some (kstage, kidx);
          true
        end
        else false
      end
    in
    Mutex.unlock inj.clock;
    if fire then raise (Killed (kstage, kidx))

let crashed inj =
  Mutex.lock inj.clock;
  let r = inj.fired in
  Mutex.unlock inj.clock;
  r

let pick_kill_point ~seed points =
  match points with
  | [] -> None
  | ps ->
    let rng = Soc_util.Rng.create seed in
    let stage, k = Soc_util.Rng.choose rng ps in
    Some (Kill_at (stage, k))

(* ------------------------------------------------------------------ *)
(* Service faults: exception / hang injection in the tool's own paths  *)
(* ------------------------------------------------------------------ *)

(* Crash points above kill the whole process; service faults model the
   *survivable* failures a generation service must contain: an engine
   that raises on one kernel (a poison request), an engine that wedges
   (a hung build), a worker thread that dies between jobs. Each named
   point is stepped by the corresponding layer; arming is global and
   thread-safe so a daemon under test can be poisoned from the outside
   without plumbing injector handles through every layer. *)

module Service = struct
  type point = Hls | Csim | Batch | Worker

  let point_name = function
    | Hls -> "hls"
    | Csim -> "csim"
    | Batch -> "batch"
    | Worker -> "worker"

  type behaviour =
    | Raise of string
    | Hang of float

  exception Injected of string
  exception Cancelled

  let () =
    Printexc.register_printer (function
      | Injected msg -> Some (Printf.sprintf "Soc_fault.Fault.Service.Injected(%s)" msg)
      | Cancelled -> Some "Soc_fault.Fault.Service.Cancelled"
      | _ -> None)

  type slot = {
    mutable armed : (behaviour * string option * int) option;
        (* behaviour, only-this-label filter, shots remaining *)
    mutable hits : int;
  }

  let lock = Mutex.create ()
  let released = ref false
  let fresh_slot () = { armed = None; hits = 0 }

  let slots =
    [ (Hls, fresh_slot ()); (Csim, fresh_slot ()); (Batch, fresh_slot ());
      (Worker, fresh_slot ()) ]

  let slot p = List.assq p slots

  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let arm point ?only ?(times = max_int) behaviour =
    locked (fun () ->
        released := false;
        (slot point).armed <- (if times <= 0 then None else Some (behaviour, only, times)))

  let disarm point = locked (fun () -> (slot point).armed <- None)

  let release_hangs () = locked (fun () -> released := true)

  (* Tape-corruption point: unlike the Raise/Hang behaviours above, this
     one does not throw — it hands the compiled-simulation pipeline a
     seed with which to mutate one lowered instruction, so the campaign
     can prove a miscompile is *rejected by the verifier* rather than
     silently simulated. State lives under the same lock and is cleared
     by [reset]. *)
  let corrupt_armed : (int * int) option ref = ref None (* seed, shots left *)
  let corrupt_hit_count = ref 0

  let arm_corrupt_tape ?(times = 1) ~seed () =
    locked (fun () -> corrupt_armed := (if times <= 0 then None else Some (seed, times)))

  let corrupt_tape () =
    locked (fun () ->
        match !corrupt_armed with
        | None -> None
        | Some (seed, times) ->
          corrupt_hit_count := !corrupt_hit_count + 1;
          corrupt_armed := (if times <= 1 then None else Some (seed, times - 1));
          Some seed)

  let corrupt_hits () = locked (fun () -> !corrupt_hit_count)

  let reset () =
    locked (fun () ->
        released := true;
        corrupt_armed := None;
        corrupt_hit_count := 0;
        List.iter
          (fun (_, s) ->
            s.armed <- None;
            s.hits <- 0)
          slots)

  let hits point = locked (fun () -> (slot point).hits)

  (* Cancellation probes: a thread that may wedge inside an injected
     [Hang] registers a probe for its own thread id; the hang polls it
     and aborts with [Cancelled] the moment it answers true. Where
     [release_hangs] wakes *every* sleeper and lets the build continue,
     a cancel probe aborts *one* build — the semantics a coordinator
     needs to reclaim a hedged loser without leaking a wedged thread. *)
  let probes : (int, unit -> bool) Hashtbl.t = Hashtbl.create 8

  let with_cancel probe f =
    let tid = Thread.id (Thread.self ()) in
    locked (fun () -> Hashtbl.replace probes tid probe);
    Fun.protect ~finally:(fun () -> locked (fun () -> Hashtbl.remove probes tid)) f

  let cancel_requested () =
    let tid = Thread.id (Thread.self ()) in
    match locked (fun () -> Hashtbl.find_opt probes tid) with
    | None -> false
    | Some probe -> ( try probe () with _ -> false)

  (* A releasable sleep: wakes every few milliseconds so [release_hangs]
     (or [reset]) frees a wedged thread promptly — tests and campaigns
     can abandon a hung worker and still tear the process down. A
     registered cancel probe aborts the sleep (and the enclosing build)
     with [Cancelled] instead of returning. *)
  let hang_for dur =
    let t0 = Unix.gettimeofday () in
    let rec go () =
      if cancel_requested () then raise Cancelled;
      let done_ = locked (fun () -> !released) in
      if (not done_) && Unix.gettimeofday () -. t0 < dur then begin
        Unix.sleepf 0.005;
        go ()
      end
    in
    go ()

  let step point ?label () =
    let fire =
      locked (fun () ->
          let s = slot point in
          match s.armed with
          | None -> None
          | Some (b, only, times) ->
            let matches =
              match only with None -> true | Some want -> Some want = label
            in
            if not matches then None
            else begin
              s.hits <- s.hits + 1;
              s.armed <- (if times <= 1 then None else Some (b, only, times - 1));
              Some b
            end)
    in
    match fire with
    | None -> ()
    | Some (Raise msg) ->
      raise
        (Injected
           (Printf.sprintf "%s%s: %s" (point_name point)
              (match label with Some l -> "(" ^ l ^ ")" | None -> "")
              msg))
    | Some (Hang dur) -> hang_for dur
end

(* ------------------------------------------------------------------ *)
(* Net faults: frame-level perturbation of the serve wire protocol     *)
(* ------------------------------------------------------------------ *)

(* Service faults attack the tool's own code paths; net faults attack
   the wire between a coordinator and its remote workers. The module is
   pure decision-making: the [Protocol] layer asks [decide ~link] before
   each frame write and implements the verdict itself (skip the write,
   sleep first, write twice, tear the frame, drip it byte-wise). Links
   are free-form labels — by convention ["co:w1"] for coordinator→worker
   traffic and ["wk:w1"] for the worker's replies, so a one-way
   partition is just [partition ~link:"wk:w1"]. Probabilistic verdicts
   are a pure hash of (seed, link, per-link frame ordinal): the same
   plan over the same traffic yields the same faults regardless of
   thread scheduling. Writes without a link label are never touched. *)

module Net = struct
  type action =
    | Deliver
    | Drop
    | Delay of float
    | Duplicate
    | Truncate of float
    | Drip of float

  let action_name = function
    | Deliver -> "deliver"
    | Drop -> "drop"
    | Delay _ -> "delay"
    | Duplicate -> "duplicate"
    | Truncate _ -> "truncate"
    | Drip _ -> "drip"

  type plan_ = {
    nseed : int;
    drop : float;
    delay : float;
    delay_s : float;
    duplicate : float;
    truncate : float;
    drip : float;
    drip_s : float;
  }

  let lock = Mutex.create ()
  let armed : plan_ option ref = ref None
  let partitions : (string, unit) Hashtbl.t = Hashtbl.create 8
  let frame_ord : (string, int) Hashtbl.t = Hashtbl.create 8
  let counts : (string, int) Hashtbl.t = Hashtbl.create 8

  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let bump name =
    Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))

  let arm ?(seed = 0) ?(drop = 0.) ?(delay = 0.) ?(delay_s = 0.05) ?(duplicate = 0.)
      ?(truncate = 0.) ?(drip = 0.) ?(drip_s = 0.002) () =
    locked (fun () ->
        armed :=
          Some { nseed = seed; drop; delay; delay_s; duplicate; truncate; drip; drip_s })

  let disarm () = locked (fun () -> armed := None)

  let partition ~link = locked (fun () -> Hashtbl.replace partitions link ())
  let heal ~link = locked (fun () -> Hashtbl.remove partitions link)
  let heal_all () = locked (fun () -> Hashtbl.reset partitions)
  let partitioned ~link = locked (fun () -> Hashtbl.mem partitions link)

  let reset () =
    locked (fun () ->
        armed := None;
        Hashtbl.reset partitions;
        Hashtbl.reset frame_ord;
        Hashtbl.reset counts)

  let faults () =
    locked (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])

  let fault_count name =
    locked (fun () -> Option.value ~default:0 (Hashtbl.find_opt counts name))

  let decide ~link =
    let verdict =
      locked (fun () ->
          let n = Option.value ~default:0 (Hashtbl.find_opt frame_ord link) in
          Hashtbl.replace frame_ord link (n + 1);
          if Hashtbl.mem partitions link then Drop
          else
            match !armed with
            | None -> Deliver
            | Some p ->
              (* A pure function of (seed, link, frame ordinal). *)
              let u = Soc_util.Rng.keyed_float ~seed:p.nseed ~key:link ~n in
              if u < p.drop then Drop
              else if u < p.drop +. p.delay then Delay p.delay_s
              else if u < p.drop +. p.delay +. p.duplicate then Duplicate
              else if u < p.drop +. p.delay +. p.duplicate +. p.truncate then
                (* deterministic tear fraction in [0.1, 0.9) *)
                Truncate
                  (0.1 +. (0.8 *. Soc_util.Rng.keyed_float ~seed:(p.nseed + 1) ~key:link ~n))
              else if u < p.drop +. p.delay +. p.duplicate +. p.truncate +. p.drip
              then Drip p.drip_s
              else Deliver)
    in
    (match verdict with
    | Deliver -> ()
    | a -> locked (fun () -> bump (action_name a)));
    verdict
end

(* ------------------------------------------------------------------ *)
(* Bit-flip machinery over byte strings                                *)
(* ------------------------------------------------------------------ *)

(* The same single-event-upset model as the DRAM [Bit_flip] fault, lifted
   to arbitrary blobs so corruption campaigns can fuzz disk artifacts and
   journals with it. *)

let flip_bit_in_blob s ~byte ~bit =
  let n = String.length s in
  if n = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = ((byte mod n) + n) mod n in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit land 7))));
    Bytes.to_string b
  end

let truncate_blob s ~keep =
  let keep = max 0 (min keep (String.length s)) in
  String.sub s 0 keep
