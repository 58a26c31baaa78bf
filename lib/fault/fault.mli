(** Deterministic, seed-driven fault injection for the co-simulated
    platform.

    A {!plan} is a list of faults — each with an injection cycle (relative
    to the cycle the plan is armed), a target unit and a duration — plus a
    structured event log and counters. The platform executive consults the
    plan once per fabric cycle and applies due faults to the simulated
    hardware; the fault-tolerant driver layer records detections,
    retries, fallbacks and resets into the same plan, so one object holds
    the full chaos narrative of a run.

    Plans are built either from an explicit scenario list or from a
    {!Soc_util.Rng} seed ({!random_campaign}), and are reproducible from
    the seed alone. *)

type target =
  | Accel of string  (** accelerator instance name *)
  | Mm2s of string  (** DMA read channel name *)
  | S2mm of string  (** DMA write channel name *)
  | Fifo of string  (** stream FIFO name *)
  | Lite_slave of string  (** AXI-Lite register-file owner *)
  | Dram_word of int  (** DRAM word address *)

type kind =
  | Hang  (** accelerator stops making progress; status never goes done *)
  | Spurious_done
      (** accelerator latches done early without completing, then wedges *)
  | Corrupt_result of int  (** XOR mask applied to the first scalar result *)
  | Dma_stall  (** DMA channel makes no progress for [duration] cycles *)
  | Dma_error  (** DMA descriptor aborts with a transfer error *)
  | Fifo_stuck  (** FIFO asserts full (refuses pushes) for [duration] cycles *)
  | Slave_error  (** next [duration] AXI-Lite accesses to the slave SLVERR *)
  | Bit_flip of int  (** flip bit [b] of the targeted DRAM word *)

type fault = {
  at_cycle : int;  (** injection cycle, relative to plan arming *)
  target : target;
  kind : kind;
  duration : int;  (** transient length in cycles; {!permanent} = forever *)
}

val permanent : int
(** Duration marking a permanent fault (never self-heals). *)

val fault_to_string : fault -> string

(** {2 Structured fault/recovery event log} *)

type event =
  | Injected of { cycle : int; fault : fault }
  | Skipped of { cycle : int; fault : fault; reason : string }
      (** the plan named a unit the system does not have *)
  | Detected of { cycle : int; unit_ : string; what : string }
  | Reset of { cycle : int; units : string list }
  | Retried of { cycle : int; task : string; attempt : int; backoff : int }
  | Fell_back of { cycle : int; task : string }
  | Recovered of { cycle : int; task : string; attempts : int }
  | Unrecovered of { cycle : int; task : string }

(** {2 Plans} *)

type plan

val plan_of_faults : ?seed:int -> fault list -> plan
(** Faults are sorted by injection cycle; [seed] is carried for
    reporting only. *)

val seed : plan -> int option
val faults : plan -> fault list

val due : plan -> cycle:int -> fault list
(** Faults whose injection cycle has arrived. Each fault is returned
    exactly once over the life of the plan. *)

val next_at : plan -> int option
(** Injection cycle of the earliest fault not yet returned by {!due}. *)

val record : plan -> event -> unit
val events : plan -> event list
(** Chronological. *)

val counters : plan -> Soc_util.Metrics.Counters.t
(** Keys used by the runtime: injected, skipped, detected, resets,
    retried, recovered, fell_back, unrecovered. *)

val injected_faults : plan -> fault list
(** The faults actually applied so far, in injection order. *)

val render_report : ?label:string -> plan -> string
(** Human-readable health report: seed, counters, event log. *)

(** {2 Seeded campaign generation} *)

type inventory = {
  accels : string list;
  mm2s : string list;
  s2mm : string list;
  fifos : string list;
  slaves : string list;
  dram_range : (int * int) option;  (** word address, length *)
}
(** What a system exposes to the injector (see
    [Soc_platform.Executive.inventory]). *)

val random_campaign :
  seed:int ->
  n:int ->
  horizon:int ->
  ?include_permanent:bool ->
  ?include_bit_flips:bool ->
  inventory ->
  fault list
(** [n] faults with injection cycles uniform in [0, horizon), drawn over
    the inventory. By default every generated fault is recoverable
    (transient hangs, spurious dones, DMA stalls and transfer errors,
    stuck FIFOs, slave errors); [include_permanent] adds permanently dead
    accelerators, [include_bit_flips] adds single-bit DRAM flips inside
    [dram_range]. Deterministic in [seed]. *)

(** {2 Crash points (tool-level kill injection)} *)

type crash_point = Kill_at of string * int
    (** Kill the run when the [k]-th job of [stage] is in-flight —
        journaled as started, no work done yet. Stage names are the flow's
        job categories ([hls], [integrate], [synth], [swgen],
        [finalize]). *)

exception Killed of string * int
(** Raised by {!crash_step} when the armed point (or anything after the
    kill) is reached; carries the armed [(stage, index)]. *)

type crash_injector

val arm : crash_point option -> crash_injector
(** A fresh injector; [None] never fires. Domain-safe. *)

val crash_step : crash_injector -> stage:string -> unit
(** Count one job of [stage]; raises {!Killed} at the armed point and at
    {e every} call after it (a dead process runs nothing). Deterministic:
    the decision depends only on the armed point and the per-stage call
    ordinal. *)

val crashed : crash_injector -> (string * int) option
(** The point this injector fired at, if it has. *)

val pick_kill_point : seed:int -> (string * int) list -> crash_point option
(** Seeded uniform choice among enumerated kill points; [None] on an
    empty list. *)

(** {2 Service faults (survivable tool-level failures)} *)

(** Deterministic exception / hang injection in the tool's own code
    paths. Where {!crash_point} kills the whole process, a service fault
    models what a *supervised* generation daemon must contain and
    recover from: an HLS engine that raises on one kernel (a poison
    request), a compiled-simulator lowering that fails (degrade to the
    interpreter), a batch planner crash, a worker thread that dies.
    Arming is global and thread-safe; every injection point is a no-op
    unless explicitly armed, so production paths pay one mutex-free
    [None] check. *)
module Service : sig
  type point =
    | Hls  (** stepped at each real HLS engine invocation, label = kernel name *)
    | Csim  (** stepped at each compiled-tape lowering *)
    | Batch  (** stepped at each [Farm.build_batch] entry, label = design names *)
    | Worker  (** stepped by each serve worker between jobs *)

  type behaviour =
    | Raise of string  (** raise {!Injected} with this message *)
    | Hang of float  (** sleep up to this many seconds (releasable) *)

  exception Injected of string

  exception Cancelled
  (** Raised out of an injected [Hang] when the current thread's cancel
      probe (see {!with_cancel}) answers true — the build is being
      abandoned, not resumed. *)

  val arm : point -> ?only:string -> ?times:int -> behaviour -> unit
  (** Arm [point]: the next [times] (default: unlimited) steps whose
      label matches [only] (default: any) perform [behaviour]. Re-arming
      replaces the previous setting. *)

  val disarm : point -> unit

  val step : point -> ?label:string -> unit -> unit
  (** Consult the armed behaviour; called by the instrumented layers. *)

  val hits : point -> int
  (** How many times [point] actually fired since the last {!reset}. *)

  val release_hangs : unit -> unit
  (** Wake every thread currently sleeping in an injected [Hang] (and
      make future hangs return immediately until the next {!arm}). *)

  val with_cancel : (unit -> bool) -> (unit -> 'a) -> 'a
  (** [with_cancel probe f] registers [probe] as the calling thread's
      cancellation check for the duration of [f]. An injected [Hang]
      reached inside [f] polls the probe and raises {!Cancelled} as soon
      as it answers true, so a cancelled build aborts instead of
      sleeping out its hang (where {!release_hangs} would let it finish
      normally). The probe is polled outside the injector lock and must
      be cheap and exception-free. *)

  val arm_corrupt_tape : ?times:int -> seed:int -> unit -> unit
  (** Arm the tape-corruption point: the next [times] (default 1)
      compiled-simulation lowerings mutate one instruction of the lowered
      tape with this seed, exercising the translation validator's
      rejection path instead of raising. *)

  val corrupt_tape : unit -> int option
  (** Consult the corruption point (called by the tape pipeline); [Some
      seed] means this lowering must corrupt itself. Decrements the
      armed shot count. *)

  val corrupt_hits : unit -> int
  (** How many lowerings were corrupted since the last {!reset}. *)

  val reset : unit -> unit
  (** Disarm every point (including the tape-corruption point), zero the
      hit counters, release hangs. *)
end

(** {2 Net faults (serve wire-protocol perturbation)} *)

(** Deterministic frame-level faults on the coordinator↔worker wire.
    This module only *decides*; the [Protocol] layer consults
    [decide ~link] before each labelled frame write and implements the
    verdict (drop the write, sleep first, send twice, tear the frame
    with a half-close, drip it in byte chunks). Links are free-form
    labels — by convention ["co:<worker>"] for coordinator→worker
    frames and ["wk:<worker>"] for the worker's replies, so
    [partition ~link:"wk:w1"] is a one-way partition: the worker hears
    requests but its answers vanish. Probabilistic verdicts are a pure
    hash of (seed, link, per-link frame ordinal) — reproducible from
    the plan regardless of thread interleaving. Frame writes without a
    link label (ordinary client↔server traffic) are never perturbed. *)
module Net : sig
  type action =
    | Deliver  (** write the frame normally *)
    | Drop  (** pretend success; write nothing *)
    | Delay of float  (** sleep this many seconds, then write *)
    | Duplicate  (** write the frame twice *)
    | Truncate of float
        (** write only this fraction of the frame, then half-close the
            socket so the peer sees a torn frame *)
    | Drip of float  (** write byte-by-byte chunks with this delay between *)

  val arm :
    ?seed:int ->
    ?drop:float ->
    ?delay:float ->
    ?delay_s:float ->
    ?duplicate:float ->
    ?truncate:float ->
    ?drip:float ->
    ?drip_s:float ->
    unit ->
    unit
  (** Arm a probabilistic plan: each labelled frame independently draws
      one verdict with the given probabilities (cumulative; the
      remainder delivers). [delay_s] and [drip_s] tune the injected
      latencies. Re-arming replaces the previous plan. *)

  val disarm : unit -> unit
  (** Drop the probabilistic plan; partitions stay up. *)

  val partition : link:string -> unit
  (** Every frame written on [link] is dropped until {!heal}. *)

  val heal : link:string -> unit
  val heal_all : unit -> unit
  val partitioned : link:string -> bool

  val decide : link:string -> action
  (** The verdict for the next frame on [link]; counts the frame and
      any non-[Deliver] verdict. *)

  val faults : unit -> (string * int) list
  (** Non-[Deliver] verdicts handed out since the last {!reset}, by
      action name. *)

  val fault_count : string -> int
  (** One counter from {!faults} (0 when absent). *)

  val reset : unit -> unit
  (** Disarm, heal all partitions, zero counters and frame ordinals. *)
end

(** {2 Bit-flip machinery over byte strings} *)

val flip_bit_in_blob : string -> byte:int -> bit:int -> string
(** Flip one bit of a copy of the blob — the DRAM single-event-upset
    model lifted to disk artifacts/journals ([byte] wraps modulo the
    length; the empty blob is returned unchanged). *)

val truncate_blob : string -> keep:int -> string
(** The first [keep] bytes (clamped) — a torn write at a kill point. *)
