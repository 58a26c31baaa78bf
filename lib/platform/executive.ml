(** Co-simulation executive and host (driver-level) API.

    The executive owns the platform timeline, counted in PL clock cycles.
    Hardware work advances it by stepping every accelerator, DMA channel and
    FIFO one cycle at a time. Software work (GPP cost model) and AXI-Lite
    latency advance it by a known number of cycles, during which the fabric
    keeps stepping so that running accelerators make progress; once a step
    leaves the fabric quiescent — every core at a fixpoint, every DMA idle,
    every FIFO empty — the rest of those cycles is skipped in one go, up to
    the next fault of an armed plan or the watchdog deadline. Skipped
    cycles are exact: every counter, output and violation matches a
    step-by-step run, which the interpreter backend (never quiescent)
    still performs. The host API mirrors the driver interface the paper's
    flow generates: AXI-Lite register access, accelerator start/poll, and
    blocking [writeDMA]/[readDMA] calls backed by the DMA engines.

    On top of the plain driver sits a fault-tolerant layer: the executive
    can carry a {!Soc_fault.Fault.plan} that it consults once per fabric
    cycle, injecting the due faults into the simulated hardware, and
    [run_task_resilient] wraps a hardware task in the recovery ladder
    (watchdog -> soft reset + retry with backoff -> software fallback). *)

module Fault = Soc_fault.Fault

exception Deadlock of { cycle : int; detail : string list }

exception
  Bus_error of {
    addr : int;
    dir : [ `Read | `Write ];
    kind : [ `Decode | `Slverr ];
  }

exception Watchdog_expired of { cycle : int; task : string }

type failure = { attempt : int; at_cycle : int; cause : string }

exception
  Unrecoverable of {
    task : string;
    cycle : int;
    failures : failure list;
    injected : Fault.fault list;
  }

type timeline = {
  mutable total : int; (* PL cycles elapsed *)
  mutable gpp_compute : int; (* software task execution *)
  mutable bus : int; (* AXI-Lite transactions *)
  mutable hw : int; (* cycles spent driving hardware phases *)
  mutable skipped : int; (* of [total]: fast-forwarded over a quiescent fabric *)
}

type t = {
  sys : System.t;
  timeline : timeline;
  mutable last_transfer_cycle : int;
  mutable plan : Fault.plan option;
  mutable plan_base : int; (* timeline cycle at which the plan was armed *)
  mutable watchdog : (string * int) option; (* task, absolute deadline *)
}

let create sys =
  {
    sys;
    timeline = { total = 0; gpp_compute = 0; bus = 0; hw = 0; skipped = 0 };
    last_transfer_cycle = 0;
    plan = None;
    plan_base = 0;
    watchdog = None;
  }

let config t = t.sys.System.config
let dram t = t.sys.System.dram

let elapsed_cycles t = t.timeline.total
let elapsed_us t = Config.pl_cycles_to_us (config t) t.timeline.total

(* ------------------------------------------------------------------ *)
(* Fault application                                                   *)
(* ------------------------------------------------------------------ *)

(* Apply one fault to the simulated hardware. Returns [Ok ()] when the
   fault landed, [Error reason] when the plan named a unit or combination
   the system does not have. *)
let apply_raw t (f : Fault.fault) =
  let sys = t.sys in
  match (f.Fault.target, f.Fault.kind) with
  | Fault.Accel name, kind -> (
    match List.assoc_opt name sys.System.accels with
    | None -> Error "no such accelerator"
    | Some inst -> (
      match kind with
      | Fault.Hang ->
        Accel_inst.inject_hang inst ~cycles:f.Fault.duration;
        Ok ()
      | Fault.Spurious_done ->
        Accel_inst.inject_spurious_done inst;
        Ok ()
      | Fault.Corrupt_result mask ->
        Accel_inst.inject_result_corruption inst ~mask;
        Ok ()
      | _ -> Error "kind does not apply to an accelerator"))
  | Fault.Mm2s name, kind -> (
    match List.assoc_opt name sys.System.mm2s with
    | None -> Error "no such MM2S channel"
    | Some dma -> (
      match kind with
      | Fault.Dma_stall ->
        Soc_axi.Dma.inject_stall_mm2s dma ~cycles:f.Fault.duration;
        Ok ()
      | Fault.Dma_error ->
        Soc_axi.Dma.inject_error_mm2s dma;
        Ok ()
      | _ -> Error "kind does not apply to a DMA channel"))
  | Fault.S2mm name, kind -> (
    match List.assoc_opt name sys.System.s2mm with
    | None -> Error "no such S2MM channel"
    | Some dma -> (
      match kind with
      | Fault.Dma_stall ->
        Soc_axi.Dma.inject_stall_s2mm dma ~cycles:f.Fault.duration;
        Ok ()
      | Fault.Dma_error ->
        Soc_axi.Dma.inject_error_s2mm dma;
        Ok ()
      | _ -> Error "kind does not apply to a DMA channel"))
  | Fault.Fifo name, kind -> (
    match
      List.find_opt (fun (q : Soc_axi.Fifo.t) -> String.equal q.name name) sys.System.fifos
    with
    | None -> Error "no such FIFO"
    | Some fifo -> (
      match kind with
      | Fault.Fifo_stuck ->
        Soc_axi.Fifo.inject_stuck fifo ~cycles:f.Fault.duration;
        Ok ()
      | _ -> Error "kind does not apply to a FIFO"))
  | Fault.Lite_slave owner, Fault.Slave_error ->
    if Soc_axi.Lite.inject_slave_error sys.System.ic ~owner ~count:(max 1 f.Fault.duration)
    then Ok ()
    else Error "no such AXI-Lite slave"
  | Fault.Lite_slave _, _ -> Error "kind does not apply to an AXI-Lite slave"
  | Fault.Dram_word addr, Fault.Bit_flip b -> (
    try
      let v = Soc_axi.Dram.read sys.System.dram addr in
      Soc_axi.Dram.write sys.System.dram addr (v lxor (1 lsl (b land 31)));
      Ok ()
    with Invalid_argument _ -> Error "address outside DRAM")
  | Fault.Dram_word _, _ -> Error "kind does not apply to DRAM"

let apply_fault t plan (f : Fault.fault) =
  let cycle = t.timeline.total in
  let ctrs = Fault.counters plan in
  match apply_raw t f with
  | Ok () ->
    Fault.record plan (Fault.Injected { cycle; fault = f });
    Soc_util.Metrics.Counters.incr ctrs "injected"
  | Error reason ->
    Fault.record plan (Fault.Skipped { cycle; fault = f; reason });
    Soc_util.Metrics.Counters.incr ctrs "skipped"

let set_fault_plan t plan =
  t.plan <- Some plan;
  t.plan_base <- t.timeline.total

let clear_fault_plan t = t.plan <- None

let inventory ?dram_range t =
  {
    Fault.accels = List.map fst t.sys.System.accels;
    mm2s = List.map fst t.sys.System.mm2s;
    s2mm = List.map fst t.sys.System.s2mm;
    fifos = List.map (fun (q : Soc_axi.Fifo.t) -> q.name) t.sys.System.fifos;
    slaves = List.map (fun (o, _, _) -> o) (Soc_axi.Lite.address_map t.sys.System.ic);
    dram_range;
  }

(* ------------------------------------------------------------------ *)
(* Cycle-level stepping                                                *)
(* ------------------------------------------------------------------ *)

(* One PL cycle of the whole fabric. Returns true if any stream beat moved
   anywhere (accelerator handshake or DMA beat). With no armed fault plan
   and no watchdog the prologue is two cheap matches, so the timeline is
   bit-identical to a build without the fault subsystem. *)
let step_fabric t =
  (match t.plan with
  | None -> ()
  | Some plan ->
    let rel = t.timeline.total - t.plan_base in
    List.iter (apply_fault t plan) (Fault.due plan ~cycle:rel));
  (match t.watchdog with
  | Some (task, deadline) when t.timeline.total >= deadline ->
    t.watchdog <- None;
    raise (Watchdog_expired { cycle = t.timeline.total; task })
  | _ -> ());
  let moved = ref false in
  List.iter (fun (_, inst) -> if Accel_inst.step inst then moved := true) t.sys.System.accels;
  List.iter
    (fun (_, (dma : Soc_axi.Dma.mm2s)) ->
      let before = dma.Soc_axi.Dma.m_total_beats in
      Soc_axi.Dma.step_mm2s dma;
      if dma.Soc_axi.Dma.m_total_beats <> before then moved := true)
    t.sys.System.mm2s;
  List.iter
    (fun (_, (dma : Soc_axi.Dma.s2mm)) ->
      let before = dma.Soc_axi.Dma.s_total_beats in
      Soc_axi.Dma.step_s2mm dma;
      if dma.Soc_axi.Dma.s_total_beats <> before then moved := true)
    t.sys.System.s2mm;
  List.iter Soc_axi.Fifo.commit t.sys.System.fifos;
  t.timeline.total <- t.timeline.total + 1;
  t.timeline.hw <- t.timeline.hw + 1;
  if !moved then t.last_transfer_cycle <- t.timeline.total;
  !moved

let deadlock_detail t =
  List.map
    (fun (name, inst) ->
      Printf.sprintf "%s: done=%b idle=%b" name (Accel_inst.is_done inst)
        (Accel_inst.is_idle inst))
    t.sys.System.accels
  @ System.fifo_stats t.sys

(* Advance the fabric until [pred ()] holds. *)
let run_until t pred =
  let window = (config t).Config.deadlock_window in
  while not (pred ()) do
    ignore (step_fabric t);
    if t.timeline.total - t.last_transfer_cycle > window then
      raise (Deadlock { cycle = t.timeline.total; detail = deadlock_detail t })
  done

(* The fabric is quiescent when its next step would repeat the last one
   exactly: every accelerator's last step was still, every DMA channel is
   idle and not stalled, and every FIFO is empty, with nothing staged and
   not stuck. Asked only right after a step, before the host acts. *)
let quiescent t =
  let sys = t.sys in
  List.for_all (fun (_, inst) -> Accel_inst.still inst) sys.System.accels
  && List.for_all
       (fun (_, (d : Soc_axi.Dma.mm2s)) -> (not d.m_busy) && d.m_stall = 0)
       sys.System.mm2s
  && List.for_all
       (fun (_, (d : Soc_axi.Dma.s2mm)) -> (not d.s_busy) && d.s_stall = 0)
       sys.System.s2mm
  && List.for_all
       (fun (q : Soc_axi.Fifo.t) -> Soc_axi.Fifo.occupancy q = 0 && q.stuck_cycles = 0)
       sys.System.fifos

(* How many of the next [left] steps a quiescent fabric may skip: none
   past the watchdog deadline (the step at the deadline raises) or past
   the next fault of an armed plan (the step at its cycle applies it). *)
let skip_window t left =
  let now = t.timeline.total in
  let k =
    match t.watchdog with Some (_, deadline) -> min left (deadline - now) | None -> left
  in
  match t.plan with
  | Some plan -> (
    match Fault.next_at plan with Some at -> min k (t.plan_base + at - now) | None -> k)
  | None -> k

(* Step the fabric for [n] cycles of software ([~gpp:true]: not counted as
   hardware time) or bus latency. After a step in which nothing moved, a
   quiescent fabric skips ahead in O(#accelerators). *)
let run_cycles t ~gpp n =
  let left = ref n in
  while !left > 0 do
    let moved = step_fabric t in
    decr left;
    let k = if moved || !left = 0 || not (quiescent t) then 0 else skip_window t !left in
    if k > 0 then begin
      List.iter (fun (_, inst) -> Accel_inst.skip inst k) t.sys.System.accels;
      t.timeline.total <- t.timeline.total + k;
      t.timeline.hw <- t.timeline.hw + k;
      t.timeline.skipped <- t.timeline.skipped + k;
      left := !left - k
    end;
    if gpp then t.timeline.hw <- t.timeline.hw - 1 - k
  done

(* Advance the clock by pure GPP time. The fabric still ticks so that
   concurrently running accelerators make progress. *)
let advance_gpp t cycles =
  t.timeline.gpp_compute <- t.timeline.gpp_compute + cycles;
  run_cycles t ~gpp:true cycles

(* ------------------------------------------------------------------ *)
(* Host / driver API                                                   *)
(* ------------------------------------------------------------------ *)

let bus_write t addr v =
  match Soc_axi.Lite.bus_write t.sys.System.ic addr v with
  | Ok lat ->
    t.timeline.bus <- t.timeline.bus + lat;
    run_cycles t ~gpp:false lat
  | Error (Soc_axi.Lite.No_slave a) ->
    raise (Bus_error { addr = a; dir = `Write; kind = `Decode })
  | Error (Soc_axi.Lite.Slave_error a) ->
    raise (Bus_error { addr = a; dir = `Write; kind = `Slverr })

let bus_read t addr =
  match Soc_axi.Lite.bus_read t.sys.System.ic addr with
  | Ok (v, lat) ->
    t.timeline.bus <- t.timeline.bus + lat;
    run_cycles t ~gpp:false lat;
    v
  | Error (Soc_axi.Lite.No_slave a) ->
    raise (Bus_error { addr = a; dir = `Read; kind = `Decode })
  | Error (Soc_axi.Lite.Slave_error a) ->
    raise (Bus_error { addr = a; dir = `Read; kind = `Slverr })

let regfile_base t name = (Accel_inst.regfile (System.accel t.sys name)).Soc_axi.Lite.base

(* Driver call: write one scalar argument of an accelerator. *)
let set_arg t ~accel:name ~port v =
  let inst = System.accel t.sys name in
  bus_write t (regfile_base t name + Accel_inst.arg_offset inst port) v

let get_arg t ~accel:name ~port =
  let inst = System.accel t.sys name in
  bus_read t (regfile_base t name + Accel_inst.arg_offset inst port)

let start_accel t name =
  Accel_inst.arm (System.accel t.sys name);
  bus_write t (regfile_base t name + Soc_axi.Lite.ctrl_offset) 1

(* Poll the status register until the sticky done bit is set. Polling has
   the granularity of a bus read, like a real /dev/mem spin loop. *)
let wait_accel t name =
  let addr = regfile_base t name + Soc_axi.Lite.status_offset in
  let rec poll () =
    let v = bus_read t addr in
    if v land 1 = 0 then begin
      let window = (config t).Config.deadlock_window in
      if t.timeline.total - t.last_transfer_cycle > window
         && not (Accel_inst.is_done (System.accel t.sys name))
      then raise (Deadlock { cycle = t.timeline.total; detail = deadlock_detail t })
      else poll ()
    end
  in
  poll ()

(* Interrupt-driven completion: instead of spinning on status reads (each a
   full AXI-Lite round trip), the GPP blocks until the accelerator raises
   its done line, then pays one interrupt-service overhead plus a single
   acknowledging status read. On the Zedboard this is the difference
   between a /dev/mem poll loop and the UIO interrupt the generated device
   tree declares for each core. *)
let irq_service_gpp_cycles = 220.0

let wait_accel_irq t name =
  let inst = System.accel t.sys name in
  run_until t (fun () -> Accel_inst.is_done inst);
  advance_gpp t (Config.gpp_to_pl_cycles (config t) irq_service_gpp_cycles);
  ignore (bus_read t (regfile_base t name + Soc_axi.Lite.status_offset))

(* Blocking writeDMA: stream [len] words from DRAM address [addr] into the
   channel and wait for completion. *)
let write_dma t ~channel ~addr ~len =
  let dma = List.assoc channel t.sys.System.mm2s in
  Soc_axi.Dma.start_mm2s dma ~addr ~len;
  run_until t (fun () -> Soc_axi.Dma.mm2s_idle dma)

(* Non-blocking variants used to run a whole dataflow phase concurrently. *)
let start_write_dma t ~channel ~addr ~len =
  Soc_axi.Dma.start_mm2s (List.assoc channel t.sys.System.mm2s) ~addr ~len

let start_read_dma t ~channel ~addr ~len =
  Soc_axi.Dma.start_s2mm (List.assoc channel t.sys.System.s2mm) ~addr ~len

let dma_all_idle t =
  List.for_all (fun (_, d) -> Soc_axi.Dma.mm2s_idle d) t.sys.System.mm2s
  && List.for_all (fun (_, d) -> Soc_axi.Dma.s2mm_idle d) t.sys.System.s2mm

(* Run a streaming phase to completion: all DMA descriptors retired and all
   named accelerators done. *)
let run_phase t ~accels =
  run_until t (fun () ->
      dma_all_idle t
      && List.for_all (fun name -> Accel_inst.is_done (System.accel t.sys name)) accels)

(* Software task execution on the GPP (see {!Gpp}); advances the clock. *)
let run_software t kernel ~scalars ~stream_bufs_in ~stream_bufs_out =
  let r =
    Gpp.run_task (config t) (dram t) kernel ~scalars ~stream_bufs_in ~stream_bufs_out
  in
  advance_gpp t r.Gpp.pl_cycles;
  r

(* ------------------------------------------------------------------ *)
(* Fault-tolerant driver layer                                         *)
(* ------------------------------------------------------------------ *)

(* DMA channels whose current/last descriptor aborted with a transfer
   error. *)
let dma_faults t =
  List.filter_map
    (fun (n, d) -> if Soc_axi.Dma.mm2s_ok d then None else Some n)
    t.sys.System.mm2s
  @ List.filter_map
      (fun (n, d) -> if Soc_axi.Dma.s2mm_ok d then None else Some n)
      t.sys.System.s2mm

(* Full fabric reset: every accelerator back to its post-bitstream state,
   every DMA channel and FIFO cleared. Permanent injected faults model
   broken silicon, so a driver-level reset cannot heal them: they are
   silently re-applied. *)
let soft_reset_all t =
  List.iter (fun (_, inst) -> Accel_inst.soft_reset inst) t.sys.System.accels;
  List.iter (fun (_, d) -> Soc_axi.Dma.reset_mm2s d) t.sys.System.mm2s;
  List.iter (fun (_, d) -> Soc_axi.Dma.reset_s2mm d) t.sys.System.s2mm;
  List.iter Soc_axi.Fifo.flush t.sys.System.fifos;
  t.last_transfer_cycle <- t.timeline.total;
  match t.plan with
  | None -> ()
  | Some plan ->
    let units =
      List.map fst t.sys.System.accels
      @ List.map fst t.sys.System.mm2s
      @ List.map fst t.sys.System.s2mm
    in
    Fault.record plan (Fault.Reset { cycle = t.timeline.total; units });
    Soc_util.Metrics.Counters.incr (Fault.counters plan) "resets";
    List.iter
      (fun (f : Fault.fault) ->
        if f.Fault.duration = Fault.permanent then ignore (apply_raw t f))
      (Fault.injected_faults plan)

type outcome = Hardware | Fallback

type report = {
  task : string;
  attempts_made : int;
  outcome : outcome;
  failures : failure list;
}

let pp_report fmt r =
  Format.fprintf fmt "%s: %s after %d attempt%s" r.task
    (match r.outcome with
    | Hardware -> "completed in hardware"
    | Fallback -> "fell back to software")
    r.attempts_made
    (if r.attempts_made = 1 then "" else "s");
  List.iter
    (fun f ->
      Format.fprintf fmt "@.  attempt %d failed at cycle %d: %s" f.attempt f.at_cycle
        f.cause)
    r.failures

(* The recovery ladder. Run [run] as one hardware attempt under a watchdog;
   on any detected failure (watchdog expiry, fabric deadlock, bus error,
   DMA transfer error, failed verification) soft-reset the fabric and retry
   after an exponentially growing backoff; after the config's
   [max_attempts] hardware attempts, re-dispatch to the GPP via
   [fallback], or raise {!Unrecoverable} when no fallback exists. *)
let run_task_resilient ?timeout ?verify ?fallback t ~task run =
  let cfg = config t in
  let timeout = Option.value timeout ~default:cfg.Config.watchdog_cycles in
  let log e = match t.plan with Some p -> Fault.record p e | None -> () in
  let bump key =
    match t.plan with
    | Some p -> Soc_util.Metrics.Counters.incr (Fault.counters p) key
    | None -> ()
  in
  let failures = ref [] in
  let rec attempt i =
    t.watchdog <- Some (task, t.timeline.total + timeout);
    let result =
      match run () with
      | () -> (
        t.watchdog <- None;
        match dma_faults t with
        | [] -> (
          match verify with
          | Some v when not (v ()) -> Error "result verification failed"
          | _ -> Ok ())
        | chans -> Error ("DMA transfer error on " ^ String.concat ", " chans))
      | exception Watchdog_expired _ ->
        t.watchdog <- None;
        Error (Printf.sprintf "watchdog expired after %d cycles" timeout)
      | exception Deadlock { cycle; _ } ->
        t.watchdog <- None;
        Error (Printf.sprintf "fabric deadlock at cycle %d" cycle)
      | exception Bus_error { addr; dir; kind } ->
        t.watchdog <- None;
        Error
          (Printf.sprintf "bus error: %s 0x%x %s"
             (match dir with `Read -> "read" | `Write -> "write")
             addr
             (match kind with
             | `Decode -> "decoded to no slave"
             | `Slverr -> "answered SLVERR"))
    in
    match result with
    | Ok () ->
      if i > 1 then begin
        bump "recovered";
        log (Fault.Recovered { cycle = t.timeline.total; task; attempts = i })
      end;
      { task; attempts_made = i; outcome = Hardware; failures = List.rev !failures }
    | Error cause ->
      failures := { attempt = i; at_cycle = t.timeline.total; cause } :: !failures;
      bump "detected";
      log (Fault.Detected { cycle = t.timeline.total; unit_ = task; what = cause });
      soft_reset_all t;
      if i < cfg.Config.max_attempts then begin
        let pause = cfg.Config.retry_backoff_cycles * (1 lsl (i - 1)) in
        bump "retried";
        log (Fault.Retried { cycle = t.timeline.total; task; attempt = i + 1; backoff = pause });
        advance_gpp t pause;
        attempt (i + 1)
      end
      else begin
        match fallback with
        | Some sw ->
          bump "fell_back";
          log (Fault.Fell_back { cycle = t.timeline.total; task });
          sw ();
          { task; attempts_made = i; outcome = Fallback; failures = List.rev !failures }
        | None ->
          bump "unrecovered";
          log (Fault.Unrecovered { cycle = t.timeline.total; task });
          raise
            (Unrecoverable
               {
                 task;
                 cycle = t.timeline.total;
                 failures = List.rev !failures;
                 injected =
                   (match t.plan with
                   | Some p -> Fault.injected_faults p
                   | None -> []);
               })
      end
  in
  attempt 1

(* Uncaught platform exceptions should explain themselves. *)
let () =
  Printexc.register_printer (function
    | Deadlock { cycle; detail } ->
      Some
        (Printf.sprintf "Executive.Deadlock at cycle %d:\n  %s" cycle
           (String.concat "\n  " detail))
    | Bus_error { addr; dir; kind } ->
      Some
        (Printf.sprintf "Executive.Bus_error: %s 0x%x %s"
           (match dir with `Read -> "read at" | `Write -> "write at")
           addr
           (match kind with
           | `Decode -> "decoded to no slave"
           | `Slverr -> "answered SLVERR"))
    | Watchdog_expired { cycle; task } ->
      Some (Printf.sprintf "Executive.Watchdog_expired: task %s at cycle %d" task cycle)
    | Unrecoverable { task; cycle; failures; injected } ->
      let b = Buffer.create 128 in
      Buffer.add_string b
        (Printf.sprintf "Executive.Unrecoverable: task %s at cycle %d" task cycle);
      List.iter
        (fun f ->
          Buffer.add_string b
            (Printf.sprintf "\n  attempt %d failed at cycle %d: %s" f.attempt f.at_cycle
               f.cause))
        failures;
      List.iter
        (fun f -> Buffer.add_string b ("\n  injected: " ^ Fault.fault_to_string f))
        injected;
      Some (Buffer.contents b)
    | _ -> None)
