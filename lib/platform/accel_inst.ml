(** An instantiated accelerator wired to its AXI-Lite register file and
    AXI-Stream FIFOs, at one of two abstraction levels:

    - {b RTL}: cycle-accurate simulation of the synthesized FSMD netlist
      (the default — what "running the generated bitstream" means here);
    - {b behavioural}: the kernel's CFG executed by the resumable
      interpreter, paced at one stream beat per cycle — an idealized
      fully-pipelined model used for fast functional co-simulation and as
      a performance upper bound. Both modes honour the same AXI-Lite
      control protocol and FIFO handshakes, so they are interchangeable
      inside a system.

    Control protocol (HLS [s_axilite]): ctrl bit 0 = ap_start
    (self-clearing); status bit 0 = sticky ap_done; argument registers are
    forwarded into the datapath, scalar results copied back at
    completion. Every stream output is watched by an AXI protocol
    checker.

    An RTL core resolves its ports when they are bound: each stream
    binding carries its FIFO and netlist signals (and, for an output, its
    protocol checker), each scalar input its signal and register offset,
    so a cycle looks nothing up by name. A step also reports whether it
    was a fixpoint ({!still}); the executive uses that to skip cycles in
    which nothing in the fabric can change. *)

module Fsmd = Soc_hls.Fsmd
module Sim = Soc_rtl_compile.Engine

type rtl_in = { ri_fifo : Soc_axi.Fifo.t; ri_sigs : Fsmd.stream_in_sigs }

type rtl_out = {
  ro_fifo : Soc_axi.Fifo.t;
  ro_sigs : Fsmd.stream_out_sigs;
  ro_monitor : Soc_axi.Stream_rules.t;
}

type rtl_engine = {
  fsmd : Fsmd.t;
  sim : Sim.t;
  scalars : (Soc_rtl.Netlist.signal * int) array; (* input signal, register offset *)
  mutable ins : rtl_in array;
  mutable outs : rtl_out array;
}

type behavioral_engine = {
  cfg : Soc_kernel.Cfg.t;
  mutable inst : Soc_kernel.Interp.state option;
}

(* Interpreter steps a behavioural instance may take in one cycle. *)
let max_ops_per_cycle = 100_000

type engine = Rtl of rtl_engine | Behavioral of behavioral_engine

type t = {
  name : string;
  engine : engine;
  regfile : Soc_axi.Lite.regfile;
  scalar_in_ports : string list;
  scalar_out_ports : string list;
  stream_in_ports : string list;
  stream_out_ports : string list;
  arg_offsets : (string * int) list;
  mutable in_bindings : (string * Soc_axi.Fifo.t) list;
  mutable out_bindings : (string * Soc_axi.Fifo.t) list;
  monitors : (string * Soc_axi.Stream_rules.t) list;
  mutable done_latched : bool;
  mutable still : bool; (* the last step changed nothing; see [step_rtl] *)
  mutable hang_cycles : int; (* injected: 0 = healthy, max_int = permanent *)
  mutable corrupt_mask : int option; (* injected: XORed into the next result *)
}

(* Argument registers are numbered scalar inputs first, then outputs. *)
let arg_offsets_of ~scalar_in_ports ~scalar_out_ports =
  List.mapi (fun i p -> (p, Soc_axi.Lite.arg_offset i)) (scalar_in_ports @ scalar_out_ports)

let make_common ~name ~engine ~regfile ~scalar_in_ports ~scalar_out_ports
    ~stream_in_ports ~stream_out_ports =
  {
    name;
    engine;
    regfile;
    scalar_in_ports;
    scalar_out_ports;
    stream_in_ports;
    stream_out_ports;
    arg_offsets = arg_offsets_of ~scalar_in_ports ~scalar_out_ports;
    in_bindings = [];
    out_bindings = [];
    monitors =
      List.map (fun port -> (port, Soc_axi.Stream_rules.create (name ^ "." ^ port)))
        stream_out_ports;
    done_latched = false;
    still = false;
    hang_cycles = 0;
    corrupt_mask = None;
  }

let create ~name ~(fsmd : Fsmd.t) ~regfile =
  let scalar_in_ports = List.map fst fsmd.scalar_in in
  let scalar_out_ports = List.map fst fsmd.scalar_out in
  let offsets = arg_offsets_of ~scalar_in_ports ~scalar_out_ports in
  let scalars =
    Array.of_list (List.map (fun (port, signal) -> (signal, List.assoc port offsets)) fsmd.scalar_in)
  in
  make_common ~name
    ~engine:(Rtl { fsmd; sim = Sim.create fsmd.netlist; scalars; ins = [||]; outs = [||] })
    ~regfile ~scalar_in_ports ~scalar_out_ports
    ~stream_in_ports:(List.map fst fsmd.stream_in)
    ~stream_out_ports:(List.map fst fsmd.stream_out)

let create_behavioral ~name ~(kernel : Soc_kernel.Ast.kernel) ~regfile =
  let cfg = Soc_kernel.Cfg.of_kernel kernel in
  let scalar name_dir =
    List.filter_map
      (function
        | Soc_kernel.Ast.Scalar { pname; dir; _ } when dir = name_dir -> Some pname
        | _ -> None)
      kernel.Soc_kernel.Ast.ports
  in
  let stream name_dir =
    List.filter_map
      (function
        | Soc_kernel.Ast.Stream { pname; dir; _ } when dir = name_dir -> Some pname
        | _ -> None)
      kernel.Soc_kernel.Ast.ports
  in
  make_common ~name
    ~engine:(Behavioral { cfg; inst = None })
    ~regfile
    ~scalar_in_ports:(scalar Soc_kernel.Ast.In)
    ~scalar_out_ports:(scalar Soc_kernel.Ast.Out)
    ~stream_in_ports:(stream Soc_kernel.Ast.In)
    ~stream_out_ports:(stream Soc_kernel.Ast.Out)

let regfile t = t.regfile

let arg_offset t port =
  match List.assoc_opt port t.arg_offsets with
  | Some off -> off
  | None -> invalid_arg (t.name ^ ": no scalar port " ^ port)

let bind_input t ~port fifo =
  if not (List.mem port t.stream_in_ports) then
    invalid_arg (t.name ^ ": no input stream " ^ port);
  if List.mem_assoc port t.in_bindings then
    invalid_arg (t.name ^ ": input stream " ^ port ^ " already bound");
  t.in_bindings <- (port, fifo) :: t.in_bindings;
  match t.engine with
  | Rtl e ->
    e.ins <- Array.append [| { ri_fifo = fifo; ri_sigs = List.assoc port e.fsmd.Fsmd.stream_in } |] e.ins
  | Behavioral _ -> ()

let bind_output t ~port fifo =
  if not (List.mem port t.stream_out_ports) then
    invalid_arg (t.name ^ ": no output stream " ^ port);
  if List.mem_assoc port t.out_bindings then
    invalid_arg (t.name ^ ": output stream " ^ port ^ " already bound");
  t.out_bindings <- (port, fifo) :: t.out_bindings;
  match t.engine with
  | Rtl e ->
    let b =
      { ro_fifo = fifo;
        ro_sigs = List.assoc port e.fsmd.Fsmd.stream_out;
        ro_monitor = List.assoc port t.monitors }
    in
    e.outs <- Array.append [| b |] e.outs
  | Behavioral _ -> ()

let unbound_streams t =
  List.filter_map
    (fun p -> if List.mem_assoc p t.in_bindings then None else Some ("in:" ^ p))
    t.stream_in_ports
  @ List.filter_map
      (fun p -> if List.mem_assoc p t.out_bindings then None else Some ("out:" ^ p))
      t.stream_out_ports

let is_done t = t.done_latched
let name t = t.name
let bound_fifos t = List.map snd t.in_bindings @ List.map snd t.out_bindings
let input_bindings t = t.in_bindings
let output_bindings t = t.out_bindings

let is_idle t =
  match t.engine with
  | Rtl { fsmd; sim } -> Sim.value sim fsmd.Fsmd.ap_idle = 1
  | Behavioral b -> b.inst = None

let started t = Soc_axi.Lite.rf_peek t.regfile ~offset:Soc_axi.Lite.ctrl_offset land 1 = 1

let finish t ~out_scalars =
  (* An injected result corruption lands on the first scalar result as it
     is copied back, exactly once. *)
  let out_scalars =
    match (t.corrupt_mask, out_scalars) with
    | Some mask, (port, v) :: rest ->
      t.corrupt_mask <- None;
      (port, v lxor mask) :: rest
    | _ -> out_scalars
  in
  t.done_latched <- true;
  Soc_axi.Lite.rf_poke t.regfile ~offset:Soc_axi.Lite.status_offset 1;
  Soc_axi.Lite.rf_poke t.regfile ~offset:Soc_axi.Lite.ctrl_offset 0;
  List.iter
    (fun (port, value) -> Soc_axi.Lite.rf_poke t.regfile ~offset:(arg_offset t port) value)
    out_scalars

(* ------------------------------------------------------------------ *)
(* RTL cycle                                                           *)
(* ------------------------------------------------------------------ *)

(* One cycle of the RTL core. The step is [still] when it was a fixpoint:
   nothing moved, ap_done stayed low, the simulator is quiet and every
   output saw TREADY high. In a quiescent fabric (all FIFOs empty and not
   stuck, the register file untouched) the next step then drives the same
   inputs and repeats this one exactly. TREADY is part of the rule because
   a stuck FIFO that frees at this cycle's commit would raise it next
   cycle. *)
let step_rtl t { fsmd; sim; scalars; ins; outs } =
  Sim.set_input sim fsmd.Fsmd.ap_start (if started t then 1 else 0);
  for i = 0 to Array.length scalars - 1 do
    let signal, offset = scalars.(i) in
    Sim.set_input sim signal (Soc_axi.Lite.rf_peek t.regfile ~offset)
  done;
  for i = 0 to Array.length ins - 1 do
    let b = ins.(i) in
    match Soc_axi.Fifo.front b.ri_fifo with
    | Some v ->
      Sim.set_input sim b.ri_sigs.Fsmd.in_tvalid 1;
      Sim.set_input sim b.ri_sigs.Fsmd.in_tdata v
    | None -> Sim.set_input sim b.ri_sigs.Fsmd.in_tvalid 0
  done;
  let all_ready = ref true in
  for i = 0 to Array.length outs - 1 do
    let b = outs.(i) in
    let ready = Soc_axi.Fifo.can_push b.ro_fifo in
    if not ready then all_ready := false;
    Sim.set_input sim b.ro_sigs.Fsmd.out_tready (if ready then 1 else 0)
  done;
  Sim.settle sim;
  let moved = ref false in
  for i = 0 to Array.length ins - 1 do
    let b = ins.(i) in
    if Sim.value sim b.ri_sigs.Fsmd.in_tready = 1 && not (Soc_axi.Fifo.is_empty b.ri_fifo)
    then begin
      ignore (Soc_axi.Fifo.pop b.ri_fifo);
      moved := true
    end
  done;
  for i = 0 to Array.length outs - 1 do
    let b = outs.(i) in
    let tvalid = Sim.value sim b.ro_sigs.Fsmd.out_tvalid = 1 in
    let tready = Soc_axi.Fifo.can_push b.ro_fifo in
    let tdata = Sim.value sim b.ro_sigs.Fsmd.out_tdata in
    Soc_axi.Stream_rules.observe b.ro_monitor ~tvalid ~tdata ~tready;
    if tvalid && tready then begin
      Soc_axi.Fifo.push b.ro_fifo tdata;
      moved := true
    end
  done;
  let finished = Sim.value sim fsmd.Fsmd.ap_done = 1 in
  if finished then
    finish t
      ~out_scalars:
        (List.map (fun (port, signal) -> (port, Sim.value sim signal)) fsmd.Fsmd.scalar_out);
  Sim.tick sim;
  t.still <-
    (not !moved) && (not finished) && !all_ready && t.corrupt_mask = None && Sim.quiet sim;
  !moved

(* ------------------------------------------------------------------ *)
(* Behavioural cycle                                                   *)
(* ------------------------------------------------------------------ *)

let step_behavioral t (b : behavioral_engine) =
  if b.inst = None && started t && not t.done_latched then begin
    let scalars =
      List.map
        (fun port -> (port, Soc_axi.Lite.rf_peek t.regfile ~offset:(arg_offset t port)))
        t.scalar_in_ports
    in
    b.inst <- Some (Soc_kernel.Interp.make ~scalars b.cfg)
  end;
  match b.inst with
  | None -> false
  | Some st ->
    let moved = ref false in
    (* One stream beat per cycle: the idealized fully-pipelined pace. *)
    let io =
      {
        Soc_kernel.Interp.pop =
          (fun port ->
            match List.assoc_opt port t.in_bindings with
            | Some fifo when not (Soc_axi.Fifo.is_empty fifo) ->
              moved := true;
              Some (Soc_axi.Fifo.pop fifo)
            | _ -> None);
        push =
          (fun port v ->
            match List.assoc_opt port t.out_bindings with
            | Some fifo when Soc_axi.Fifo.can_push fifo ->
              Soc_axi.Fifo.push fifo v;
              moved := true;
              true
            | _ -> false);
      }
    in
    let stats = Soc_kernel.Interp.stats_of st in
    let stream_ops () =
      stats.Soc_kernel.Interp.stream_reads + stats.Soc_kernel.Interp.stream_writes
    in
    let budget = ref max_ops_per_cycle in
    let stop = ref false in
    while not !stop do
      let before = stream_ops () in
      (match Soc_kernel.Interp.step st io with
      | Soc_kernel.Interp.Done ->
        b.inst <- None;
        finish t
          ~out_scalars:
            (List.map (fun p -> (p, Soc_kernel.Interp.peek_reg st p)) t.scalar_out_ports);
        stop := true
      | Soc_kernel.Interp.Blocked -> stop := true
      | Soc_kernel.Interp.Stepped -> if stream_ops () > before then stop := true);
      decr budget;
      if !budget <= 0 then stop := true
    done;
    !moved

let step t =
  if t.hang_cycles <> 0 then begin
    (* Injected hang: the core is frozen — no handshake, no done. *)
    if t.hang_cycles <> max_int then t.hang_cycles <- t.hang_cycles - 1;
    t.still <- false;
    false
  end
  else
    match t.engine with
    | Rtl e -> step_rtl t e
    | Behavioral b ->
      t.still <- false;
      step_behavioral t b

(* Whether the last {!step} was a fixpoint (RTL only; see [step_rtl]). *)
let still t = t.still

(* Account for [k] repeats of a still step without running them: the
   simulator's cycle and every bound output's checker cycle advance. *)
let skip t k =
  match t.engine with
  | Rtl e when t.still ->
    Sim.skip e.sim k;
    Array.iter (fun b -> Soc_axi.Stream_rules.skip b.ro_monitor k) e.outs
  | _ -> invalid_arg (t.name ^ ": skip after a step that was not still")

(* Arm the core for a new run: clears sticky done. *)
let arm t =
  t.done_latched <- false;
  Soc_axi.Lite.rf_poke t.regfile ~offset:Soc_axi.Lite.status_offset 0

(* ------------------------------------------------------------------ *)
(* Fault injection and recovery                                        *)
(* ------------------------------------------------------------------ *)

let inject_hang t ~cycles = t.hang_cycles <- cycles

(* Latch done without finishing the computation (no results copied back),
   then wedge: models a core that raises ap_done spuriously and stops. *)
let inject_spurious_done t =
  if not t.done_latched then begin
    t.done_latched <- true;
    Soc_axi.Lite.rf_poke t.regfile ~offset:Soc_axi.Lite.status_offset 1;
    Soc_axi.Lite.rf_poke t.regfile ~offset:Soc_axi.Lite.ctrl_offset 0
  end;
  t.hang_cycles <- max_int

let inject_result_corruption t ~mask = t.corrupt_mask <- Some mask

(* Driver-level soft reset: back to the post-bitstream state — datapath
   re-initialized, sticky done and any injected accelerator fault
   cleared. Argument registers survive, as on real hardware. *)
let soft_reset t =
  (match t.engine with
  | Rtl { sim; _ } -> Sim.reset sim
  | Behavioral b -> b.inst <- None);
  t.done_latched <- false;
  t.still <- false;
  t.hang_cycles <- 0;
  t.corrupt_mask <- None;
  Soc_axi.Lite.rf_poke t.regfile ~offset:Soc_axi.Lite.ctrl_offset 0;
  Soc_axi.Lite.rf_poke t.regfile ~offset:Soc_axi.Lite.status_offset 0

let protocol_violations t =
  List.concat_map (fun (_, m) -> Soc_axi.Stream_rules.violations m) t.monitors
