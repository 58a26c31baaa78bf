(** FSMD (finite-state machine with datapath) code generation.

    Turns a scheduled CFG into a {!Soc_rtl.Netlist} module implementing the
    Vivado-HLS-style [ap_ctrl] protocol:

    - state 0 = IDLE (waits for [ap_start]), state 1 = DONE ([ap_done] high
      for one cycle, then back to IDLE);
    - each basic block occupies one state per control step, plus one exit
      state when it ends in a conditional branch (the branch condition is
      then guaranteed to be committed);
    - every register enable is gated by the state's [advance] condition, so
      a control step that stalls on a stream handshake re-executes with
      unchanged operands;
    - functional units are shared: operand multiplexers select per issue
      state; multi-cycle units (multiplier, divider) latch operands at
      issue;
    - BRAM loads hold their address for the two cycles of the read, which
      together with the WAR scheduling rule makes loads stall-safe. *)

open Soc_kernel
module N = Soc_rtl.Netlist

type stream_in_sigs = { in_tdata : N.signal; in_tvalid : N.signal; in_tready : N.signal }
type stream_out_sigs = { out_tdata : N.signal; out_tvalid : N.signal; out_tready : N.signal }

type t = {
  netlist : N.t;
  ap_start : N.signal;
  ap_done : N.signal;
  ap_idle : N.signal;
  scalar_in : (string * N.signal) list;
  scalar_out : (string * N.signal) list;
  stream_in : (string * stream_in_sigs) list;
  stream_out : (string * stream_out_sigs) list;
  total_states : int;
}

let idle_state = 0
let done_state = 1

(* Per-register accumulated write ports: (condition, value). *)
type regslot = {
  signal : N.signal;
  set_next : enable:N.expr -> next:N.expr -> unit;
  mutable writes : (N.expr * N.expr) list;
}

let or_chain = function
  | [] -> N.zero
  | e :: rest -> List.fold_left (fun acc x -> N.Bin (Ast.Bor, acc, x)) e rest

let mux_chain ~default cases =
  List.fold_left (fun acc (cond, v) -> N.Mux (cond, v, acc)) default cases

let generate (sched : Schedule.t) : t =
  let cfg = sched.cfg in
  let k = cfg.kernel in
  let net = N.create k.kname in

  (* ---------------- State layout ---------------- *)
  let nblocks = Array.length cfg.blocks in
  let base = Array.make nblocks 0 in
  let needs_exit b =
    match cfg.blocks.(b).term with Cfg.Branch _ -> true | Cfg.Goto _ | Cfg.Halt -> false
  in
  let next_free = ref 2 in
  for b = 0 to nblocks - 1 do
    base.(b) <- !next_free;
    next_free := !next_free + sched.blocks.(b).nsteps + (if needs_exit b then 1 else 0)
  done;
  let total_states = !next_free in
  let sw = Soc_util.Bits.address_width total_states in
  let state_const s = N.Const (s, sw) in

  (* ---------------- Ports ---------------- *)
  let ap_start = N.input net ~name:"ap_start" ~width:1 in
  let ap_done = N.output net ~name:"ap_done" ~width:1 in
  let ap_idle = N.output net ~name:"ap_idle" ~width:1 in
  let scalar_in =
    List.filter_map
      (function
        | Ast.Scalar { pname; ty; dir = Ast.In } ->
          Some (pname, N.input net ~name:pname ~width:(Ty.width ty))
        | _ -> None)
      k.ports
  in
  let scalar_out_ports =
    List.filter_map
      (function
        | Ast.Scalar { pname; ty; dir = Ast.Out } -> Some (pname, ty)
        | _ -> None)
      k.ports
  in
  let stream_in =
    List.filter_map
      (function
        | Ast.Stream { pname; ty; dir = Ast.In } ->
          Some
            ( pname,
              {
                in_tdata = N.input net ~name:(pname ^ "_tdata") ~width:(Ty.width ty);
                in_tvalid = N.input net ~name:(pname ^ "_tvalid") ~width:1;
                in_tready = N.output net ~name:(pname ^ "_tready") ~width:1;
              } )
        | _ -> None)
      k.ports
  in
  let stream_out =
    List.filter_map
      (function
        | Ast.Stream { pname; ty; dir = Ast.Out } ->
          Some
            ( pname,
              {
                out_tdata = N.output net ~name:(pname ^ "_tdata") ~width:(Ty.width ty);
                out_tvalid = N.output net ~name:(pname ^ "_tvalid") ~width:1;
                out_tready = N.input net ~name:(pname ^ "_tready") ~width:1;
              } )
        | _ -> None)
      k.ports
  in

  (* ---------------- State register ---------------- *)
  let state_sig, set_state_next = N.register_forward net ~reset_value:idle_state ~name:"state" ~width:sw () in
  let state_eq s = N.Bin (Ast.Eq, N.Ref state_sig, state_const s) in

  (* ---------------- Datapath registers ---------------- *)
  let is_scalar_in r = List.mem_assoc r scalar_in in
  let regs : (string, regslot) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun r ->
      if not (is_scalar_in r) then begin
        let width = Ty.width (Cfg.var_type cfg r) in
        let signal, set = N.register_forward net ~name:("r_" ^ r) ~width () in
        Hashtbl.replace regs r
          { signal; set_next = (fun ~enable ~next -> set ~enable ~next); writes = [] }
      end)
    (Cfg.all_regs cfg);
  (* Scalar output ports may never be written inside the body of trivial
     kernels; make sure they exist as registers anyway. *)
  List.iter
    (fun (pname, ty) ->
      if not (Hashtbl.mem regs pname) then begin
        let signal, set = N.register_forward net ~name:("r_" ^ pname) ~width:(Ty.width ty) () in
        Hashtbl.replace regs pname
          { signal; set_next = (fun ~enable ~next -> set ~enable ~next); writes = [] }
      end)
    scalar_out_ports;
  let reg_of r =
    match Hashtbl.find_opt regs r with
    | Some slot -> slot
    | None -> failwith ("fsmd: unknown register " ^ r)
  in
  let operand = function
    | Cfg.Cst n -> N.Const (Soc_util.Bits.truncate ~width:32 n, 32)
    | Cfg.Reg r ->
      if is_scalar_in r then N.Ref (List.assoc r scalar_in) else N.Ref (reg_of r).signal
  in
  let write_reg r ~cond ~value =
    let slot = reg_of r in
    slot.writes <- (cond, value) :: slot.writes
  in

  (* ---------------- Advance condition per state ---------------- *)
  (* Map: state -> stream gate (conjunction of handshakes of the stream op
     issued there; the scheduler guarantees at most one per cstep). *)
  let stream_gate : (int, N.expr) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun b (blk : Cfg.block) ->
      List.iteri
        (fun i instr ->
          let s = base.(b) + sched.blocks.(b).csteps.(i) in
          match instr with
          | Cfg.Pop (_, port) ->
            let sigs = List.assoc port stream_in in
            Hashtbl.replace stream_gate s (N.Ref sigs.in_tvalid)
          | Cfg.Push (port, _) ->
            let sigs = List.assoc port stream_out in
            Hashtbl.replace stream_gate s (N.Ref sigs.out_tready)
          | _ -> ())
        blk.instrs)
    cfg.blocks;
  let advance s =
    match Hashtbl.find_opt stream_gate s with Some g -> g | None -> N.one
  in
  let state_active_and_advancing s = N.Bin (Ast.Band, state_eq s, advance s) in

  (* ---------------- Functional-unit binding ---------------- *)
  (* Group shareable ops; assign them greedily to instances whose busy
     intervals do not overlap. *)
  let module FU = struct
    type op_site = { instr : Cfg.instr; issue : int (* state id *) }

    type instance = { mutable sites : op_site list; mutable busy : (int * int) list }
  end in
  let fu_tables : (string, FU.instance list ref) Hashtbl.t = Hashtbl.create 8 in
  (* Binding groups by class *and* operator: a shared "divider" slot may hold
     Div and Rem sites for scheduling purposes, but the emitted FU hardware
     computes a single operator, so each op kind gets its own instance. *)
  let assign_site cls (site : FU.op_site) =
    let opsym =
      match site.FU.instr with
      | Cfg.Bin (_, op, _, _) -> Ast.binop_symbol op
      | _ -> ""
    in
    let key = Oplib.fu_class_key cls ^ ":" ^ opsym in
    let insts =
      match Hashtbl.find_opt fu_tables key with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace fu_tables key l;
        l
    in
    let lat = Oplib.latency site.instr in
    let lo = site.issue and hi = site.issue + lat - 1 in
    let overlaps (a, b) = not (hi < a || b < lo) in
    let rec find = function
      | [] ->
        let inst = { FU.sites = [ site ]; busy = [ (lo, hi) ] } in
        insts := !insts @ [ inst ];
        inst
      | (inst : FU.instance) :: rest ->
        if List.exists overlaps inst.busy then find rest
        else begin
          inst.sites <- site :: inst.sites;
          inst.busy <- (lo, hi) :: inst.busy;
          inst
        end
    in
    ignore (find !insts)
  in
  Array.iteri
    (fun b (blk : Cfg.block) ->
      List.iteri
        (fun i instr ->
          match Oplib.classify instr with
          | Oplib.Alu _ | Oplib.Multiplier | Oplib.Divider ->
            assign_site (Oplib.classify instr)
              { FU.instr; issue = base.(b) + sched.blocks.(b).csteps.(i) }
          | _ -> ())
        blk.instrs)
    cfg.blocks;

  (* Emit shared FUs. *)
  Hashtbl.iter
    (fun key insts ->
      List.iteri
        (fun n (inst : FU.instance) ->
          let sites = inst.FU.sites in
          let sample = List.hd sites in
          let op =
            match sample.FU.instr with
            | Cfg.Bin (_, op, _, _) -> op
            | _ -> assert false
          in
          let lat = Oplib.latency sample.FU.instr in
          let pick f =
            mux_chain ~default:(N.Const (0, 32))
              (List.map
                 (fun (s : FU.op_site) ->
                   let a, b =
                     match s.FU.instr with
                     | Cfg.Bin (_, _, a, b) -> (a, b)
                     | _ -> assert false
                   in
                   (state_eq s.FU.issue, operand (f (a, b))))
                 sites)
          in
          let sanitized = String.map (fun c -> if c = ':' then '_' else c) key in
          let fu_name = Printf.sprintf "fu_%s_%d" sanitized n in
          let out_sig = N.fresh net ~name:(fu_name ^ "_out") ~width:32 in
          if lat = 1 then begin
            N.assign net out_sig (N.Bin (op, pick fst, pick snd));
            List.iter
              (fun (s : FU.op_site) ->
                match Cfg.instr_dst s.FU.instr with
                | Some d ->
                  write_reg d ~cond:(state_active_and_advancing s.FU.issue) ~value:(N.Ref out_sig)
                | None -> ())
              sites
          end
          else begin
            (* Latch operands at issue; result committed at finish-1. *)
            let latch_en =
              or_chain (List.map (fun (s : FU.op_site) -> state_active_and_advancing s.FU.issue) sites)
            in
            let a_reg =
              N.register net ~name:(fu_name ^ "_a") ~width:32 ~enable:latch_en (fun _ -> pick fst)
            in
            let b_reg =
              N.register net ~name:(fu_name ^ "_b") ~width:32 ~enable:latch_en (fun _ -> pick snd)
            in
            N.assign net out_sig (N.Bin (op, N.Ref a_reg, N.Ref b_reg));
            List.iter
              (fun (s : FU.op_site) ->
                match Cfg.instr_dst s.FU.instr with
                | Some d ->
                  let commit_state = s.FU.issue + lat - 1 in
                  write_reg d ~cond:(state_active_and_advancing commit_state) ~value:(N.Ref out_sig)
                | None -> ())
              sites
          end)
        !insts)
    fu_tables;

  (* ---------------- Moves and unary ops ---------------- *)
  Array.iteri
    (fun b (blk : Cfg.block) ->
      List.iteri
        (fun i instr ->
          let s = base.(b) + sched.blocks.(b).csteps.(i) in
          match instr with
          | Cfg.Mov (d, a) -> write_reg d ~cond:(state_active_and_advancing s) ~value:(operand a)
          | Cfg.Un (d, op, a) ->
            write_reg d ~cond:(state_active_and_advancing s) ~value:(N.Un (op, operand a))
          | _ -> ())
        blk.instrs)
    cfg.blocks;

  (* ---------------- Memories ---------------- *)
  List.iter
    (fun (decl : Ast.array_decl) ->
      let loads = ref [] and stores = ref [] in
      Array.iteri
        (fun b (blk : Cfg.block) ->
          List.iteri
            (fun i instr ->
              let s = base.(b) + sched.blocks.(b).csteps.(i) in
              match instr with
              | Cfg.Load (d, a, idx) when a = decl.aname -> loads := (s, d, idx) :: !loads
              | Cfg.Store (a, idx, v) when a = decl.aname -> stores := (s, idx, v) :: !stores
              | _ -> ())
            blk.instrs)
        cfg.blocks;
      let raddr =
        (* Hold the address during both cycles of the read (stall safety). *)
        mux_chain ~default:(N.Const (0, 32))
          (List.map
             (fun (s, _, idx) ->
               (N.Bin (Ast.Bor, state_eq s, state_eq (s + 1)), operand idx))
             !loads)
      in
      let wen = or_chain (List.map (fun (s, _, _) -> state_active_and_advancing s) !stores) in
      let waddr =
        mux_chain ~default:(N.Const (0, 32))
          (List.map (fun (s, idx, _) -> (state_eq s, operand idx)) !stores)
      in
      let wdata =
        mux_chain ~default:(N.Const (0, 32))
          (List.map (fun (s, _, v) -> (state_eq s, operand v)) !stores)
      in
      let rdata =
        N.add_mem net ~name:("m_" ^ decl.aname) ~size:decl.size ~width:(Ty.width decl.elt)
          ~raddr ~wen ~waddr ~wdata
          ?init:(Option.map (Array.map (fun v -> Ty.store decl.elt v)) decl.init)
          ()
      in
      (* Load results commit one state after issue. *)
      List.iter
        (fun (s, d, _) -> write_reg d ~cond:(state_active_and_advancing (s + 1)) ~value:(N.Ref rdata))
        !loads)
    k.arrays;

  (* ---------------- Streams ---------------- *)
  List.iter
    (fun (port, sigs) ->
      let pop_states = ref [] in
      Array.iteri
        (fun b (blk : Cfg.block) ->
          List.iteri
            (fun i instr ->
              match instr with
              | Cfg.Pop (d, p) when p = port ->
                let s = base.(b) + sched.blocks.(b).csteps.(i) in
                pop_states := (s, d) :: !pop_states
              | _ -> ())
            blk.instrs)
        cfg.blocks;
      N.assign net sigs.in_tready (or_chain (List.map (fun (s, _) -> state_eq s) !pop_states));
      List.iter
        (fun (s, d) ->
          write_reg d
            ~cond:(N.Bin (Ast.Band, state_eq s, N.Ref sigs.in_tvalid))
            ~value:(N.Ref sigs.in_tdata))
        !pop_states)
    stream_in;
  List.iter
    (fun (port, sigs) ->
      let push_states = ref [] in
      Array.iteri
        (fun b (blk : Cfg.block) ->
          List.iteri
            (fun i instr ->
              match instr with
              | Cfg.Push (p, v) when p = port ->
                let s = base.(b) + sched.blocks.(b).csteps.(i) in
                push_states := (s, v) :: !push_states
              | _ -> ())
            blk.instrs)
        cfg.blocks;
      N.assign net sigs.out_tvalid (or_chain (List.map (fun (s, _) -> state_eq s) !push_states));
      N.assign net sigs.out_tdata
        (mux_chain ~default:(N.Const (0, 32))
           (List.map (fun (s, v) -> (state_eq s, operand v)) !push_states)))
    stream_out;

  (* ---------------- Register next/enable finalization ---------------- *)
  Hashtbl.iter
    (fun _ (slot : regslot) ->
      match slot.writes with
      | [] -> slot.set_next ~enable:N.zero ~next:(N.Ref slot.signal)
      | writes ->
        let enable = or_chain (List.map fst writes) in
        let next = mux_chain ~default:(N.Ref slot.signal) writes in
        slot.set_next ~enable ~next)
    regs;

  (* ---------------- State transitions ---------------- *)
  let transitions = ref [] in
  (* (condition, target expr), later entries take priority in the mux chain;
     conditions are mutually exclusive so order does not matter. *)
  let add_transition cond target = transitions := (cond, target) :: !transitions in
  add_transition
    (N.Bin (Ast.Band, state_eq idle_state, N.Ref ap_start))
    (state_const base.(cfg.entry));
  add_transition (state_eq done_state) (state_const idle_state);
  Array.iteri
    (fun b (blk : Cfg.block) ->
      let nsteps = sched.blocks.(b).nsteps in
      let last_exec = base.(b) + nsteps - 1 in
      (* Intra-block: state s -> s+1 when advancing. *)
      for s = base.(b) to last_exec - 1 do
        add_transition (state_active_and_advancing s) (state_const (s + 1))
      done;
      match blk.term with
      | Cfg.Goto b' ->
        add_transition (state_active_and_advancing last_exec) (state_const base.(b'))
      | Cfg.Halt ->
        add_transition (state_active_and_advancing last_exec) (state_const done_state)
      | Cfg.Branch (cond, bt, bf) ->
        let exit_state = last_exec + 1 in
        add_transition (state_active_and_advancing last_exec) (state_const exit_state);
        add_transition (state_eq exit_state)
          (N.Mux
             ( N.Bin (Ast.Ne, operand cond, N.Const (0, 32)),
               state_const base.(bt),
               state_const base.(bf) )))
    cfg.blocks;
  let next_state = mux_chain ~default:(N.Ref state_sig) !transitions in
  set_state_next ~enable:N.one ~next:next_state;

  (* ---------------- Control outputs ---------------- *)
  N.assign net ap_done (state_eq done_state);
  N.assign net ap_idle (state_eq idle_state);
  List.iter
    (fun (pname, _) ->
      let out_sig = N.output net ~name:pname ~width:(reg_of pname).signal.N.width in
      N.assign net out_sig (N.Ref (reg_of pname).signal))
    scalar_out_ports;
  let scalar_out =
    List.map
      (fun (pname, _) ->
        (pname, List.find (fun (s : N.signal) -> s.N.sname = pname) net.N.outputs))
      scalar_out_ports
  in

  {
    netlist = net;
    ap_start;
    ap_done;
    ap_idle;
    scalar_in;
    scalar_out;
    stream_in;
    stream_out;
    total_states;
  }
