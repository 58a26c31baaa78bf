(** Operation scheduling.

    [asap] ignores resource limits (dependences only); [alap] right-aligns
    within the ASAP makespan; [list_schedule] is resource-constrained list
    scheduling with longest-path-to-sink priority. All schedulers return,
    for each instruction of the block, the control step at which it issues;
    legality is checked by {!verify} (also used by the qcheck properties). *)

type resources = {
  alus_per_op : int; (* adders, subtractors, comparators, ... each kind *)
  multipliers : int;
  dividers : int;
}

let default_resources = { alus_per_op = 2; multipliers = 2; dividers = 1 }

let unlimited = { alus_per_op = max_int; multipliers = max_int; dividers = max_int }

type block_schedule = {
  csteps : int array; (* issue cstep per instruction index *)
  nsteps : int; (* number of execution states of the block *)
}

type t = {
  cfg : Soc_kernel.Cfg.t;
  dfgs : Dfg.t array; (* per block *)
  blocks : block_schedule array;
}

let finish (dfg : Dfg.t) csteps i = csteps.(i) + Oplib.latency dfg.instrs.(i)

let makespan (dfg : Dfg.t) csteps =
  let n = Array.length dfg.instrs in
  let m = ref 0 in
  for i = 0 to n - 1 do
    m := max !m (finish dfg csteps i)
  done;
  !m

(* ------------------------------------------------------------------ *)
(* ASAP / ALAP                                                         *)
(* ------------------------------------------------------------------ *)

let asap_block (dfg : Dfg.t) =
  let n = Array.length dfg.instrs in
  let csteps = Array.make n 0 in
  (* Blocks are straight-line so program order is a valid topological
     order of the dependence DAG (all edges point forward). *)
  for i = 0 to n - 1 do
    csteps.(i) <-
      List.fold_left (fun acc (p, w) -> max acc (csteps.(p) + w)) 0 dfg.preds.(i)
  done;
  { csteps; nsteps = max 1 (makespan dfg csteps) }

(* ------------------------------------------------------------------ *)
(* Resource-constrained list scheduling                                *)
(* ------------------------------------------------------------------ *)

let capacity res (cls : Oplib.fu_class) =
  match cls with
  | Oplib.Alu _ -> res.alus_per_op
  | Oplib.Multiplier -> res.multipliers
  | Oplib.Divider -> res.dividers
  | Oplib.Mem_read _ | Oplib.Mem_write _ -> 1
  | Oplib.Stream_unit -> 1
  | Oplib.None_ -> max_int

let list_schedule_block ~resources (dfg : Dfg.t) =
  let n = Array.length dfg.instrs in
  let csteps = Array.make n (-1) in
  let prio = Dfg.criticality dfg in
  (* usage.(key) -> per-cstep occupancy (grow-on-demand). *)
  let usage : (string, int ref array ref) Hashtbl.t = Hashtbl.create 8 in
  let occupancy key c =
    let arr =
      match Hashtbl.find_opt usage key with
      | Some a -> a
      | None ->
        let a = ref (Array.init 16 (fun _ -> ref 0)) in
        Hashtbl.replace usage key a;
        a
    in
    if c >= Array.length !arr then begin
      let bigger = Array.init (max (c + 1) (2 * Array.length !arr)) (fun _ -> ref 0) in
      Array.blit !arr 0 bigger 0 (Array.length !arr);
      arr := bigger
    end;
    !arr.(c)
  in
  let fits instr c =
    let cls = Oplib.classify instr in
    let cap = capacity resources cls in
    if cap = max_int then true
    else begin
      let key = Oplib.fu_class_key cls in
      let lat = Oplib.latency instr in
      let ok = ref true in
      for step = c to c + lat - 1 do
        if !(occupancy key step) >= cap then ok := false
      done;
      !ok
    end
  in
  let book instr c =
    let cls = Oplib.classify instr in
    if capacity resources cls <> max_int then begin
      let key = Oplib.fu_class_key cls in
      for step = c to c + Oplib.latency instr - 1 do
        incr (occupancy key step)
      done
    end
  in
  let scheduled = Array.make n false in
  let remaining = ref n in
  while !remaining > 0 do
    (* Ready instructions: all predecessors scheduled. *)
    let ready =
      List.filter
        (fun i ->
          (not scheduled.(i))
          && List.for_all (fun (p, _) -> scheduled.(p)) dfg.preds.(i))
        (List.init n Fun.id)
    in
    assert (ready <> []);
    (* Highest criticality first; ties broken by program order. *)
    let ready = List.sort (fun a b -> compare (-prio.(a), a) (-prio.(b), b)) ready in
    List.iter
      (fun i ->
        if not scheduled.(i) then begin
          let earliest =
            List.fold_left
              (fun acc (p, w) -> max acc (csteps.(p) + w))
              0 dfg.preds.(i)
          in
          let c = ref earliest in
          while not (fits dfg.instrs.(i) !c) do
            incr c
          done;
          csteps.(i) <- !c;
          book dfg.instrs.(i) !c;
          scheduled.(i) <- true;
          decr remaining
        end)
      ready
  done;
  { csteps; nsteps = max 1 (makespan dfg csteps) }

(* ------------------------------------------------------------------ *)
(* Driver + legality check                                             *)
(* ------------------------------------------------------------------ *)

type strategy = Asap | List_scheduling

let of_cfg ?(strategy = List_scheduling) ?(resources = default_resources)
    (cfg : Soc_kernel.Cfg.t) : t =
  let dfgs = Array.map (fun (b : Soc_kernel.Cfg.block) -> Dfg.build b.instrs) cfg.blocks in
  let blocks =
    Array.map
      (fun dfg ->
        match strategy with
        | Asap -> asap_block dfg
        | List_scheduling -> list_schedule_block ~resources dfg)
      dfgs
  in
  { cfg; dfgs; blocks }

type violation =
  | Dependence of { block : int; src : int; dst : int; weight : int }
  | Over_capacity of { block : int; cstep : int; cls : string; used : int; cap : int }

let pp_violation fmt = function
  | Dependence { block; src; dst; weight } ->
    Format.fprintf fmt "block %d: edge %d->%d (w=%d) violated" block src dst weight
  | Over_capacity { block; cstep; cls; used; cap } ->
    Format.fprintf fmt "block %d cstep %d: %s used %d > cap %d" block cstep cls used cap

(* Check every dependence edge and every resource capacity. *)
let verify ?(resources = default_resources) (t : t) : violation list =
  let issues = ref [] in
  Array.iteri
    (fun bi (dfg : Dfg.t) ->
      let sched = t.blocks.(bi) in
      List.iter
        (fun (e : Dfg.edge) ->
          if sched.csteps.(e.dst) < sched.csteps.(e.src) + e.weight then
            issues := Dependence { block = bi; src = e.src; dst = e.dst; weight = e.weight } :: !issues)
        dfg.edges;
      (* Occupancy per class per cstep. *)
      let occ : (string * int, int) Hashtbl.t = Hashtbl.create 16 in
      Array.iteri
        (fun i instr ->
          let cls = Oplib.classify instr in
          if capacity resources cls <> max_int then
            for c = sched.csteps.(i) to sched.csteps.(i) + Oplib.latency instr - 1 do
              let key = (Oplib.fu_class_key cls, c) in
              Hashtbl.replace occ key (1 + Option.value ~default:0 (Hashtbl.find_opt occ key))
            done)
        dfg.instrs;
      Hashtbl.iter
        (fun (cls, cstep) used ->
          let cap =
            (* recover capacity from the class key prefix *)
            if String.length cls >= 4 && String.sub cls 0 4 = "alu:" then resources.alus_per_op
            else if cls = "mul" then resources.multipliers
            else if cls = "div" then resources.dividers
            else 1
          in
          if used > cap then
            issues := Over_capacity { block = bi; cstep; cls; used; cap } :: !issues)
        occ)
    t.dfgs;
  !issues

(* Static latency of one pass over each block (diagnostic only; true cycle
   counts come from RTL simulation). *)
let static_block_latencies t = Array.map (fun b -> b.nsteps) t.blocks
