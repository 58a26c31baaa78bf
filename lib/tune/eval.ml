(* Farm-backed population pricing. A population is split three ways:
   candidates whose pre-HLS gate carries errors are pruned without
   spending any synthesis work; all-software candidates are measured
   directly (nothing to build); the rest are grouped by (HLS config,
   FIFO depth) and each group goes through {!Soc_farm.Farm.build_batch}
   as one batch — so identical kernels dedup batch-wide by content hash
   and a shared cache makes warm re-sweeps free.

   Measurements are memoized for one sweep on the candidate's behaviour:
   everything its co-simulation reads except the FIFO depth. FIFO depth
   matters only under backpressure, and every stream FIFO takes at most
   one push per cycle, so a run whose FIFOs all peaked below its depth
   never had a push refused; any depth above that peak makes the same
   run. A later candidate with the same behaviour and such a depth is
   priced from the stored run instead of being co-simulated. *)

module Diag = Soc_util.Diag
module Farm = Soc_farm.Farm
module Jobgraph = Soc_farm.Jobgraph

exception Infeasible_point of Diag.t list

type prep = {
  entry : Jobgraph.entry option;  (** [None]: all-software, nothing to build *)
  fifo_depth : int;
  config : Soc_hls.Engine.config;
  gate : Diag.t list;  (** pre-HLS analyzer + budget diagnostics *)
  measure : Soc_core.Flow.build option -> Search.point;
  behaviour : netlist_key:(Soc_rtl.Netlist.t -> string) -> Soc_core.Flow.build option -> string;
  reuse : Search.point -> Soc_core.Flow.build option -> Search.point;
}

type memo = {
  runs : (string, Search.point * int) Hashtbl.t;  (* behaviour -> measured point, its FIFO depth *)
  mutable keys : (Soc_rtl.Netlist.t * string) list;  (* by physical netlist *)
}

type counters = {
  mutable batches : int;
  mutable hls_requests : int;
  mutable gated : int;
  mutable cosim_reused : int;
  memo : memo;
}

let counters () =
  { batches = 0; hls_requests = 0; gated = 0; cosim_reused = 0;
    memo = { runs = Hashtbl.create 64; keys = [] } }

let errors_of diags = List.filter (fun d -> d.Diag.severity = Diag.Error) diags

let measure_to_outcome measure build =
  match measure build with
  | p -> Search.Feasible p
  | exception Infeasible_point ds -> Search.Infeasible ds
  | exception e -> Search.Failed (Printexc.to_string e)

(* The cache hands every candidate of a sweep the same accelerator record
   for the same kernel, so each netlist is keyed once. *)
let netlist_key memo net =
  match List.assq_opt net memo.keys with
  | Some k -> k
  | None ->
    let k = Soc_rtl_compile.Tape.netlist_key net in
    memo.keys <- (net, k) :: memo.keys;
    k

(* A stored run never had a push refused when every FIFO peaked below its
   depth; it is then the run of any depth above that peak. At its own
   depth it is the same run anyway. *)
let reusable ((p : Search.point), depth) d = d = depth || p.Search.fifo_peak < min depth d

(* The first run of each behaviour is stored. *)
let price ~memo ctr p build =
  if not memo then measure_to_outcome p.measure build
  else
    let key = p.behaviour ~netlist_key:(netlist_key ctr.memo) build in
    match Hashtbl.find_opt ctr.memo.runs key with
    | Some s when reusable s p.fifo_depth ->
      let o = measure_to_outcome (p.reuse (fst s)) build in
      (match o with Search.Feasible _ -> ctr.cosim_reused <- ctr.cosim_reused + 1 | _ -> ());
      o
    | stored ->
      let o = measure_to_outcome p.measure build in
      (match (o, stored) with
      | Search.Feasible pt, None -> Hashtbl.replace ctr.memo.runs key (pt, p.fifo_depth)
      | _ -> ());
      o

let population ?(jobs = 1) ?(memo = true) ?counters:ctr ~cache ~prepare cands =
  let ctr = match ctr with Some c -> c | None -> counters () in
  let price = price ~memo ctr in
  let preps = Array.of_list (List.map (fun c -> (c, prepare c)) cands) in
  let n = Array.length preps in
  let out = Array.make n (Search.Failed "not evaluated") in
  (* Gate and all-SW passes; collect the buildable rest in input order. *)
  let hw = ref [] in
  Array.iteri
    (fun i (_c, p) ->
      if Diag.has_errors p.gate then begin
        ctr.gated <- ctr.gated + 1;
        out.(i) <- Search.Infeasible (errors_of p.gate)
      end
      else
        match p.entry with
        | None -> out.(i) <- price p None
        | Some _ -> hw := (i, p) :: !hw)
    preps;
  (* Group by (config, fifo): Farm.build_batch takes both batch-wide. *)
  let groups : ((Soc_hls.Engine.config * int) * (int * prep) list ref) list ref = ref [] in
  List.iter
    (fun ((_i, p) as m) ->
      let k = (p.config, p.fifo_depth) in
      match List.assoc_opt k !groups with
      | Some r -> r := m :: !r
      | None -> groups := !groups @ [ (k, ref [ m ]) ])
    (List.rev !hw);
  List.iter
    (fun ((config, fifo_depth), members) ->
      let members = List.rev !members in
      let entries = List.map (fun (_, p) -> Option.get p.entry) members in
      ctr.batches <- ctr.batches + 1;
      ctr.hls_requests <-
        ctr.hls_requests
        + List.fold_left (fun a (e : Jobgraph.entry) -> a + List.length e.Jobgraph.kernels) 0 entries;
      match Farm.build_batch ~jobs ~hls_config:config ~fifo_depth ~cache entries with
      | exception e ->
        let msg = "farm batch failed: " ^ Printexc.to_string e in
        List.iter (fun (pos, _) -> out.(pos) <- Search.Failed msg) members
      | report ->
        let fail_reason bi =
          match report.Farm.failures with
          | f :: _ -> Format.asprintf "%a" Soc_farm.Pool.pp_failure f
          | [] -> Printf.sprintf "batch entry %d produced no build" bi
        in
        List.iteri
          (fun bi (pos, p) ->
            match List.assoc_opt bi report.Farm.builds with
            | Some b -> out.(pos) <- price p (Some b)
            | None -> out.(pos) <- Search.Failed (fail_reason bi))
          members)
    !groups;
  List.mapi (fun i c -> (c, out.(i))) (List.map fst (Array.to_list preps))
