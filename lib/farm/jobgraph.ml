module Spec = Soc_core.Spec
module Ast = Soc_kernel.Ast

type entry = { spec : Spec.t; kernels : (string * Ast.kernel) list }

let entry_of ~library (spec : Spec.t) =
  let used (name, _) =
    List.exists (fun (n : Spec.node_spec) -> n.Spec.node_name = name) spec.Spec.nodes
  in
  { spec; kernels = List.filter used library }

type task =
  | Hls of { key : Chash.t; kernel : Ast.kernel; owner : int }
  | Integrate of int
  | Synthesis of int
  | Software of int
  | Finalize of int

let stages = [ "hls"; "integrate"; "synth"; "swgen"; "finalize" ]

type node = { task : task; label : string; cat : string; deps : int list }

type t = {
  entries : entry array;
  nodes : node array;
  kernel_jobs : (string * int) list array;
  pre_flight : Soc_util.Diag.t list array;
  integrate_ids : int array;
  synthesis_ids : int array;
  software_ids : int array;
  finalize_ids : int array;
  hls_config : Soc_hls.Engine.config;
  fifo_depth : int;
}

let plan ?(hls_config = Soc_hls.Engine.default_config)
    ?(fifo_depth = Soc_platform.Config.zedboard.Soc_platform.Config.default_fifo_depth)
    (entries : entry list) : t =
  let entries = Array.of_list entries in
  let n = Array.length entries in
  let nodes = ref [] in
  let count = ref 0 in
  let push node =
    nodes := node :: !nodes;
    incr count;
    !count - 1
  in
  let by_key : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let kernel_jobs = Array.make n [] in
  (* The analyzer runs once per entry, here: the integrate job reports
     these findings rather than analyzing the same spec again. *)
  let pre_flight =
    Array.map
      (fun (e : entry) ->
        if e.kernels = [] then [] else Soc_core.Flow.pre_flight e.spec ~kernels:e.kernels)
      entries
  in
  let integrate_ids = Array.make n (-1) in
  let synthesis_ids = Array.make n (-1) in
  let software_ids = Array.make n (-1) in
  let finalize_ids = Array.make n (-1) in
  Array.iteri
    (fun i (e : entry) ->
      let design = e.spec.Spec.design_name in
      (* Entries the pre-flight analyzer already rejects get no HLS jobs:
         their integrate job reports the diagnostics, and the farm never
         spends synthesis work on a design that cannot run. *)
      let rejected = Soc_util.Diag.has_errors pre_flight.(i) in
      (* Per-kernel HLS jobs, deduplicated across the whole batch by
         content hash; first-needing arch owns (pays for) the job. *)
      let jobs =
        if rejected then []
        else
          List.filter_map
          (fun (ns : Spec.node_spec) ->
            match List.assoc_opt ns.Spec.node_name e.kernels with
            | None -> None (* the integrate job will report the mismatch *)
            | Some kernel ->
              let key = Chash.kernel ~config:hls_config kernel in
              let id =
                match Hashtbl.find_opt by_key (Chash.to_hex key) with
                | Some id -> id
                | None ->
                  let id =
                    push
                      {
                        task = Hls { key; kernel; owner = i };
                        label =
                          Printf.sprintf "hls:%s@%s" kernel.Ast.kname
                            (String.sub (Chash.to_hex key) 0 8);
                        cat = "hls";
                        deps = [];
                      }
                  in
                  Hashtbl.replace by_key (Chash.to_hex key) id;
                  id
              in
              Some (ns.Spec.node_name, id))
          e.spec.Spec.nodes
      in
      kernel_jobs.(i) <- jobs;
      let hls_ids = List.map snd jobs in
      let integrate =
        push
          { task = Integrate i; label = "integrate:" ^ design; cat = "integrate"; deps = [] }
      in
      integrate_ids.(i) <- integrate;
      let synthesis =
        push
          {
            task = Synthesis i;
            label = "synth:" ^ design;
            cat = "synth";
            deps = hls_ids @ [ integrate ];
          }
      in
      synthesis_ids.(i) <- synthesis;
      let software =
        push
          { task = Software i; label = "swgen:" ^ design; cat = "swgen"; deps = [ integrate ] }
      in
      software_ids.(i) <- software;
      finalize_ids.(i) <-
        push
          {
            task = Finalize i;
            label = "finalize:" ^ design;
            cat = "finalize";
            deps = hls_ids @ [ integrate; synthesis; software ];
          })
    entries;
  {
    entries;
    nodes = Array.of_list (List.rev !nodes);
    kernel_jobs;
    pre_flight;
    integrate_ids;
    synthesis_ids;
    software_ids;
    finalize_ids;
    hls_config;
    fifo_depth;
  }

let distinct_kernels t =
  Array.fold_left
    (fun acc node -> match node.task with Hls _ -> acc + 1 | _ -> acc)
    0 t.nodes
