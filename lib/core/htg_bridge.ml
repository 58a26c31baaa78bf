(** HTG-to-DSL elaboration: the mapping of Section III.

    The paper's flow (Fig. 3) starts from a partitioned two-level HTG and
    derives the DSL description: software nodes disappear, hardware task
    nodes become AXI-Lite accelerators attached to the system bus, and each
    hardware phase contributes one AXI-Stream accelerator per dataflow actor
    with the phase's internal links mapped to direct stream links and its
    boundary ports routed through 'soc (a DMA channel).

    [to_spec] automates that mapping. Running it on the Fig. 1 HTG yields
    exactly the Fig. 4 architecture — the paper's own worked example — which
    the test suite checks structurally. *)

module H = Soc_htg.Htg

(* Hardware task nodes carry no port information in the HTG; the caller
   supplies their AXI-Lite register interface. The default matches the
   paper's ADD/MULT examples: two operands and a return value. *)
let default_lite_ports (_ : string) = [ "A"; "B"; "return_" ]

type error =
  | Sw_phase_with_hw_actors of string
  | No_hardware_nodes

let to_spec ?(lite_ports = default_lite_ports) ?(validate = true) (g : H.t) : Spec.t =
  let nodes = ref [] and edges = ref [] in
  let add_node n = nodes := n :: !nodes in
  let add_edge e = edges := e :: !edges in
  List.iter
    (fun (n : H.node) ->
      match (n.H.kind, n.H.mapping) with
      | H.Task, H.Sw | H.Phase _, H.Sw -> () (* software: stays on the GPP *)
      | H.Task, H.Hw ->
        (* Simple node: AXI-Lite interface, parameter copy by the GPP. *)
        add_node
          (Spec.make_node n.H.name
             (List.map (fun p -> (p, Spec.Lite)) (lite_ports n.H.name)));
        add_edge (Spec.connect_edge n.H.name)
      | H.Phase df, H.Hw ->
        (* One stream accelerator per actor. *)
        List.iter
          (fun (a : H.actor) ->
            add_node
              (Spec.make_node a.H.actor_name
                 (List.map (fun (p, _) -> (p, Spec.Stream)) a.H.inputs
                 @ List.map (fun (p, _) -> (p, Spec.Stream)) a.H.outputs)))
          df.H.actors;
        (* Boundary inputs are fed by the system (DMA), then internal links,
           then boundary outputs drain to the system. *)
        List.iter
          (fun (actor, port) -> add_edge (Spec.link_edge Spec.Soc (Spec.Port (actor, port))))
          (H.dataflow_inputs df);
        List.iter
          (fun (l : H.stream_link) ->
            add_edge
              (Spec.link_edge
                 (Spec.Port (l.H.src_actor, l.H.src_port))
                 (Spec.Port (l.H.dst_actor, l.H.dst_port))))
          df.H.links;
        List.iter
          (fun (actor, port) -> add_edge (Spec.link_edge (Spec.Port (actor, port)) Spec.Soc))
          (H.dataflow_outputs df))
    g.H.nodes;
  let spec =
    { Spec.design_name = g.H.graph_name; nodes = List.rev !nodes; edges = List.rev !edges }
  in
  if validate then Spec.validate_exn spec;
  spec

(* Sanity report: which HTG nodes were dropped as software. *)
let software_residual (g : H.t) =
  List.filter_map
    (fun (n : H.node) -> if n.H.mapping = H.Sw then Some n.H.name else None)
    g.H.nodes
