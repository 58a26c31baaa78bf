(** Elaborated system specification: the task graph G = (N, E) of Section
    III, after DSL parsing/execution. Nodes carry their interface ports
    (AXI-Lite or AXI-Stream); edges are either [Connect] (an AXI-Lite
    attachment of a node's register interface to the system bus) or [Link]
    (an AXI-Stream connection between two stream ports, or between a stream
    port and the system bus through a DMA core — the ['soc] endpoint).

    Nodes and edges carry an optional source span so the static analyzer
    can point diagnostics at the DSL source they came from. *)

module Diag = Soc_util.Diag

type port_kind = Lite | Stream

type node_spec = {
  node_name : string;
  node_ports : (string * port_kind) list; (* declaration order preserved *)
  node_span : Diag.span option;
}

type endpoint = Soc | Port of string * string (* node, port *)

type edge_desc =
  | Connect of string (* node whose AXI-Lite interface joins the bus *)
  | Link of endpoint * endpoint (* AXI-Stream: src -> dst *)

type edge_spec = { edge : edge_desc; edge_span : Diag.span option }

type t = {
  design_name : string;
  nodes : node_spec list;
  edges : edge_spec list;
}

let make_node ?span name ports =
  { node_name = name; node_ports = ports; node_span = span }

let connect_edge ?span name = { edge = Connect name; edge_span = span }
let link_edge ?span src dst = { edge = Link (src, dst); edge_span = span }

let strip_spans t =
  {
    t with
    nodes = List.map (fun n -> { n with node_span = None }) t.nodes;
    edges = List.map (fun e -> { e with edge_span = None }) t.edges;
  }

let find_node t name = List.find_opt (fun n -> n.node_name = name) t.nodes

let node_span t name =
  match find_node t name with None -> None | Some n -> n.node_span

let port_kind t ~node ~port =
  match find_node t node with
  | None -> None
  | Some n -> List.assoc_opt port n.node_ports

let links t =
  List.filter_map
    (fun e -> match e.edge with Link (a, b) -> Some (a, b) | Connect _ -> None)
    t.edges

let connects t =
  List.filter_map
    (fun e -> match e.edge with Connect n -> Some n | Link _ -> None)
    t.edges

(* Stream ports that are sources (resp. destinations) of links. *)
let stream_outputs t =
  List.filter_map
    (fun e -> match e.edge with Link (Port (n, p), _) -> Some (n, p) | _ -> None)
    t.edges

let stream_inputs t =
  List.filter_map
    (fun e -> match e.edge with Link (_, Port (n, p)) -> Some (n, p) | _ -> None)
    t.edges

(* Links that cross the 'soc boundary need a DMA channel. *)
let soc_to_node_links t =
  List.filter_map
    (fun e -> match e.edge with Link (Soc, Port (n, p)) -> Some (n, p) | _ -> None)
    t.edges

let node_to_soc_links t =
  List.filter_map
    (fun e -> match e.edge with Link (Port (n, p), Soc) -> Some (n, p) | _ -> None)
    t.edges

let internal_links t =
  List.filter_map
    (fun e ->
      match e.edge with
      | Link (Port (a, ap), Port (b, bp)) -> Some ((a, ap), (b, bp))
      | _ -> None)
    t.edges

(* Nodes reached by at least one stream link. *)
let stream_nodes t =
  let names =
    List.concat_map
      (fun e ->
        match e.edge with
        | Link (Port (a, _), Port (b, _)) -> [ a; b ]
        | Link (Port (a, _), Soc) | Link (Soc, Port (a, _)) -> [ a ]
        | Link (Soc, Soc) | Connect _ -> [])
      t.edges
  in
  List.sort_uniq compare names

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

type error =
  | Duplicate_node of string
  | Duplicate_port of string * string
  | Unknown_node of string
  | Unknown_port of string * string
  | Lite_port_in_link of string * string
  | Stream_port_in_connect of string
  | Port_direction_conflict of string * string
  | Port_reused of string * string
  | Soc_to_soc_link
  | Unconnected_stream_port of string * string
  | Node_without_interface of string

let pp_error fmt = function
  | Duplicate_node n -> Format.fprintf fmt "duplicate node %S" n
  | Duplicate_port (n, p) -> Format.fprintf fmt "node %S: duplicate port %S" n p
  | Unknown_node n -> Format.fprintf fmt "edge references unknown node %S" n
  | Unknown_port (n, p) -> Format.fprintf fmt "edge references unknown port %S of node %S" p n
  | Lite_port_in_link (n, p) ->
    Format.fprintf fmt "AXI-Lite port %S.%S cannot appear in a stream link" n p
  | Stream_port_in_connect n ->
    Format.fprintf fmt "connect %S: node has no AXI-Lite port to attach" n
  | Port_direction_conflict (n, p) ->
    Format.fprintf fmt "stream port %S.%S is used both as source and destination" n p
  | Port_reused (n, p) -> Format.fprintf fmt "stream port %S.%S used by more than one link" n p
  | Soc_to_soc_link -> Format.fprintf fmt "a link cannot connect 'soc to 'soc"
  | Unconnected_stream_port (n, p) ->
    Format.fprintf fmt "stream port %S.%S is not connected by any link" n p
  | Node_without_interface n -> Format.fprintf fmt "node %S declares no port" n

let error_to_string e = Format.asprintf "%a" pp_error e

let error_code = function
  | Duplicate_node _ -> "SOC001"
  | Duplicate_port _ -> "SOC002"
  | Unknown_node _ -> "SOC003"
  | Unknown_port _ -> "SOC004"
  | Lite_port_in_link _ -> "SOC005"
  | Stream_port_in_connect _ -> "SOC006"
  | Port_direction_conflict _ -> "SOC007"
  | Port_reused _ -> "SOC008"
  | Soc_to_soc_link -> "SOC009"
  | Unconnected_stream_port _ -> "SOC010"
  | Node_without_interface _ -> "SOC011"

let error_subject design = function
  | Duplicate_node n | Unknown_node n | Stream_port_in_connect n
  | Node_without_interface n ->
    n
  | Duplicate_port (n, p) | Unknown_port (n, p) | Lite_port_in_link (n, p)
  | Port_direction_conflict (n, p) | Port_reused (n, p)
  | Unconnected_stream_port (n, p) ->
    n ^ "." ^ p
  | Soc_to_soc_link -> design

(* One pass producing every error together with the span of the construct
   it concerns; [validate] and [validate_diags] are both views of it. *)
let validate_spanned t : (error * Diag.span option) list =
  let errs = ref [] in
  let err ?span e = errs := (e, span) :: !errs in
  (* Node and port uniqueness. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n.node_name then
        err ?span:n.node_span (Duplicate_node n.node_name);
      Hashtbl.replace seen n.node_name ();
      if n.node_ports = [] then
        err ?span:n.node_span (Node_without_interface n.node_name);
      let pseen = Hashtbl.create 8 in
      List.iter
        (fun (p, _) ->
          if Hashtbl.mem pseen p then
            err ?span:n.node_span (Duplicate_port (n.node_name, p));
          Hashtbl.replace pseen p ())
        n.node_ports)
    t.nodes;
  (* Edge endpoint resolution. *)
  let check_port ?span (node, port) =
    match find_node t node with
    | None -> err ?span (Unknown_node node)
    | Some n -> (
      match List.assoc_opt port n.node_ports with
      | None -> err ?span (Unknown_port (node, port))
      | Some Lite -> err ?span (Lite_port_in_link (node, port))
      | Some Stream -> ())
  in
  let as_src = Hashtbl.create 8 and as_dst = Hashtbl.create 8 in
  List.iter
    (fun { edge; edge_span = span } ->
      match edge with
      | Connect node -> (
        match find_node t node with
        | None -> err ?span (Unknown_node node)
        | Some n ->
          if not (List.exists (fun (_, k) -> k = Lite) n.node_ports) then
            err ?span (Stream_port_in_connect node))
      | Link (a, b) -> (
        (match (a, b) with
        | Soc, Soc -> err ?span Soc_to_soc_link
        | _ -> ());
        (match a with
        | Port (n, p) ->
          check_port ?span (n, p);
          if Hashtbl.mem as_src (n, p) then err ?span (Port_reused (n, p));
          Hashtbl.replace as_src (n, p) ()
        | Soc -> ());
        match b with
        | Port (n, p) ->
          check_port ?span (n, p);
          if Hashtbl.mem as_dst (n, p) then err ?span (Port_reused (n, p));
          Hashtbl.replace as_dst (n, p) ()
        | Soc -> ()))
    t.edges;
  (* Direction conflicts and unconnected stream ports. *)
  List.iter
    (fun n ->
      List.iter
        (fun (p, kind) ->
          if kind = Stream then begin
            let s = Hashtbl.mem as_src (n.node_name, p)
            and d = Hashtbl.mem as_dst (n.node_name, p) in
            if s && d then
              err ?span:n.node_span (Port_direction_conflict (n.node_name, p));
            if (not s) && not d then
              err ?span:n.node_span (Unconnected_stream_port (n.node_name, p))
          end)
        n.node_ports)
    t.nodes;
  List.rev !errs

let validate t =
  match List.map fst (validate_spanned t) with [] -> Ok () | es -> Error es

let validate_exn t =
  match validate t with
  | Ok () -> ()
  | Error es ->
    failwith
      (Printf.sprintf "invalid system spec %s: %s" t.design_name
         (String.concat "; " (List.map error_to_string es)))

(* Nodes no edge references at all: legal, but almost certainly a mistake
   (the node contributes an accelerator nothing talks to). *)
let unattached_nodes t =
  let referenced =
    List.concat_map
      (fun e ->
        match e.edge with
        | Connect n -> [ n ]
        | Link (a, b) ->
          List.filter_map (function Port (n, _) -> Some n | Soc -> None) [ a; b ])
      t.edges
  in
  List.filter
    (fun n ->
      (* Unconnected stream ports are already errors (SOC010); the warning
         covers AXI-Lite-only nodes that nothing ever attaches. *)
      n.node_ports <> []
      && List.for_all (fun (_, k) -> k = Lite) n.node_ports
      && not (List.mem n.node_name referenced))
    t.nodes

let validate_diags t =
  let of_error (e, span) =
    Diag.error ?span ~code:(error_code e) ~subject:(error_subject t.design_name e)
      (error_to_string e)
  in
  let warnings =
    List.map
      (fun n ->
        Diag.warning ?span:n.node_span ~code:"SOC012" ~subject:n.node_name
          "node is not referenced by any edge (no connect, no link)")
      (unattached_nodes t)
  in
  Diag.sort (List.map of_error (validate_spanned t) @ warnings)

(* Inferred direction of a stream port, from link usage. *)
type direction = Input | Output

let stream_direction t ~node ~port =
  if List.mem (node, port) (stream_inputs t) then Some Input
  else if List.mem (node, port) (stream_outputs t) then Some Output
  else None
