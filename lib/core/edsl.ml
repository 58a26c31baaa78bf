(** Embedded DSL.

    The paper's key idea is that every DSL keyword is an executable function
    (Section IV-B, Fig. 6): "executing" the task-graph description drives
    the flow. This module reproduces that embedding in OCaml. Keywords are
    functions over a mutable builder; sections are enforced at runtime
    exactly like the Scala original (calling [node] outside a
    [nodes]...[end_nodes] section is an error), and every keyword appends an
    entry to an execution trace that the flow coordinator consumes.

    {[
      let fig4 =
        design "fig4" @@ fun tg ->
          nodes tg;
            node tg "MUL" |> i "A" |> i "B" |> i "return" |> end_;
            node tg "GAUSS" |> is "in" |> is "out" |> end_;
          end_nodes tg;
          edges tg;
            connect tg "MUL";
            link tg soc ~to_:(port "GAUSS" "in");
            link tg (port "GAUSS" "out") ~to_:soc;
          end_edges tg
    ]} *)

exception Syntax of string

(* What the "execution" of each keyword performed, mirroring Fig. 6. *)
type trace_step =
  | Created_project of string
  | Created_node of string (* new Vivado HLS project for the node *)
  | Added_interface of string * string * Spec.port_kind
  | Synthesized_node of string (* [end] triggers HLS *)
  | Connected_lite of string
  | Created_link of Spec.endpoint * Spec.endpoint
  | Executed_integration (* [end_edges] runs the Vivado project *)

type section = Preamble | In_nodes | In_edges | Finished

type t = {
  mutable section : section;
  mutable nodes_acc : Spec.node_spec list; (* reversed *)
  mutable edges_acc : Spec.edge_spec list; (* reversed *)
  mutable trace : trace_step list; (* reversed *)
  mutable nodes_done : bool;
  mutable edges_done : bool;
}

(* A node under construction: [i]/[is] chain onto it, [end_] seals it. *)
type open_node = {
  builder : t;
  oname : string;
  mutable ports : (string * Spec.port_kind) list;
}

let step t s = t.trace <- s :: t.trace

let require t section what =
  if t.section <> section then raise (Syntax ("misplaced " ^ what))

let nodes t =
  require t Preamble "tg nodes";
  if t.nodes_done then raise (Syntax "duplicate nodes section");
  t.section <- In_nodes

let node t name =
  require t In_nodes "tg node";
  if name = "" then raise (Syntax "empty node name");
  step t (Created_node name);
  { builder = t; oname = name; ports = [] }

let i name (on : open_node) =
  step on.builder (Added_interface (on.oname, name, Spec.Lite));
  on.ports <- (name, Spec.Lite) :: on.ports;
  on

let is name (on : open_node) =
  step on.builder (Added_interface (on.oname, name, Spec.Stream));
  on.ports <- (name, Spec.Stream) :: on.ports;
  on

(* Sealing a node is the point where the paper's tool invokes Vivado HLS on
   the node's C source. *)
let end_ (on : open_node) =
  let t = on.builder in
  require t In_nodes "end";
  if on.ports = [] then raise (Syntax "node declared without interfaces");
  t.nodes_acc <- Spec.make_node on.oname (List.rev on.ports) :: t.nodes_acc;
  step t (Synthesized_node on.oname)

let end_nodes t =
  require t In_nodes "tg end_nodes";
  t.nodes_done <- true;
  t.section <- Preamble

let edges t =
  if not t.nodes_done then raise (Syntax "edges section before nodes section");
  require t Preamble "tg edges";
  if t.edges_done then raise (Syntax "duplicate edges section");
  t.section <- In_edges

let soc = Spec.Soc
let port n p = Spec.Port (n, p)

let connect t name =
  require t In_edges "tg connect";
  t.edges_acc <- Spec.connect_edge name :: t.edges_acc;
  step t (Connected_lite name)

let link t src ~to_ =
  require t In_edges "tg link";
  t.edges_acc <- Spec.link_edge src to_ :: t.edges_acc;
  step t (Created_link (src, to_))

let end_edges t =
  require t In_edges "tg end_edges";
  t.edges_done <- true;
  t.section <- Finished;
  step t Executed_integration

(* Execute a description and elaborate it into a validated spec. *)
let design ?(validate = true) name body =
  let t =
    {
      section = Preamble;
      nodes_acc = [];
      edges_acc = [];
      trace = [ Created_project name ];
      nodes_done = false;
      edges_done = false;
    }
  in
  body t;
  if not t.nodes_done then raise (Syntax "missing nodes section");
  if not t.edges_done then raise (Syntax "missing edges section");
  let spec =
    {
      Spec.design_name = name;
      nodes = List.rev t.nodes_acc;
      edges = List.rev t.edges_acc;
    }
  in
  if validate then Spec.validate_exn spec;
  spec

(* The execution trace of the last keyword run, for a builder captured by
   the caller before [design] returned. *)
let trace t = List.rev t.trace

(* Run a description and return both the spec and the keyword trace. *)
let design_with_trace name body =
  let captured = ref [] in
  let spec =
    design name (fun t ->
        body t;
        captured := trace t)
  in
  (spec, !captured)
