(** Tiny builder for Graphviz DOT output, used to emit the block diagrams of
    Figure 10 and the task graphs of Figures 1 and 8. *)

type node = { id : string; label : string; attrs : (string * string) list }
type edge = { src : string; dst : string; eattrs : (string * string) list }

type t = {
  name : string;
  mutable gnodes : node list;
  mutable gedges : edge list;
  mutable clusters : (string * string * string list) list; (* id, label, node ids *)
}

let create name = { name; gnodes = []; gedges = []; clusters = [] }

let sanitize = Ident.sanitize

let add_node ?(attrs = []) t ~id ~label =
  t.gnodes <- { id = sanitize id; label; attrs } :: t.gnodes

let add_edge ?(attrs = []) t ~src ~dst =
  t.gedges <- { src = sanitize src; dst = sanitize dst; eattrs = attrs } :: t.gedges

let add_cluster t ~id ~label node_ids =
  t.clusters <- (sanitize id, label, List.map sanitize node_ids) :: t.clusters

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter (fun c -> if c = '"' then Buffer.add_string buf "\\\"" else Buffer.add_char buf c) s;
  Buffer.contents buf

let attrs_to_string attrs =
  String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape v)) attrs)

let render t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n  node [shape=box, style=filled, fillcolor=white];\n" (sanitize t.name));
  List.iter
    (fun (cid, label, ids) ->
      Buffer.add_string buf (Printf.sprintf "  subgraph cluster_%s {\n    label=\"%s\";\n" cid (escape label));
      List.iter (fun id -> Buffer.add_string buf (Printf.sprintf "    %s;\n" id)) ids;
      Buffer.add_string buf "  }\n")
    (List.rev t.clusters);
  List.iter
    (fun n ->
      let extra = if n.attrs = [] then "" else ", " ^ attrs_to_string n.attrs in
      Buffer.add_string buf (Printf.sprintf "  %s [label=\"%s\"%s];\n" n.id (escape n.label) extra))
    (List.rev t.gnodes);
  List.iter
    (fun e ->
      let extra = if e.eattrs = [] then "" else " [" ^ attrs_to_string e.eattrs ^ "]" in
      Buffer.add_string buf (Printf.sprintf "  %s -> %s%s;\n" e.src e.dst extra))
    (List.rev t.gedges);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
