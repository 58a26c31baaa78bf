(** Elaborated system specification: the task graph G = (N, E) of Section
    III after DSL parsing/execution. Nodes carry AXI-Lite or AXI-Stream
    ports; edges are [Connect] (register interface on the bus) or [Link]
    (stream between ports, or through a DMA channel at the ['soc]
    boundary).

    Nodes and edges optionally carry the line/column span of the DSL
    source construct they came from ({!Soc_util.Diag.span}), so every
    diagnostic about them can point back at the source. Specs built
    programmatically (EDSL, HTG bridge) have no spans; the printer
    round-trip law holds modulo spans ({!strip_spans}). *)

module Diag = Soc_util.Diag

type port_kind = Lite | Stream

type node_spec = {
  node_name : string;
  node_ports : (string * port_kind) list;  (** declaration order *)
  node_span : Diag.span option;
}

type endpoint = Soc | Port of string * string

type edge_desc =
  | Connect of string
  | Link of endpoint * endpoint  (** src -> dst *)

type edge_spec = { edge : edge_desc; edge_span : Diag.span option }

type t = {
  design_name : string;
  nodes : node_spec list;
  edges : edge_spec list;
}

(** {2 Construction} *)

val make_node : ?span:Diag.span -> string -> (string * port_kind) list -> node_spec
val connect_edge : ?span:Diag.span -> string -> edge_spec
val link_edge : ?span:Diag.span -> endpoint -> endpoint -> edge_spec

val strip_spans : t -> t
(** Same spec with every source span erased; two parses of equivalent
    sources are structurally equal after stripping. *)

(** {2 Queries} *)

val find_node : t -> string -> node_spec option
val port_kind : t -> node:string -> port:string -> port_kind option
val links : t -> (endpoint * endpoint) list
val connects : t -> string list
val stream_outputs : t -> (string * string) list
val stream_inputs : t -> (string * string) list

val soc_to_node_links : t -> (string * string) list
(** Links needing an MM2S DMA channel. *)

val node_to_soc_links : t -> (string * string) list
val internal_links : t -> ((string * string) * (string * string)) list

val stream_nodes : t -> string list
(** Nodes touched by at least one stream link (sorted, unique). *)

val node_span : t -> string -> Diag.span option
(** Source span of a node, when the spec came from DSL source. *)

(** {2 Validation} *)

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

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val validate : t -> (unit, error list) result
val validate_exn : t -> unit

val validate_diags : t -> Diag.t list
(** The graph checks as diagnostics: every {!validate} error with its
    stable code and source span, plus warning [SOC012] for a node that no
    edge references at all. Sorted with {!Diag.sort}. *)

type direction = Input | Output

val stream_direction : t -> node:string -> port:string -> direction option
(** Direction inferred from link usage. *)
