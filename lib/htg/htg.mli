(** Two-level Hierarchical Task Graph (Section II-A of the paper).

    The top level is a precedence DAG whose nodes are simple tasks or
    {e phases}; a phase owns a dataflow graph of stream-connected actors.
    Hardware/software partitioning happens at the top level only. *)

type mapping = Hw | Sw

(** A dataflow actor inside a phase; [inputs]/[outputs] carry the tokens
    consumed/produced per firing on each named stream port. *)
type actor = {
  actor_name : string;
  inputs : (string * int) list;
  outputs : (string * int) list;
}

type stream_link = {
  src_actor : string;
  src_port : string;
  dst_actor : string;
  dst_port : string;
}

type dataflow = { actors : actor list; links : stream_link list }

type node_kind =
  | Task  (** simple node: shared-memory communication, GPP-controlled *)
  | Phase of dataflow  (** lower-level dataflow graph, stream-connected *)

type node = { name : string; kind : node_kind; mapping : mapping }

type edge = { src : string; dst : string }

type t = { graph_name : string; nodes : node list; edges : edge list }

(** {2 Construction} *)

val task : ?mapping:mapping -> string -> node
(** A simple task node; [mapping] defaults to [Sw]. *)

val phase : ?mapping:mapping -> string -> dataflow -> node
(** A phase node; [mapping] defaults to [Hw]. *)

val actor :
  ?inputs:(string * int) list -> ?outputs:(string * int) list -> string -> actor

val link : string * string -> string * string -> stream_link
(** [link (src_actor, src_port) (dst_actor, dst_port)]. *)

val make : name:string -> nodes:node list -> edges:(string * string) list -> t

(** {2 Queries} *)

val find_node : t -> string -> node option
val node_names : t -> string list
val successors : t -> string -> string list
val predecessors : t -> string -> string list
val sources : t -> node list
val sinks : t -> node list
val hw_nodes : t -> node list
val sw_nodes : t -> node list

val dataflow_inputs : dataflow -> (string * string) list
(** Actor input ports not driven by any internal link: the phase's boundary
    inputs, fed by the system. *)

val dataflow_outputs : dataflow -> (string * string) list

(** {2 Validation} *)

type error =
  | Duplicate_node of string
  | Unknown_endpoint of string
  | Cycle of string list
  | Duplicate_actor of string * string
  | Unknown_actor_port of string * string * string
  | Stream_port_reused of string * string * string
  | Dataflow_cycle of string * string list

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val validate : t -> (unit, error list) result
(** Structural checks: unique names, resolvable edges, acyclic top level,
    well-formed and acyclic phase dataflow graphs. *)

val topological_sort : t -> string list
(** Raises [Invalid_argument] on a cyclic graph. *)

(** {2 Partition manipulation} *)

val remap : t -> name:string -> mapping:mapping -> t
(** Functional update of one node's mapping. *)

val partition_signature : t -> string
(** One character per node, "H" or "S", in node order. *)

(** {2 Rendering} *)

val to_dot : t -> string
val pp : Format.formatter -> t -> unit
