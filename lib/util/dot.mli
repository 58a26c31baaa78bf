(** Tiny builder for Graphviz DOT output (block diagrams, task graphs).
    Node and edge ids are sanitized to DOT identifiers; labels are
    escaped. *)

type t

val create : string -> t

val add_node : ?attrs:(string * string) list -> t -> id:string -> label:string -> unit
val add_edge : ?attrs:(string * string) list -> t -> src:string -> dst:string -> unit

val add_cluster : t -> id:string -> label:string -> string list -> unit
(** Group already-added node ids into a labelled subgraph. *)

val render : t -> string
