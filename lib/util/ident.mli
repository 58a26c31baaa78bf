(** Identifier sanitization shared by every generated text that names
    hardware or graph objects (Tcl/Qsys cells, C prototypes, device-tree
    labels, DOT ids, VCD scopes). *)

val sanitize : string -> string
(** Replace every character outside [[A-Za-z0-9_]] with ['_']. *)
