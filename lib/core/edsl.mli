(** Embedded DSL: the paper's key idea is that every keyword is an
    executable function (Fig. 6). Keywords mutate a builder; sections are
    enforced at runtime like the Scala original; every keyword appends to
    an execution trace.

    {[
      let fig4 =
        design "fig4" @@ fun tg ->
          nodes tg;
            node tg "MUL" |> i "A" |> i "B" |> i "return_" |> end_;
            node tg "GAUSS" |> is "in" |> is "out" |> end_;
          end_nodes tg;
          edges tg;
            connect tg "MUL";
            link tg soc ~to_:(port "GAUSS" "in");
            link tg (port "GAUSS" "out") ~to_:soc;
          end_edges tg
    ]} *)

exception Syntax of string
(** Misplaced or missing section / malformed node. *)

(** What the "execution" of each keyword performed, mirroring Fig. 6. *)
type trace_step =
  | Created_project of string
  | Created_node of string  (** new Vivado HLS project for the node *)
  | Added_interface of string * string * Spec.port_kind
  | Synthesized_node of string  (** [end_] triggers HLS *)
  | Connected_lite of string
  | Created_link of Spec.endpoint * Spec.endpoint
  | Executed_integration  (** [end_edges] runs the Vivado project *)

type t
(** The builder threaded through a description. *)

type open_node
(** A node under construction: [i]/[is] chain onto it, [end_] seals it. *)

val nodes : t -> unit
val node : t -> string -> open_node
val i : string -> open_node -> open_node
(** Add an AXI-Lite interface. *)

val is : string -> open_node -> open_node
(** Add an AXI-Stream interface. *)

val end_ : open_node -> unit
val end_nodes : t -> unit
val edges : t -> unit

val soc : Spec.endpoint
val port : string -> string -> Spec.endpoint

val connect : t -> string -> unit
val link : t -> Spec.endpoint -> to_:Spec.endpoint -> unit
val end_edges : t -> unit

val design : ?validate:bool -> string -> (t -> unit) -> Spec.t
(** Execute a description and elaborate the (validated) spec. *)

val trace : t -> trace_step list

val design_with_trace : string -> (t -> unit) -> Spec.t * trace_step list
