(** HTG-to-DSL elaboration: the Section III mapping from a partitioned
    two-level HTG to the system spec. Software nodes disappear; hardware
    task nodes become AXI-Lite accelerators on the bus; each hardware
    phase contributes one stream accelerator per actor, internal dataflow
    links become direct stream links and boundary ports route through
    'soc. Applying it to the Fig. 1 HTG yields the Fig. 4 architecture. *)

type error =
  | Sw_phase_with_hw_actors of string
  | No_hardware_nodes

val to_spec :
  ?lite_ports:(string -> string list) -> ?validate:bool -> Soc_htg.Htg.t -> Spec.t

val software_residual : Soc_htg.Htg.t -> string list
(** HTG nodes that stay on the GPP. *)
