(** Tcl script generation for Vivado Design Suite — the text a designer
    would otherwise write by hand (the Section VI.C comparison). Two
    backend versions mirror the paper's 2014.2 -> 2015.3 port: IP versions
    and a handful of commands differ, the rest is shared. *)

type version = V2014_2 | V2015_3

type dma_plan = {
  dma_name : string;
  read_side : (string * string) option;  (** 'soc -> (node, port) *)
  write_side : (string * string) option;
}

val dma_plans : Spec.t -> dma_plan list
(** One AXI DMA core per 'soc-crossing stream link. *)

val generate : version:version -> Spec.t -> string

type backend_diff = {
  total_commands : int;
  changed_commands : int;
  changed_fraction : float;
}

val diff_backends : Spec.t -> backend_diff
(** Command-level diff between the two versions' output for one spec: the
    maintainability metric of Section VI.C. *)
