(** Generic host program for any partition: software stages on the GPP,
    contiguous hardware stages as concurrent streaming phases. Subsumes the
    hand-written host programs of the paper's four architectures, and
    checks every run bit-exactly against the golden model. *)

type point = {
  partition : Partition.t;
  cycles : int;
  microseconds : float;
  resources : Soc_hls.Report.usage;
  tool_seconds : float;  (** estimated generation time (Fig. 9 model) *)
  output : Soc_apps.Image.t;
  threshold : int;
}

val hw_runs : Partition.t -> Partition.stage list list
(** Contiguous maximal runs of hardware stages, in pipeline order. *)

exception Wrong_output of string
(** A design point whose image differs from the golden model (a bug, not a
    design point). *)

val measure :
  ?width:int ->
  ?height:int ->
  ?seed:int ->
  ?fifo_depth:int ->
  ?mode:[ `Rtl | `Behavioral ] ->
  Soc_core.Flow.build option ->
  Partition.t ->
  point
(** Instantiate an already finished build (e.g. from a
    {!Soc_farm.Farm.build_batch}) and run the partition's execution plan;
    [None] runs the all-software partition. Raises {!Wrong_output} when
    the image differs from the golden model. *)
