(** Design points of the DSE: a partition's build run through the Otsu
    host program ({!Soc_apps.Otsu_runner}: software stages on the GPP,
    contiguous hardware stages as concurrent streaming phases), checked
    bit-exactly against the golden model. *)

type point = {
  partition : Partition.t;
  cycles : int;
  microseconds : float;
  resources : Soc_hls.Report.usage;
  tool_seconds : float;  (** estimated generation time (Fig. 9 model) *)
  output : Soc_apps.Image.t;
  threshold : int;
}

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
    {!Soc_farm.Farm.build_batch}) and run the host program on it;
    [None] runs the all-software partition. Raises {!Wrong_output} when
    the image differs from the golden model. *)
