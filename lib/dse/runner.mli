(** Design points of the DSE: a partition's build run through the Otsu
    host program ({!Soc_apps.Otsu_runner}: software stages on the GPP,
    contiguous hardware stages as concurrent streaming phases), checked
    bit-exactly against the golden model. *)

type run = {
  cycles : int;
  microseconds : float;
  output : Soc_apps.Image.t;
  threshold : int;
  fifo_peak : int;
      (** the largest {!Soc_axi.Fifo.high_water} of any stream FIFO; 0
          without fabric. Every FIFO takes at most one push per cycle, so
          a run that peaked below its FIFO depth never had a push refused
          and is the run any depth above [fifo_peak] makes. *)
}
(** What one co-simulation produced, whatever the build cost. *)

exception Wrong_output of string
(** A design point whose image differs from the golden model (a bug, not a
    design point). *)

val simulate :
  ?width:int ->
  ?height:int ->
  ?seed:int ->
  ?fifo_depth:int ->
  ?mode:[ `Rtl | `Behavioral ] ->
  Soc_core.Flow.build option ->
  Partition.t ->
  run
(** Instantiate an already finished build (e.g. from a
    {!Soc_farm.Farm.build_batch}) and run the host program on it;
    [None] runs the all-software partition. Raises {!Wrong_output} when
    the image differs from the golden model. *)

val costs : Soc_core.Flow.build option -> Soc_hls.Report.usage * float
(** A build's synthesized resources and estimated tool seconds; zero for
    the all-software partition. *)
