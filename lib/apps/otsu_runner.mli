(** The Otsu host program: the application binary the paper's flow
    produces, executed on the simulated platform through the driver API.
    One program serves every design: the stages a design's spec names run
    in hardware, each maximal run as one concurrent streaming phase, and
    every other stage runs on the GPP model. The four case-study
    architectures, the all-software baseline and every DSE partition
    compute the same segmented image (golden-checked in the test suite). *)

type result = {
  label : string;
  output : Image.t;
  threshold : int;
  cycles : int;  (** PL cycles of the measured region *)
  microseconds : float;
  build : Soc_core.Flow.build option;  (** [None] for the SW baseline *)
}

val buffer : pixels:int -> string -> string -> int * int
(** [buffer ~pixels node port]: the DRAM buffer (word address, length)
    behind a pipeline stage's stream port. *)

type step = Sw of string | Hw of string list  (** node names, in pipeline order *)

val plan : Soc_core.Spec.t option -> step list
(** The pipeline stages in order; the stages the spec names are grouped
    into maximal hardware runs. [None] (no fabric) runs every stage in
    software. *)

type host = {
  exec : Soc_platform.Executive.t;
  live : Soc_core.Flow.live option;
  rgb : Image.rgb_image;
  width : int;
  height : int;
}
(** A design booted with the synthetic scene loaded into DRAM. *)

val boot : ?seed:int -> width:int -> height:int -> Soc_core.Flow.live option -> host
(** Load the scene into the instantiated design, or into a bare GPP
    platform for [None]. *)

type phases = {
  task : string;  (** name of the first hardware run, for reports *)
  drains : (string * string) list;
      (** (node, port) of every buffer that run writes to DRAM *)
  pre : unit -> unit;
  hw : unit -> unit;
  post : unit -> unit;
  sw_fallback : unit -> unit;
}
(** The plan split at its first hardware run: [pre (); hw (); post ()]
    is the whole program, and [sw_fallback] redoes the work of [hw] on
    the GPP model. The split lets the chaos harness wrap exactly the
    accelerated region in the fault-tolerant runtime. *)

val phases : host -> phases

val read_output : host -> Image.t

val read_threshold : host -> int
(** The threshold the program chose: read from DRAM, or the golden one
    when it stays on-chip (halfProbability -> segment in hardware). *)

val execute :
  ?seed:int -> label:string -> width:int -> height:int -> Soc_core.Flow.live option -> result
(** Boot, run the whole plan and read back image, threshold and time. *)

val build_arch : width:int -> height:int -> Graphs.arch -> Soc_core.Flow.build * Soc_core.Flow.live
(** Build and instantiate one case-study architecture with the default
    HLS configuration (FIFO depth sized to hold a whole image). *)

val run_arch : ?width:int -> ?height:int -> ?seed:int -> Graphs.arch -> result

val run_software_only : ?width:int -> ?height:int -> ?seed:int -> unit -> result

val golden : ?width:int -> ?height:int -> ?seed:int -> unit -> Image.t * int
(** The reference segmented image and threshold for the synthetic scene. *)
