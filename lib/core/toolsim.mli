(** Runtime model of the commercial tools the flow coordinates, anchored
    on Section VI.C (~6 s Scala compile, ~50 s project generation, HLS
    once per function, 42 minutes for the whole case study). Phase
    durations are deterministic functions of kernel complexity and system
    LUT count. *)

type phase = Scala_compile | Hls | Project_gen | Synthesis | Implementation | Bitgen

val phase_name : phase -> string
val all_phases : phase list

type breakdown = {
  arch : string;
  seconds : (phase * float) list;
}

val total : breakdown -> float

val scala_time : dsl_lines:int -> float
val project_gen_time : cells:int -> float

type kernel_cost = { kname : string; complexity : int; reused : bool }
(** One kernel's contribution to the HLS phase; [reused] marks accelerators
    taken from an earlier build ("cores are generated only once"). *)

val estimate_costed :
  arch:string ->
  dsl_lines:int ->
  kernel_costs:kernel_cost list ->
  cells:int ->
  luts:int ->
  breakdown
(** The estimate: reused kernels cost nothing in the HLS phase. The
    caller decides reuse — {!Soc_farm.Cache} attributes it by content hash
    so the estimate and the actual HLS work agree by construction. *)

val pp : Format.formatter -> breakdown -> unit
