(** Chaos harness for the case-study architectures: a seeded fault
    campaign armed around the hardware phase of an Otsu host program, the
    phase wrapped in the fault-tolerant runtime
    ({!Soc_platform.Executive.run_task_resilient}), and the final output
    checked bit-for-bit against the golden model. *)

type outcome = {
  arch : Graphs.arch;
  plan : Soc_fault.Fault.plan;  (** carries the event log and counters *)
  report : Soc_platform.Executive.report;
  output_ok : bool;  (** final image and threshold bit-identical to golden *)
  cycles : int;
}

val run :
  ?width:int ->
  ?height:int ->
  ?fallback:bool ->
  ?n_faults:int ->
  ?horizon:int ->
  ?include_permanent:bool ->
  ?include_bit_flips:bool ->
  ?scenario:Soc_fault.Fault.fault list ->
  ?timeout:int ->
  seed:int ->
  Graphs.arch ->
  outcome
(** Run one architecture under a fault campaign. With [scenario] the
    explicit fault list is used; otherwise [n_faults] faults are drawn
    from the RNG [seed] over the system's inventory with injection cycles
    in [0, horizon). [fallback:false] disables graceful degradation, so an
    unrecovered campaign raises {!Soc_platform.Executive.Unrecoverable}.
    The input image comes from a fixed seed (42). Reproducible from
    [seed] and the geometry alone. *)

val diags : outcome -> Soc_util.Diag.t list
(** Health findings of one campaign as diagnostics, ready for the unified
    pretty-printer: [RUN311] (error) when the output diverged from the
    golden model, [RUN310] (warning) when the task degraded to its
    software fallback, [RUN312] (info) when hardware recovery needed
    retries. Empty for a clean run. *)

val render_outcome : outcome -> string
(** Multi-line health report: recovery summary, verdict, counters and the
    chronological fault/recovery event log. *)
