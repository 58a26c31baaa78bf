(** Entry point of the HLS substrate — the role Vivado HLS plays in the
    paper's flow: kernel in, accelerator out (RTL netlist, resource report,
    static performance estimates). The interface directives
    ({!directives_of_kernel}) are a pure rendering, computed on demand. *)

type config = {
  strategy : Schedule.strategy;
  resources : Schedule.resources;
  optimize : bool;  (** run {!Soc_kernel.Opt} before scheduling *)
}

val default_config : config
(** List scheduling, the default resource budget, optimizer on. *)

type accel = {
  fsmd : Fsmd.t;
  report : Report.accel_report;
  perf : Perf.report;  (** static performance estimates *)
}
(** Marshalled into the farm's [.accel] cache entries: any change to this
    record's layout (or to a record it contains) must bump
    [Soc_farm.Chash.format_version]. *)

val directives_of_kernel : Soc_kernel.Ast.kernel -> string
(** The Vivado-HLS-style INTERFACE pragma file for a kernel's ports. *)

val synthesize : ?config:config -> Soc_kernel.Ast.kernel -> accel
(** Raises [Failure] on typechecking errors or (internal) illegal
    schedules. *)

val invocation_count : unit -> int
(** Number of real [synthesize] runs in this process so far (all domains).
    Cache layers (e.g. [Soc_farm.Cache]) are measured against this: a hit
    must not move it. *)
