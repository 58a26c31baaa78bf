(** Whole-design static analysis: every check the flow can run before
    spending HLS or co-simulation cycles, unified into one
    {!Soc_util.Diag} stream.

    Checks, by code family:
    - [SOC001]..[SOC012] — task-graph structure ({!Spec.validate_diags});
    - [SOC020]..[SOC024] — DSL interface vs. kernel port consistency;
    - [SOC030]..[SOC033] — SDF-style stream rate/deadlock analysis from
      per-kernel push/pop bounds ({!Rates});
    - [SOC040] — shared-DRAM races between concurrently schedulable
      top-level HTG nodes;
    - [KRN101]..[KRN110] — kernel IR type errors, lifted;
    - [RES201] — AXI-Lite address-map overlaps;
    - [RES210]/[RES211] — Zynq-7020 resource budget exceeded / nearly
      exceeded. *)

module Diag = Soc_util.Diag

val run :
  ?config:Soc_platform.Config.t ->
  ?kernels:(string * Soc_kernel.Ast.kernel) list ->
  ?htg:Soc_htg.Htg.t ->
  ?regions:(string * (int * int)) list ->
  ?address_map:(string * int * int) list ->
  ?resources:(string * Soc_hls.Report.usage) list ->
  Spec.t ->
  Diag.t list
(** All applicable checks over one design, sorted ({!Diag.sort}).

    Graph checks always run. Kernel, rate and budget checks need
    [kernels]; they are skipped while the graph itself has errors (fail
    fast: a dangling link makes rate analysis meaningless). The race
    check needs [htg] and [regions] (top-level node -> planned DRAM
    [(base, bytes)]). [address_map] and [resources] override the values
    otherwise derived from the spec ({!Layout.address_map_of_spec}, the
    AST-based estimate) — pass post-synthesis numbers when available.
    [config] supplies the FIFO depth and device assumed by the deadlock
    and budget checks (default: zedboard). *)

val races :
  htg:Soc_htg.Htg.t -> regions:(string * (int * int)) list -> Diag.t list
(** [SOC040]: pairs of top-level HTG nodes with no precedence path either
    way (so the schedule may run them concurrently) whose planned DRAM
    regions intersect. *)

val estimate_kernel_resources : Soc_kernel.Ast.kernel -> Soc_hls.Report.usage
(** Pre-HLS resource estimate from the AST (operation count, BRAM from
    array declarations, DSP from multipliers); the budget check's default
    when no synthesis report is available. *)

val typecheck_code : Soc_kernel.Typecheck.error -> string
(** Stable code of a lifted kernel type error (KRN101..KRN110). *)

val code_table : (string * string) list
(** Every stable diagnostic code with a one-line description, for
    [socdsl check --codes] and the README table. *)

val explain : string -> string option
(** [explain code] is a one-paragraph description of a stable diagnostic
    code — its one-line summary plus the background of its family — for
    [socdsl check --explain CODE]. [None] for unknown codes. Matching is
    case-insensitive. *)
