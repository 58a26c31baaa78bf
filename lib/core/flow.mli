(** The flow coordinator — what "executing" the DSL does (Section IV):
    kernel/interface consistency checks, HLS on every node, system
    integration (Tcl for both backends, address map, DMA planning),
    synthesis cost aggregation, software generation, tool-runtime
    estimation; then [instantiate] boots the result as a live simulated
    system. *)

type mismatch =
  | Missing_kernel of string
  | Missing_port of string * string
  | Extra_port of string * string
  | Kind_mismatch of string * string
  | Direction_mismatch of string * string

type node_impl = {
  node : Spec.node_spec;
  kernel : Soc_kernel.Ast.kernel;
  accel : Soc_hls.Engine.accel;
}

type dma_channel = Soc_analysis.Layout.dma_channel = {
  logical : string * string;  (** node, port *)
  direction : [ `To_device | `From_device ];
}

val dma_channels_of_spec : Spec.t -> dma_channel list
val address_map_of_spec : Spec.t -> (string * int * int) list

val pre_flight :
  ?config:Soc_platform.Config.t ->
  Spec.t ->
  kernels:(string * Soc_kernel.Ast.kernel) list ->
  Soc_util.Diag.t list
(** The {!Soc_analysis.Analyze} checks the flow runs before spending any
    HLS work ([Analyze.run] with kernels and no HTG: graph, kernel, rate
    and budget checks). [build] (and the farm) refuse designs whose
    pre-flight contains errors — a rate-inconsistent pipeline is rejected
    here instead of deadlocking at co-simulation. *)

val reject_pre_flight : Soc_util.Diag.t list -> unit
(** Raise [Build_error] listing the error-severity findings of a
    {!pre_flight} result, if any. *)

type build = {
  spec : Spec.t;
  dsl_source : string;  (** canonical DSL text (conciseness metric) *)
  impls : node_impl list;
  tcl_2014 : string;
  tcl_2015 : string;
  address_map : (string * int * int) list;
  dma_channels : dma_channel list;
  resources : Soc_hls.Report.usage;  (** aggregated system total *)
  resources_by_core : (string * Soc_hls.Report.usage) list;
  sw : Swgen.boot_artifacts;
  tool_times : Toolsim.breakdown;
  bitstream : string;
}

exception Build_error of string

(** {2 Staged flow}

    [build] is a composition of the stages below; they are exposed so an
    orchestrator ({!Soc_farm}) can execute them as jobs of a dependency
    graph (per-kernel HLS, per-arch integration / synthesis aggregation /
    software generation) without duplicating the flow logic. *)

type hls_engine =
  config:Soc_hls.Engine.config ->
  Soc_kernel.Ast.kernel ->
  [ `Reused | `Synthesized ] * Soc_hls.Engine.accel
(** How stage 2 obtains an accelerator for a kernel. [`Reused] marks
    results shared from an earlier build; they cost nothing in the Fig. 9
    estimate, and a caching engine also skips the actual synthesis work. *)

val pair_kernels :
  Spec.t -> kernels:(string * Soc_kernel.Ast.kernel) list -> (Spec.node_spec * Soc_kernel.Ast.kernel) list
(** Stage 1: kernel/interface consistency; raises [Build_error]. *)

val synthesize_impls :
  ?hls:hls_engine ->
  hls_config:Soc_hls.Engine.config ->
  (Spec.node_spec * Soc_kernel.Ast.kernel) list ->
  (node_impl * [ `Reused | `Synthesized ]) list
(** Stage 2: HLS per node through the pluggable engine. *)

val lint_impl_netlist : name:string -> Soc_rtl.Netlist.t -> unit
(** Stage 2b helper: RTL lint one generated netlist; raises [Build_error]
    on an error-severity [RTL5xx] finding (multi-driven signal,
    combinational loop). Generated netlists are expected to lint clean —
    a failure here is an HLS-generator bug caught before integration. *)

val lint_impls : node_impl list -> unit
(** Stage 2b: {!lint_impl_netlist} over every implementation. *)

type integration = {
  int_tcl_2014 : string;
  int_tcl_2015 : string;
  int_address_map : (string * int * int) list;
  int_dma_channels : dma_channel list;
}

val integrate : Spec.t -> integration
(** Stage 3: Tcl for both backend versions, address map, DMA planning. *)

val aggregate_resources :
  Spec.t ->
  fifo_depth:int ->
  node_impl list ->
  (string * Soc_hls.Report.usage) list * Soc_hls.Report.usage
(** Stage 4: per-core and aggregated system resources (Table II). *)

val generate_software : Spec.t -> integration -> Swgen.boot_artifacts
(** Stage 5: device tree, boot set, C API. *)

val estimate_tools :
  Spec.t ->
  dsl_source:string ->
  (node_impl * [ `Reused | `Synthesized ]) list ->
  integration ->
  resources:Soc_hls.Report.usage ->
  Toolsim.breakdown
(** Stage 6: Fig. 9 tool-runtime estimate; reused kernels cost nothing. *)

val assemble :
  Spec.t ->
  dsl_source:string ->
  node_impl list ->
  integration ->
  resources:Soc_hls.Report.usage ->
  resources_by_core:(string * Soc_hls.Report.usage) list ->
  sw:Swgen.boot_artifacts ->
  tool_times:Toolsim.breakdown ->
  build

val build :
  ?hls_config:Soc_hls.Engine.config ->
  ?fifo_depth:int ->
  ?hls:hls_engine ->
  Spec.t ->
  kernels:(string * Soc_kernel.Ast.kernel) list ->
  build
(** [hls] supplies accelerators (default: {!Soc_hls.Engine.synthesize} on
    every kernel); pass [Soc_farm.Cache.hls_engine] to share real HLS
    results across builds. *)

type live = {
  lbuild : build;
  system : Soc_platform.System.t;
  exec : Soc_platform.Executive.t;
  channels : ((string * string) * string) list;
}

val instantiate :
  ?config:Soc_platform.Config.t ->
  ?fifo_depth:int ->
  ?mode:[ `Rtl | `Behavioral ] ->
  build ->
  live
(** "Boot the board": a fresh simulated system wired per the spec.
    [`Rtl] (default) simulates the synthesized netlists cycle-accurately;
    [`Behavioral] runs the kernels on the resumable interpreter, paced at
    one stream beat per cycle — fast functional mode / performance upper
    bound. *)

val channel : live -> node:string -> port:string -> string
(** DMA channel name for a logical 'soc-crossing port; raises
    [Build_error] if there is none. *)
