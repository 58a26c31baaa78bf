(** Decomposition of a batch of SoC builds into a job DAG.

    A batch of [entry]s (one per architecture) becomes:
    - one {e HLS job} per {e distinct} (kernel IR, HLS config) content hash
      — shared kernels appear once, owned by the first architecture in
      batch order that needs them (that owner is charged in the Fig. 9
      estimate; later architectures reuse for free, exactly the paper's
      "cores are generated only once");
    - per architecture: an {e integrate} job (validation, Tcl ×2, address
      map, DMA planning), a {e synthesis} job (resource aggregation +
      tool-runtime estimate; depends on the arch's HLS jobs and its
      integrate job), a {e swgen} job (device tree / boot set / C API), and
      a {e finalize} job assembling the {!Soc_core.Flow.build} record.

    Reuse attribution is positional (batch order), not cache-state
    dependent, so a warm cache yields bit-identical build records to a
    cold one — only the wall-clock changes. *)

type entry = {
  spec : Soc_core.Spec.t;
  kernels : (string * Soc_kernel.Ast.kernel) list;
}

val entry_of : library:(string * Soc_kernel.Ast.kernel) list -> Soc_core.Spec.t -> entry
(** The spec with its kernel library narrowed to the spec's node names, in
    library order. The [farm] command, the serve daemon and the worker
    daemon all resolve specs here, so their manifests byte-match. *)

type task =
  | Hls of { key : Chash.t; kernel : Soc_kernel.Ast.kernel; owner : int }
      (** [owner] = batch index charged for this synthesis *)
  | Integrate of int
  | Synthesis of int
  | Software of int
  | Finalize of int

val stages : string list
(** The job categories ([node.cat]): ["hls"], ["integrate"], ["synth"],
    ["swgen"], ["finalize"]. These are the stages a crash point
    ({!Soc_fault.Fault.Kill_at}) can name. *)

type node = {
  task : task;
  label : string;
  cat : string;  (** one of {!stages} *)
  deps : int list;  (** indices of prerequisite nodes, all smaller *)
}

type t = {
  entries : entry array;
  nodes : node array;
  kernel_jobs : (string * int) list array;
      (** per entry: node name -> id of its HLS job *)
  pre_flight : Soc_util.Diag.t list array;
      (** per entry: the {!Soc_core.Flow.pre_flight} findings, computed once
          at plan time ([] for an entry without kernels). An entry with
          errors gets no HLS jobs; its integrate job refuses from these. *)
  integrate_ids : int array;
  synthesis_ids : int array;
  software_ids : int array;
  finalize_ids : int array;
  hls_config : Soc_hls.Engine.config;
  fifo_depth : int;
}

val plan :
  ?hls_config:Soc_hls.Engine.config -> ?fifo_depth:int -> entry list -> t
(** Defaults: {!Soc_hls.Engine.default_config}, the Zedboard FIFO depth. *)

val distinct_kernels : t -> int
(** Number of HLS jobs (= distinct content hashes in the batch). *)
