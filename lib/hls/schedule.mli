(** Operation scheduling: ASAP/ALAP (dependences only) and
    resource-constrained list scheduling with longest-path priority. Every
    schedule can be re-verified structurally with {!verify}. *)

type resources = {
  alus_per_op : int;  (** per operator kind: adders, subtractors, ... *)
  multipliers : int;
  dividers : int;
}

val default_resources : resources
val unlimited : resources

type block_schedule = {
  csteps : int array;  (** issue control step per instruction index *)
  nsteps : int;  (** execution states of the block (at least 1) *)
}

type t = {
  cfg : Soc_kernel.Cfg.t;
  dfgs : Dfg.t array;
  blocks : block_schedule array;
}

val finish : Dfg.t -> int array -> int -> int
(** Control step at which instruction [i]'s result becomes readable. *)

val makespan : Dfg.t -> int array -> int

val capacity : resources -> Oplib.fu_class -> int

type strategy = Asap | List_scheduling

val of_cfg : ?strategy:strategy -> ?resources:resources -> Soc_kernel.Cfg.t -> t

type violation =
  | Dependence of { block : int; src : int; dst : int; weight : int }
  | Over_capacity of { block : int; cstep : int; cls : string; used : int; cap : int }

val pp_violation : Format.formatter -> violation -> unit

val verify : ?resources:resources -> t -> violation list
(** Empty iff every dependence edge and capacity holds. *)

val static_block_latencies : t -> int array
