(** k-objective Pareto dominance (all objectives minimized).

    This is the shared dominance check behind every frontier in the
    autotuner. *)

val dominates : float array -> float array -> bool
(** [dominates a b] — [a] is no worse than [b] in every objective and
    strictly better in at least one. Raises [Invalid_argument] when the
    vectors disagree on arity. *)

val front : objectives:('a -> float array) -> 'a list -> 'a list
(** The non-dominated subset, in the input's order (stable). Duplicate
    objective vectors all survive: none dominates the other. *)
