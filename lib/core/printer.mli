(** Pretty-printer back to the DSL's concrete syntax. Round-trip law:
    [Parser.parse (to_source spec) = spec] (qcheck-verified). The printed
    text is also the DSL side of the Section VI.C conciseness metrics. *)

val to_source : Spec.t -> string
val pp : Format.formatter -> Spec.t -> unit
