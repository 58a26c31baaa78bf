(** Deterministic rendering of search results.

    {!frontier_json} deliberately contains no timing, cache or host
    field: two runs with the same strategy and seed produce byte-identical
    text regardless of cache temperature — the property the CI explore
    smoke asserts with [cmp]. *)

val frontier_json : Search.result -> string
(** Multi-line JSON: strategy/seed/counters plus the frontier points
    (objectives, cycles, canonical DSL text). *)

val winner : Search.result -> Search.point option
(** The fastest frontier point (canonical order puts latency first). *)

val table : Search.result -> Soc_util.Table.t
(** All evaluated points with a Pareto-front marker column. *)

val summary : Search.result -> string
(** One-line counters. *)
