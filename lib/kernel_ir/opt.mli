(** Machine-independent optimizations on the CFG, run by the HLS engine
    before scheduling: constant folding, algebraic simplification, local
    copy/constant propagation, branch folding with unreachable-block
    pruning, and global dead-code elimination. Stream pops survive DCE
    because consuming a beat is a side effect.

    Every pass preserves interpreter semantics exactly (qcheck-verified,
    including through HLS to RTL). *)

type stats = { before : int; after : int }

val run : Cfg.t -> stats
(** Optimize in place; returns instruction counts. Idempotent. *)
