(** Structural content hashes for HLS artifacts.

    The farm's cache is addressed by what actually determines the result of
    {!Soc_hls.Engine.synthesize}: the kernel IR (ports with their interface
    kinds, locals, arrays including initializers, body), and the HLS
    configuration (strategy, resource budget, optimizer switch). Kernel
    {e names} deliberately participate only as part of the IR, so two nodes
    with the same name but different bodies never alias — the failure mode
    of the old name-keyed estimate cache. *)

type t = private string
(** 16 hex digits (64-bit FNV-1a over a canonical serialization). *)

val to_hex : t -> string

val of_hex : string -> t
(** Re-import a hash previously persisted with {!to_hex} (journal replay,
    cache file names). Performs no validation — callers own the trust. *)

val format_version : string
(** Bumped whenever the canonical serialization changes, and whenever the
    layout of a record marshalled into a cache entry
    ({!Soc_hls.Engine.accel} and what it contains) changes; on-disk cache
    entries carry it so stale layouts read as misses, never as garbage. *)

val digest : string -> t
(** Raw digest of a byte string — the integrity checksum carried by every
    on-disk artifact and journal entry. *)

val kernel : config:Soc_hls.Engine.config -> Soc_kernel.Ast.kernel -> t
(** Hash of one HLS job's full input. *)

val combine : string -> t list -> t
(** Hash of a labelled list of hashes (e.g. a whole batch). *)
