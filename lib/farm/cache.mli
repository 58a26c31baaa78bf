(** Content-addressed artifact cache for HLS results, with verified
    integrity.

    Keys are {!Chash.t} structural hashes of (kernel IR, HLS config,
    interface kinds); values are real {!Soc_hls.Engine.accel} records — not
    time-estimate discounts. A batch that shares a cache compiles each
    distinct kernel exactly once, and because the Fig. 9 estimate is fed
    from the same keys, modelled reuse and actual reuse can never disagree.

    The store is domain-safe (one mutex) with an optional on-disk layer.
    Every disk entry is committed atomically (temp + rename, via
    {!Soc_util.Atomic_io}) as a header carrying {!Chash.format_version}
    and a {!Chash.digest} of the payload, followed by the payload itself.
    On read the digest is re-verified:

    - a digest mismatch or truncation {e quarantines} the entry into
      [<disk_dir>/quarantine/] and emits an [IO400]/[IO401] diagnostic
      (see {!diags}) — never a crash, never garbage deserialized;
    - a format-version mismatch counts in the [stale] stat and is noted
      once per run as [IO402], rather than silently folding into misses;
    - healthy entries touched on read, so the optional [max_mb] cap can
      evict least-recently-used entries ([IO410] info), skipping keys
      {!protect}ed by a live journal. *)

type t

type stats = {
  hits : int;  (** in-memory hits *)
  disk_hits : int;  (** misses served from the (verified) disk layer *)
  misses : int;  (** real {!Soc_hls.Engine.synthesize} runs *)
  stores : int;  (** entries written to disk *)
  stale : int;  (** disk entries skipped for a format-version mismatch *)
  quarantined : int;  (** corrupt disk entries moved to quarantine *)
  evictions : int;  (** entries evicted by the [max_mb] LRU cap *)
}

val create : ?disk_dir:string -> ?max_mb:int -> ?fsync:bool -> unit -> t
(** [disk_dir], when given, persists artifacts across processes; the
    directory is created on demand. [max_mb] caps the disk layer's total
    size (LRU by mtime; default unbounded). [fsync] (default [false])
    makes each store durable across power loss. *)

val stats : t -> stats
val size : t -> int

val diags : t -> Soc_util.Diag.t list
(** Integrity diagnostics accumulated so far ([IO4xx] family), in
    chronological order. *)

val protect : t -> Chash.t -> unit
(** Mark [key] as referenced by a live journal: the LRU cap never evicts
    it for the lifetime of this cache value. *)

val find : t -> Chash.t -> Soc_hls.Engine.accel option
(** Memory first, then verified disk; does not count as a hit or miss. *)

val store : t -> Chash.t -> Soc_hls.Engine.accel -> unit

val synthesize :
  t ->
  config:Soc_hls.Engine.config ->
  Soc_kernel.Ast.kernel ->
  [ `Hit | `Miss ] * Soc_hls.Engine.accel
(** Memoized {!Soc_hls.Engine.synthesize}: returns the cached accelerator
    ([`Hit]) or synthesizes, stores and returns it ([`Miss]). *)

val hls_engine : t -> Soc_core.Flow.hls_engine
(** Plug the cache into {!Soc_core.Flow.build}: hits are [`Reused] (free in
    the Fig. 9 estimate {e and} no engine work), misses [`Synthesized]. *)

(** {2 Compiled simulator tapes}

    Compiled simulators are not cached here: each process lowers a
    netlist once, into {!Soc_rtl_compile.Csim}'s program table. *)

type tape_stats = {
  tape_hits : int;
  tape_disk_hits : int;
  tape_stores : int;
}

val tape_stats : t -> tape_stats
(** Always zero: kept for readers of the figures from when compiled
    tapes were cache artifacts. *)

val render_stats : t -> string
(** One-line summary, e.g. for CLI output. *)

(** {2 Offline fsck (the [socdsl doctor] cache pass)} *)

type fsck_report = {
  fsck_checked : int;  (** artifact files examined *)
  fsck_ok : int;  (** verified clean *)
  fsck_quarantined : string list;  (** corrupt entries moved to quarantine *)
  fsck_stale : string list;  (** old-format entries removed *)
  fsck_orphans : string list;  (** interrupted-commit temps removed *)
  fsck_diags : Soc_util.Diag.t list;
}

val fsck : dir:string -> fsck_report
(** Verify every artifact in [dir] without a live cache: digest-check each
    entry (corrupt ones are quarantined — [IO400]/[IO401]), remove entries
    from older format versions and compiled-tape ([.tape]) entries left by
    older builds ([IO402]), and orphaned temp files left by interrupted
    commits ([IO404]). Never raises on malformed content; the
    report's diags say exactly what was repaired. *)
