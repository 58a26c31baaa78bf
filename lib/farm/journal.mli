(** Write-ahead journal for the generation flow and farm.

    One append-only text file (by convention [<cache-dir>/journal.wal])
    records the progress of a batch as fsync'd entries: batch start,
    per-job [Start]/[Done]/[Failed] for every flow stage (pre-flight
    integration, per-kernel HLS, synthesis aggregation, software
    generation, finalize), batch end. Every line carries a {!Chash.digest}
    of its own body, so torn or bit-rotted lines are detected on load and
    dropped (WAL semantics: the valid prefix is the truth).

    A later run opened with [~resume:true] replays the valid prefix:
    completed HLS jobs (whose artifacts the {!Cache} re-verifies from
    disk) are skipped, in-flight jobs — [Start] without a matching [Done]
    or [Failed] — are re-enqueued. Combined with checksummed atomic
    artifacts this makes [resume ≡ uninterrupted]: the kill-point campaign
    in the test suite asserts bit-identical builds and zero repeated HLS
    engine runs across kill + resume. *)

type event =
  | Batch_start of { key : string; jobs : int }
      (** [key] is the content hash of the planned job graph. *)
  | Start of { stage : string; label : string; key : string }
      (** A job began; [key] is the {!Chash} hex for HLS jobs, [""] for
          stages whose results are not content-addressed. *)
  | Done of { stage : string; label : string; key : string }
  | Failed of { stage : string; label : string; reason : string }
  | Batch_done of { ok : int; failed : int }

type t

val default_name : string
(** ["journal.wal"] — the journal's file name inside a cache directory. *)

val open_ : ?fsync:bool -> ?resume:bool -> string -> t
(** [open_ path] starts a fresh journal (truncating any previous one);
    [~resume:true] first loads the existing journal's valid prefix
    (available via {!replayed}) and appends after it. [fsync] defaults to
    [true]: each entry is on stable storage before the work it describes
    is considered committed. *)

val append : t -> event -> unit
(** Append one entry (write + optional fsync). No-op after {!seal}. *)

val seal : t -> unit
(** Simulate process death for crash testing: silently drop this and all
    future appends, leaving the file exactly as a kill at this instant
    would. Idempotent. *)

val close : t -> unit

val path : t -> string

val replayed : t -> event list
(** The valid prefix loaded at [open_ ~resume:true] ([[]] otherwise). *)

val dropped : t -> int
(** Lines of the pre-existing journal discarded on load because their
    integrity digest did not match (corrupt or torn tail). *)

(** {2 Replay} *)

type status = {
  completed : (string * string * string) list;
      (** (stage, label, key) of every [Done] job, chronological *)
  in_flight : (string * string * string) list;
      (** jobs with a [Start] but no [Done]/[Failed] — killed mid-run *)
  batch_done : bool;
}

val status_of : event list -> status

val completed_keys : status -> Chash.t list
(** The content keys of completed HLS jobs, for cache prefetch/protect. *)

(** {2 Offline load / fsck (the [socdsl doctor] journal pass)} *)

val load : string -> event list * int
(** [(valid prefix, dropped line count)]. Never raises on malformed
    content; a missing file is [([], 0)]. *)

type fsck_report = {
  jfsck_entries : int;  (** valid entries kept *)
  jfsck_dropped : int;  (** corrupt/torn lines discarded *)
  jfsck_compacted : int;  (** resolved Start entries removed by compaction *)
  jfsck_diags : Soc_util.Diag.t list;
}

val fsck : string -> fsck_report
(** Verify every line's digest, report dropped lines ([IO403]/[IO405])
    and rewrite the journal compacted (atomic): [Start] entries that have
    a matching [Done]/[Failed] are folded away, corrupt lines are
    dropped. A missing journal is an empty, healthy one. *)
