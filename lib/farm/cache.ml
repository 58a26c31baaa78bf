module Diag = Soc_util.Diag

type stats = {
  hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  stale : int;
  quarantined : int;
  evictions : int;
}

(* Compiled simulators are no longer cache artifacts: they live in
   {!Soc_rtl_compile.Csim}'s process-wide program table. These figures
   stay for readers of the old record and always read zero. *)
type tape_stats = { tape_hits : int; tape_disk_hits : int; tape_stores : int }

type t = {
  lock : Mutex.t;
  mem : (string, Soc_hls.Engine.accel) Hashtbl.t;
  disk_dir : string option;
  max_bytes : int option;
  fsync : bool;
  protected_ : (string, unit) Hashtbl.t;
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable stale : int;
  mutable quarantined : int;
  mutable evictions : int;
  mutable stale_noted : bool;
  mutable diag_log : Diag.t list; (* reverse chronological *)
}

let create ?disk_dir ?max_mb ?(fsync = false) () =
  {
    lock = Mutex.create ();
    mem = Hashtbl.create 32;
    disk_dir;
    max_bytes = Option.map (fun mb -> mb * 1024 * 1024) max_mb;
    fsync;
    protected_ = Hashtbl.create 8;
    hits = 0;
    disk_hits = 0;
    misses = 0;
    stores = 0;
    stale = 0;
    quarantined = 0;
    evictions = 0;
    stale_noted = false;
    diag_log = [];
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let stats t =
  locked t (fun () ->
      { hits = t.hits; disk_hits = t.disk_hits; misses = t.misses; stores = t.stores;
        stale = t.stale; quarantined = t.quarantined; evictions = t.evictions })

let size t = locked t (fun () -> Hashtbl.length t.mem)

let diags t = locked t (fun () -> List.rev t.diag_log)

let log_diag t d = t.diag_log <- d :: t.diag_log (* lock held *)

let protect t key = locked t (fun () -> Hashtbl.replace t.protected_ (Chash.to_hex key) ())

(* ------------------------------------------------------------------ *)
(* Disk layer                                                          *)
(* ------------------------------------------------------------------ *)

(* On-disk entry layout: one text header line followed by the raw
   payload (a marshalled accelerator). The header carries everything needed
   to read the payload back defensively:

     soc-accel <format_version> <payload digest> <payload length>\n

   The digest covers the payload bytes, so bit rot, torn writes and
   truncation are all detected before the payload loader ever sees the
   data. *)

let header_magic = "soc-accel"

let ext = ".accel"

(* Compiled simulator tapes were once cached here, as [.tape] entries;
   {!fsck} removes any that an older build left behind. *)
let old_tape_ext = ".tape"

let entry_path dir key_hex = Filename.concat dir (key_hex ^ ext)

let ensure_dir dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let encode_entry payload =
  Printf.sprintf "%s %s %s %d\n" header_magic Chash.format_version
    (Chash.to_hex (Chash.digest payload))
    (String.length payload)
  ^ payload

(* What reading an entry file can yield: corruption (quarantine) is told
   apart from staleness (rebuild, leave the file for the next store to
   replace). *)
type inspected =
  | Loaded of Soc_hls.Engine.accel
  | Stale of string (* the format version found *)
  | Bad of (string * string) (* diagnostic code, reason *)
  | Missing

(* Read, verify and load one entry file. Never raises. *)
let inspect path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception _ -> if Sys.file_exists path then Bad ("IO400", "unreadable") else Missing
  | raw -> (
    let corrupt reason = Bad ("IO400", reason) in
    match String.index_opt raw '\n' with
    | None -> corrupt "no header line (truncated?)"
    | Some nl -> (
      match String.split_on_char ' ' (String.sub raw 0 nl) with
      | [ magic; version; digest; len ] -> (
        if magic <> header_magic then corrupt "bad magic"
        else
          match int_of_string_opt len with
          | None -> corrupt "unreadable payload length"
          | Some len ->
            let have = String.length raw - nl - 1 in
            if have <> len then
              Bad ("IO401", Printf.sprintf "truncated payload (%d of %d bytes)" have len)
            else
              let payload = String.sub raw (nl + 1) len in
              if Chash.to_hex (Chash.digest payload) <> digest then
                corrupt "payload digest mismatch"
              else if version <> Chash.format_version then Stale version
              else (
                match Marshal.from_string payload 0 with
                | v -> Loaded v
                | exception _ -> corrupt "payload fails to load"))
      | _ -> corrupt "malformed header"))

(* Move a bad entry aside rather than deleting it: the quarantine
   directory preserves the evidence for post-mortems, and the entry can
   never be read as a hit again. If it cannot be moved it is deleted.
   Returns a diagnostic saying which happened; [suffix] ends its
   message. *)
let quarantine ~dir path (code, reason) ~suffix =
  let outcome =
    try
      let qdir = Filename.concat dir "quarantine" in
      ensure_dir qdir;
      let dst = Filename.concat qdir (Filename.basename path) in
      (try Sys.remove dst with _ -> ());
      Sys.rename path dst;
      "quarantined"
    with _ ->
      (try Sys.remove path with _ -> ());
      "removed"
  in
  Diag.warning ~code ~subject:(Filename.basename path)
    (Printf.sprintf "corrupt artifact (%s); %s%s" reason outcome suffix)

let stale_diag ~subject version action =
  Diag.info ~code:"IO402" ~subject
    (Printf.sprintf "stale format %S (current %S); %s" version Chash.format_version action)

(* Lock held. A verified entry is loaded and touched (LRU bookkeeping); a
   stale one is counted and noted once per run; a bad one is quarantined. *)
let disk_read t key_hex =
  match t.disk_dir with
  | None -> None
  | Some dir -> (
    let path = entry_path dir key_hex in
    match inspect path with
    | Loaded v ->
      (try Unix.utimes path 0.0 0.0 with _ -> ());
      Some v
    | Missing -> None
    | Stale version ->
      t.stale <- t.stale + 1;
      if not t.stale_noted then begin
        t.stale_noted <- true;
        log_diag t
          (stale_diag ~subject:(Filename.basename path) version
             "re-synthesizing (reported once per run)")
      end;
      None
    | Bad bad ->
      t.quarantined <- t.quarantined + 1;
      log_diag t (quarantine ~dir path bad ~suffix:"; re-synthesizing");
      None)

(* ------------------------------------------------------------------ *)
(* LRU size cap                                                        *)
(* ------------------------------------------------------------------ *)

(* Lock held. Evict oldest-mtime accelerator entries until the disk layer
   fits the cap, skipping keys protected by a live journal. *)
let enforce_cap t =
  match (t.disk_dir, t.max_bytes) with
  | Some dir, Some cap when Sys.file_exists dir ->
    let entries =
      Array.to_list (Sys.readdir dir)
      |> List.filter_map (fun name ->
             if not (Filename.check_suffix name ext) then None
             else
               let path = Filename.concat dir name in
               match Unix.stat path with
               | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                 Some (path, name, st_size, st_mtime)
               | _ -> None
               | exception _ -> None)
    in
    let total = List.fold_left (fun acc (_, _, sz, _) -> acc + sz) 0 entries in
    if total > cap then begin
      let by_age =
        List.sort (fun (_, _, _, a) (_, _, _, b) -> compare (a : float) b) entries
      in
      let excess = ref (total - cap) in
      List.iter
        (fun (path, name, sz, _) ->
          let key_hex = Filename.chop_suffix name ext in
          if !excess > 0 && not (Hashtbl.mem t.protected_ key_hex) then begin
            match Sys.remove path with
            | () ->
              excess := !excess - sz;
              t.evictions <- t.evictions + 1;
              log_diag t
                (Diag.info ~code:"IO410" ~subject:name
                   (Printf.sprintf "evicted (LRU, disk cache over %d MiB cap)"
                      (cap / (1024 * 1024))))
            | exception _ -> ()
          end)
        by_age
    end
  | _ -> ()

(* Lock held. Best-effort: a failed write leaves the memory layer
   authoritative. [payload] is only forced when there is a disk dir, so a
   memory-only cache never serializes; [written] runs after a commit. *)
let disk_write ?(written = ignore) t key_hex payload =
  match t.disk_dir with
  | None -> ()
  | Some dir -> (
    try
      ensure_dir dir;
      Soc_util.Atomic_io.write_file ~fsync:t.fsync (entry_path dir key_hex)
        (encode_entry (payload ()));
      written ()
    with _ -> ())

let tape_stats _ = { tape_hits = 0; tape_disk_hits = 0; tape_stores = 0 }

(* ------------------------------------------------------------------ *)
(* Lookup / memoized synthesis                                         *)
(* ------------------------------------------------------------------ *)

(* Lock held: memory first, then verified disk. *)
let find_locked t key =
  match Hashtbl.find_opt t.mem (Chash.to_hex key) with
  | Some a ->
    t.hits <- t.hits + 1;
    Some a
  | None -> (
    match disk_read t (Chash.to_hex key) with
    | Some a ->
      t.disk_hits <- t.disk_hits + 1;
      Hashtbl.replace t.mem (Chash.to_hex key) a;
      Some a
    | None -> None)

(* Counts hits (memory and disk) but not misses: the find-then-synthesize
   pattern would otherwise count every cold lookup twice. *)
let find t key = locked t (fun () -> find_locked t key)

let store t key accel =
  locked t (fun () ->
      if not (Hashtbl.mem t.mem (Chash.to_hex key)) then begin
        Hashtbl.replace t.mem (Chash.to_hex key) accel;
        disk_write t (Chash.to_hex key)
          (fun () -> Marshal.to_string accel [])
          ~written:(fun () ->
            t.stores <- t.stores + 1;
            enforce_cap t)
      end)

let synthesize t ~config kernel =
  let key = Chash.kernel ~config kernel in
  match locked t (fun () -> find_locked t key) with
  | Some a -> (`Hit, a)
  | None ->
    (* Synthesize outside the lock: concurrent HLS of *different* kernels
       must proceed in parallel. Two racing misses on the same key both
       synthesize (deterministic result; first store wins) — the farm's job
       graph dedups keys upfront so this only happens for ad-hoc users. *)
    let accel = Soc_hls.Engine.synthesize ~config kernel in
    locked t (fun () -> t.misses <- t.misses + 1);
    store t key accel;
    (`Miss, accel)

let hls_engine t : Soc_core.Flow.hls_engine =
 fun ~config kernel ->
  match synthesize t ~config kernel with
  | `Hit, a -> (`Reused, a)
  | `Miss, a -> (`Synthesized, a)

let render_stats t =
  let s = stats t in
  Printf.sprintf
    "cache: %d hit%s, %d disk hit%s, %d miss%s, %d stored, %d resident%s%s%s"
    s.hits (if s.hits = 1 then "" else "s")
    s.disk_hits (if s.disk_hits = 1 then "" else "s")
    s.misses (if s.misses = 1 then "" else "es")
    s.stores (size t)
    (if s.stale > 0 then Printf.sprintf ", %d stale" s.stale else "")
    (if s.quarantined > 0 then Printf.sprintf ", %d quarantined" s.quarantined else "")
    (if s.evictions > 0 then Printf.sprintf ", %d evicted" s.evictions else "")

(* ------------------------------------------------------------------ *)
(* Offline fsck                                                        *)
(* ------------------------------------------------------------------ *)

type fsck_report = {
  fsck_checked : int;
  fsck_ok : int;
  fsck_quarantined : string list;
  fsck_stale : string list;
  fsck_orphans : string list;
  fsck_diags : Diag.t list;
}

let fsck ~dir =
  let checked = ref 0 and ok = ref 0 in
  let quarantined = ref [] and stale = ref [] and orphans = ref [] and diags = ref [] in
  let note d = diags := d :: !diags in
  let check name =
    incr checked;
    let path = Filename.concat dir name in
    match inspect path with
    | Loaded _ -> incr ok
    | Missing -> () (* removed while we looked: nothing to repair *)
    | Stale version ->
      stale := name :: !stale;
      (try Sys.remove path with _ -> ());
      note (stale_diag ~subject:name version "removed")
    | Bad bad ->
      quarantined := name :: !quarantined;
      note (quarantine ~dir path bad ~suffix:"")
  in
  (if Sys.file_exists dir && Sys.is_directory dir then
     Array.iter
       (fun name ->
         if Soc_util.Atomic_io.is_temp name then begin
           (try Sys.remove (Filename.concat dir name) with _ -> ());
           orphans := name :: !orphans;
           note
             (Diag.info ~code:"IO404" ~subject:name
                "orphaned temp file from an interrupted commit; removed")
         end
         else if Filename.check_suffix name old_tape_ext then begin
           incr checked;
           stale := name :: !stale;
           (try Sys.remove (Filename.concat dir name) with _ -> ());
           note
             (Diag.info ~code:"IO402" ~subject:name
                "compiled tape from an older build (tapes are no longer cached); removed")
         end
         else if Filename.check_suffix name ext then check name)
       (Sys.readdir dir));
  {
    fsck_checked = !checked;
    fsck_ok = !ok;
    fsck_quarantined = List.rev !quarantined;
    fsck_stale = List.rev !stale;
    fsck_orphans = List.rev !orphans;
    fsck_diags = List.rev !diags;
  }
