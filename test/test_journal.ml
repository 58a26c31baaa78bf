(* Crash-safety tests: the write-ahead journal, atomic artifact commits
   with verified integrity, quarantine/repair (doctor), the LRU disk cap,
   and the acceptance tentpole — the kill-point recovery campaign: kill
   the farm at EVERY journaled point of the Otsu batch, resume, and the
   result is bit-identical to an uninterrupted run with zero repeated HLS
   engine work. *)

module Farm = Soc_farm.Farm
module Jobgraph = Soc_farm.Jobgraph
module Cache = Soc_farm.Cache
module Chash = Soc_farm.Chash
module Journal = Soc_farm.Journal
module Fault = Soc_fault.Fault
module Atomic_io = Soc_util.Atomic_io
module Diag = Soc_util.Diag
module Graphs = Soc_apps.Graphs

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let w = 16
let h = 16

let entries () =
  List.map
    (fun arch ->
      { Jobgraph.spec = Graphs.arch_spec arch;
        kernels = Graphs.arch_kernels arch ~width:w ~height:h })
    Graphs.all_archs

let entry1 () =
  [ { Jobgraph.spec = Graphs.arch_spec Graphs.Arch1;
      kernels = Graphs.arch_kernels Graphs.Arch1 ~width:w ~height:h } ]

let digests (r : Farm.report) =
  List.map (fun (i, b) -> (i, Farm.build_digest b)) r.Farm.builds

let fresh_dir prefix =
  let d = Filename.temp_file prefix ".cache" in
  Sys.remove d;
  d

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file_raw path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let artifact_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".accel")
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Atomic_io                                                           *)
(* ------------------------------------------------------------------ *)

let test_atomic_io_roundtrip () =
  let dir = fresh_dir "socaio" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "out.txt" in
  Atomic_io.write_file path "hello\nworld";
  check Alcotest.string "contents" "hello\nworld" (read_file path);
  Atomic_io.write_file ~fsync:true path "v2";
  check Alcotest.string "overwrite" "v2" (read_file path);
  check Alcotest.int "no temp files left" 1 (Array.length (Sys.readdir dir));
  check Alcotest.bool "temp names recognized" true
    (Atomic_io.is_temp (Filename.basename (Atomic_io.temp_for path)));
  check Alcotest.bool "real names not temps" false (Atomic_io.is_temp "out.txt")

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let sample_events =
  [ Journal.Batch_start { key = "abc123"; jobs = 3 };
    Journal.Start { stage = "hls"; label = "hls:histogram"; key = "deadbeef00000000" };
    Journal.Done { stage = "hls"; label = "hls:histogram"; key = "deadbeef00000000" };
    Journal.Start { stage = "integrate"; label = "integrate:arch1"; key = "" };
    Journal.Failed { stage = "integrate"; label = "integrate:arch1"; reason = "boom\twith\ntabs" };
    Journal.Batch_done { ok = 0; failed = 1 } ]

let test_journal_roundtrip () =
  let dir = fresh_dir "socjrn" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir Journal.default_name in
  let j = Journal.open_ ~fsync:false path in
  List.iter (Journal.append j) sample_events;
  Journal.close j;
  let events, dropped = Journal.load path in
  check Alcotest.int "nothing dropped" 0 dropped;
  check Alcotest.int "all entries back" (List.length sample_events) (List.length events);
  check Alcotest.bool "events identical (escaping survives)" true (events = sample_events)

let test_journal_torn_tail () =
  let dir = fresh_dir "socjrn" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir Journal.default_name in
  let j = Journal.open_ ~fsync:false path in
  List.iter (Journal.append j) sample_events;
  Journal.close j;
  (* Tear the last line mid-write, as a power cut would. *)
  let raw = read_file path in
  write_file_raw path (String.sub raw 0 (String.length raw - 7));
  let events, dropped = Journal.load path in
  check Alcotest.int "torn line dropped" 1 dropped;
  check Alcotest.bool "valid prefix is the truth" true
    (events = List.filteri (fun i _ -> i < List.length sample_events - 1) sample_events);
  (* A corrupt middle line invalidates everything after it. *)
  let lines = String.split_on_char '\n' raw in
  let flipped =
    String.concat "\n"
      (List.mapi (fun i l -> if i = 1 && l <> "" then "X" ^ l else l) lines)
  in
  write_file_raw path flipped;
  let events2, dropped2 = Journal.load path in
  check Alcotest.int "only the prefix before the bad line survives" 1 (List.length events2);
  check Alcotest.bool "rest dropped" true (dropped2 >= 1)

let test_journal_status () =
  let st = Journal.status_of sample_events in
  check Alcotest.int "one completed" 1 (List.length st.Journal.completed);
  check Alcotest.bool "completed is the hls job" true
    (st.Journal.completed = [ ("hls", "hls:histogram", "deadbeef00000000") ]);
  check Alcotest.int "failed job is not in flight" 0 (List.length st.Journal.in_flight);
  check Alcotest.bool "batch done" true st.Journal.batch_done;
  let st2 =
    Journal.status_of
      [ Journal.Start { stage = "synth"; label = "synth:a"; key = "" } ]
  in
  check Alcotest.bool "unmatched start is in flight" true
    (st2.Journal.in_flight = [ ("synth", "synth:a", "") ] && not st2.Journal.batch_done)

let test_journal_seal () =
  let dir = fresh_dir "socjrn" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir Journal.default_name in
  let j = Journal.open_ ~fsync:false path in
  Journal.append j (List.hd sample_events);
  Journal.seal j;
  Journal.append j (Journal.Batch_done { ok = 9; failed = 9 });
  Journal.close j;
  let events, _ = Journal.load path in
  check Alcotest.int "appends after seal are dropped (simulated death)" 1 (List.length events)

let test_journal_fsck_compacts () =
  let dir = fresh_dir "socjrn" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir Journal.default_name in
  let j = Journal.open_ ~fsync:false path in
  List.iter (Journal.append j) sample_events;
  Journal.close j;
  let r = Journal.fsck path in
  check Alcotest.int "resolved starts folded away" 2 r.Journal.jfsck_compacted;
  check Alcotest.int "no corruption" 0 r.Journal.jfsck_dropped;
  (* The compacted journal still replays to the same status. *)
  let events, dropped = Journal.load path in
  check Alcotest.int "compacted journal is valid" 0 dropped;
  let st = Journal.status_of events in
  check Alcotest.bool "same completed set after compaction" true
    (st.Journal.completed = [ ("hls", "hls:histogram", "deadbeef00000000") ]);
  (* Idempotent: a second fsck has nothing to do. *)
  let r2 = Journal.fsck path in
  check Alcotest.int "second fsck compacts nothing" 0 r2.Journal.jfsck_compacted;
  (* Missing journal is an empty healthy one. *)
  let r3 = Journal.fsck (Filename.concat dir "nonexistent.wal") in
  check Alcotest.int "missing journal: empty" 0 r3.Journal.jfsck_entries

(* ------------------------------------------------------------------ *)
(* Artifact integrity: corruption -> quarantine -> rebuild             *)
(* ------------------------------------------------------------------ *)

let prop_corrupt_artifact_recovers =
  QCheck.Test.make
    ~name:"cache: corrupting any byte -> quarantine/stale + correct rebuild" ~count:10
    QCheck.(triple (int_range 0 65535) (int_range 0 7) bool)
    (fun (byte, bit, truncate) ->
      let dir = fresh_dir "socrot" in
      let clean = Farm.build_batch ~jobs:1 ~cache:(Cache.create ~disk_dir:dir ()) (entry1 ()) in
      let files = artifact_files dir in
      assert (files <> []);
      let victim = Filename.concat dir (List.nth files (byte mod List.length files)) in
      let raw = read_file victim in
      let rotted =
        if truncate then Fault.truncate_blob raw ~keep:(byte mod String.length raw)
        else Fault.flip_bit_in_blob raw ~byte ~bit
      in
      (* Bit rot bypasses the atomic writer on purpose. *)
      write_file_raw victim rotted;
      let c2 = Cache.create ~disk_dir:dir () in
      let r = Farm.build_batch ~jobs:1 ~cache:c2 (entry1 ()) in
      let st = Cache.stats c2 in
      digests r = digests clean
      && st.Cache.quarantined + st.Cache.stale >= 1
      && List.length r.Farm.builds = 1)

let test_stale_version_noted_once () =
  let dir = fresh_dir "socstale" in
  let clean = Farm.build_batch ~jobs:1 ~cache:(Cache.create ~disk_dir:dir ()) (entry1 ()) in
  (* Rewrite every artifact under an older format version; the payload
     digest still matches, so these are stale, not corrupt. *)
  let n_entries = List.length (artifact_files dir) in
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let raw = read_file path in
      let nl = String.index raw '\n' in
      let header = String.sub raw 0 nl in
      let payload = String.sub raw (nl + 1) (String.length raw - nl - 1) in
      match String.split_on_char ' ' header with
      | [ magic; _version; dg; len ] ->
        write_file_raw path
          (Printf.sprintf "%s %s %s %s\n%s" magic "soc-farm-chash-v0" dg len payload)
      | _ -> Alcotest.fail "unexpected artifact header")
    (artifact_files dir);
  let c2 = Cache.create ~disk_dir:dir () in
  let r = Farm.build_batch ~jobs:1 ~cache:c2 (entry1 ()) in
  let st = Cache.stats c2 in
  check Alcotest.bool "every stale read counted" true (st.Cache.stale >= n_entries);
  check Alcotest.int "none quarantined" 0 st.Cache.quarantined;
  check Alcotest.bool "stale entries re-synthesized, bit-identical" true
    (digests r = digests clean);
  let io402 = List.filter (fun d -> d.Diag.code = "IO402") (Cache.diags c2) in
  check Alcotest.int "version mismatch noted exactly once per run" 1 (List.length io402)

(* A payload whose digest verifies but which does not unmarshal (a writer
   bug or a cross-compiler artifact) is corrupt like any other entry:
   quarantined, counted, logged as IO400 and rebuilt. *)
let test_undeserializable_entry_quarantined () =
  let dir = fresh_dir "socmarshal" in
  let clean = Farm.build_batch ~jobs:1 ~cache:(Cache.create ~disk_dir:dir ()) (entry1 ()) in
  let victim = List.hd (artifact_files dir) in
  let payload = "not a marshalled accelerator" in
  write_file_raw (Filename.concat dir victim)
    (Printf.sprintf "soc-accel %s %s %d\n%s" Chash.format_version
       (Chash.to_hex (Chash.digest payload))
       (String.length payload) payload);
  let c2 = Cache.create ~disk_dir:dir () in
  let r = Farm.build_batch ~jobs:1 ~cache:c2 (entry1 ()) in
  check Alcotest.int "counted as quarantined" 1 (Cache.stats c2).Cache.quarantined;
  check Alcotest.bool "IO400 logged for the entry" true
    (List.exists
       (fun d -> d.Diag.code = "IO400" && d.Diag.subject = victim)
       (Cache.diags c2));
  check Alcotest.bool "moved to quarantine" true
    (Sys.file_exists (Filename.concat (Filename.concat dir "quarantine") victim));
  check Alcotest.bool "rebuilt bit-identical" true (digests r = digests clean)

let test_doctor_fsck_repairs () =
  let dir = fresh_dir "socfsck" in
  ignore (Farm.build_batch ~jobs:1 ~cache:(Cache.create ~disk_dir:dir ()) (entry1 ()));
  let files = artifact_files dir in
  let n = List.length files in
  (* One corrupt entry, one orphaned temp from an interrupted commit. *)
  let victim = Filename.concat dir (List.hd files) in
  write_file_raw victim (Fault.flip_bit_in_blob (read_file victim) ~byte:100 ~bit:3);
  write_file_raw (Filename.concat dir "x.accel.tmp.123.0" ) "partial";
  let r = Cache.fsck ~dir in
  check Alcotest.int "all entries checked" n r.Cache.fsck_checked;
  check Alcotest.int "healthy entries ok" (n - 1) r.Cache.fsck_ok;
  check Alcotest.int "corrupt entry quarantined" 1 (List.length r.Cache.fsck_quarantined);
  check Alcotest.int "orphan temp removed" 1 (List.length r.Cache.fsck_orphans);
  check Alcotest.bool "quarantine keeps the evidence" true
    (Sys.file_exists (Filename.concat dir "quarantine"));
  (* Doctor is idempotent and the repaired cache verifies clean. *)
  let r2 = Cache.fsck ~dir in
  check Alcotest.int "second pass: nothing to repair" (n - 1) r2.Cache.fsck_ok;
  check Alcotest.int "second pass: no quarantines" 0 (List.length r2.Cache.fsck_quarantined)

(* Compiled tapes were once cached next to the accelerators. Nothing
   reads them now and the LRU cap never counts them, so doctor removes
   any an older build left behind, as stale (IO402). *)
let test_doctor_removes_old_tapes () =
  let dir = fresh_dir "soctapes" in
  ignore (Farm.build_batch ~jobs:1 ~cache:(Cache.create ~disk_dir:dir ()) (entry1 ()));
  let n = List.length (artifact_files dir) in
  let tapes = [ "0123456789abcdef.tape"; "fedcba9876543210.tape" ] in
  write_file_raw (Filename.concat dir (List.hd tapes))
    (Printf.sprintf "soc-accel %s 0 0\n" Chash.format_version);
  write_file_raw (Filename.concat dir (List.nth tapes 1)) "soc-tape-v1\nmod x\n";
  let r = Cache.fsck ~dir in
  check Alcotest.int "accelerators verified" n r.Cache.fsck_ok;
  check (Alcotest.list Alcotest.string) "every tape counted stale" tapes
    (List.sort compare r.Cache.fsck_stale);
  check Alcotest.bool "every tape removed" true
    (List.for_all (fun f -> not (Sys.file_exists (Filename.concat dir f))) tapes);
  check Alcotest.int "one IO402 per tape" 2
    (List.length (List.filter (fun d -> d.Diag.code = "IO402") r.Cache.fsck_diags));
  check Alcotest.int "nothing quarantined" 0 (List.length r.Cache.fsck_quarantined);
  let r2 = Cache.fsck ~dir in
  check Alcotest.int "second pass: nothing stale" 0 (List.length r2.Cache.fsck_stale)

let prop_doctor_never_raises =
  QCheck.Test.make ~name:"doctor: never raises on fuzzed cache dirs" ~count:20
    QCheck.(pair (int_range 0 1000000) (int_range 1 200))
    (fun (seed, len) ->
      let dir = fresh_dir "socfuzz" in
      Unix.mkdir dir 0o755;
      (* Deterministic garbage: wrong headers, binary noise, empty files,
         truncated temps, and a rotted journal. *)
      let rng = ref seed in
      let next () =
        rng := (!rng * 1103515245 + 12345) land 0x3FFFFFFF;
        !rng
      in
      let blob n = String.init n (fun _ -> Char.chr (next () land 0xFF)) in
      write_file_raw (Filename.concat dir "a.accel") (blob len);
      write_file_raw (Filename.concat dir "b.accel") ("soc-accel " ^ blob len);
      write_file_raw (Filename.concat dir "c.accel") "";
      write_file_raw (Filename.concat dir "d.accel.tmp.9.9") (blob (len / 2));
      write_file_raw (Filename.concat dir Journal.default_name) (blob len);
      let cr = Cache.fsck ~dir in
      let jr = Journal.fsck (Filename.concat dir Journal.default_name) in
      cr.Cache.fsck_checked = 3
      && List.length cr.Cache.fsck_quarantined
         + List.length cr.Cache.fsck_stale
         = 3
      && jr.Journal.jfsck_entries = 0)

(* ------------------------------------------------------------------ *)
(* LRU disk cap                                                        *)
(* ------------------------------------------------------------------ *)

let test_lru_cap_spares_protected () =
  let dir = fresh_dir "soclru" in
  let cache = Cache.create ~disk_dir:dir ~max_mb:1 () in
  let kernel = Soc_apps.Otsu.histogram_kernel ~pixels:(w * h) in
  let _, accel =
    Cache.synthesize cache ~config:Soc_hls.Engine.default_config kernel
  in
  let entry_bytes =
    let f = Filename.concat dir (List.hd (artifact_files dir)) in
    (Unix.stat f).Unix.st_size
  in
  (* Enough entries to overflow the 1 MB cap twice over; the bound only
     guards against a degenerate entry size (an entry is ~2 kB). *)
  let n = min 4000 (2 * 1024 * 1024 / entry_bytes + 2) in
  let keys = List.init n (fun i -> Chash.digest (Printf.sprintf "lru-filler-%d" i)) in
  let protected_key = List.hd keys in
  Cache.protect cache protected_key;
  List.iter (fun k -> Cache.store cache k accel) keys;
  let st = Cache.stats cache in
  check Alcotest.bool "cap forced evictions" true (st.Cache.evictions > 0);
  check Alcotest.bool "eviction logged (IO410)" true
    (List.exists (fun d -> d.Diag.code = "IO410") (Cache.diags cache));
  (* A fresh cache sees what actually survived on disk. *)
  let c2 = Cache.create ~disk_dir:dir () in
  check Alcotest.bool "journal-protected entry never evicted" true
    (Cache.find c2 protected_key <> None);
  check Alcotest.bool "unprotected entries were evicted" true
    (List.exists (fun k -> Cache.find c2 k = None) (List.tl keys))

(* ------------------------------------------------------------------ *)
(* The kill-point recovery campaign (tentpole)                         *)
(* ------------------------------------------------------------------ *)

(* Every journaled point of the Otsu batch: each stage category crossed
   with every job index it has. *)
let kill_points () =
  let g = Jobgraph.plan (entries ()) in
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun (n : Jobgraph.node) ->
      Hashtbl.replace counts n.Jobgraph.cat
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts n.Jobgraph.cat)))
    g.Jobgraph.nodes;
  Hashtbl.fold
    (fun cat n acc -> List.init n (fun k -> (cat, k)) @ acc)
    counts []
  |> List.sort compare

let test_kill_point_campaign () =
  let clean = Farm.build_batch ~jobs:1 (entries ()) in
  let clean_digests = digests clean in
  let expected_runs = clean.Farm.stats.Farm.distinct_kernels in
  let points = kill_points () in
  check Alcotest.bool "campaign covers every stage of every arch" true
    (List.length points >= 20);
  List.iter
    (fun (stage, k) ->
      let where = Printf.sprintf "%s:%d" stage k in
      let dir = fresh_dir "sockill" in
      let jpath = Filename.concat dir Journal.default_name in
      let e0 = Soc_hls.Engine.invocation_count () in
      (* Run 1: killed the instant job k of [stage] goes in-flight. *)
      let j = Journal.open_ ~fsync:false jpath in
      (match
         Farm.build_batch ~jobs:1
           ~cache:(Cache.create ~disk_dir:dir ())
           ~journal:j
           ~kill:(Fault.Kill_at (stage, k))
           (entries ())
       with
      | _ -> Alcotest.failf "%s: kill point did not fire" where
      | exception Fault.Killed (s, k') ->
        check Alcotest.string (where ^ ": killed at armed stage") stage s;
        check Alcotest.int (where ^ ": killed at armed index") k k');
      (* The killed job is journaled in-flight, never done. *)
      let st = Journal.status_of (fst (Journal.load jpath)) in
      check Alcotest.bool (where ^ ": victim is in flight") true
        (List.exists (fun (s, _, _) -> s = stage) st.Journal.in_flight);
      check Alcotest.bool (where ^ ": batch not done") false st.Journal.batch_done;
      (* Run 2: resume. *)
      let j2 = Journal.open_ ~fsync:false ~resume:true jpath in
      let r =
        Farm.build_batch ~jobs:1 ~cache:(Cache.create ~disk_dir:dir ()) ~journal:j2
          (entries ())
      in
      Journal.close j2;
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
        (where ^ ": resume == uninterrupted (bit-identical)")
        clean_digests (digests r);
      (* Zero repeated HLS work: killed + resumed runs together invoke the
         engine exactly once per distinct kernel. *)
      check Alcotest.int
        (where ^ ": no HLS job ran twice")
        expected_runs
        (Soc_hls.Engine.invocation_count () - e0))
    points

let prop_random_kill_resume =
  (* Same property, random kill point and worker count — crashes under
     parallelism are also recoverable. *)
  QCheck.Test.make ~name:"farm: random kill + parallel resume is bit-identical" ~count:6
    QCheck.(pair (int_range 0 1000000) (int_range 1 4))
    (fun (seed, jobs) ->
      let clean = Farm.build_batch ~jobs:1 (entries ()) in
      let points = kill_points () in
      match Fault.pick_kill_point ~seed points with
      | None -> QCheck.assume_fail ()
      | Some (Fault.Kill_at (_, _) as kp) -> (
        let dir = fresh_dir "sockillq" in
        let jpath = Filename.concat dir Journal.default_name in
        let j = Journal.open_ ~fsync:false jpath in
        match
          Farm.build_batch ~jobs:1 ~cache:(Cache.create ~disk_dir:dir ()) ~journal:j
            ~kill:kp (entries ())
        with
        | _ -> false
        | exception Fault.Killed _ ->
          let j2 = Journal.open_ ~fsync:false ~resume:true jpath in
          let r =
            Farm.build_batch ~jobs ~cache:(Cache.create ~disk_dir:dir ()) ~journal:j2
              (entries ())
          in
          Journal.close j2;
          digests r = digests clean))

let suite =
  [ ("atomic io: write + rename, no temps", `Quick, test_atomic_io_roundtrip);
    ("journal: round-trip", `Quick, test_journal_roundtrip);
    ("journal: torn tail dropped", `Quick, test_journal_torn_tail);
    ("journal: replay status", `Quick, test_journal_status);
    ("journal: seal = simulated death", `Quick, test_journal_seal);
    ("journal: fsck verifies + compacts", `Quick, test_journal_fsck_compacts);
    qtest prop_corrupt_artifact_recovers;
    ("cache: stale version noted once", `Quick, test_stale_version_noted_once);
    ("doctor: quarantine + orphan repair", `Quick, test_doctor_fsck_repairs);
    ("doctor: leftover compiled tapes removed", `Quick, test_doctor_removes_old_tapes);
    qtest prop_doctor_never_raises;
    ("cache: LRU cap spares journal-live entries", `Quick, test_lru_cap_spares_protected);
    ("kill-point campaign: resume == uninterrupted", `Slow, test_kill_point_campaign);
    qtest prop_random_kill_resume;
    ("cache: undeserializable entry quarantined", `Quick,
     test_undeserializable_entry_quarantined) ]
