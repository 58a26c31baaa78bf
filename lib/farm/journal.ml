(* Write-ahead journal: append-only, line-oriented, self-checksummed.

   Line format (text, one entry per line):

     <field>\t<field>\t...\t#<digest>

   where <digest> is the Chash (FNV-1a) of everything before "\t#" and
   fields are percent-escaped so tabs and newlines in labels/reasons can
   never break framing. A line whose digest does not verify — a torn
   write at the kill point, or bit rot — invalidates itself and the rest
   of the file: the valid prefix is the journal's truth. *)

type event =
  | Batch_start of { key : string; jobs : int }
  | Start of { stage : string; label : string; key : string }
  | Done of { stage : string; label : string; key : string }
  | Failed of { stage : string; label : string; reason : string }
  | Batch_done of { ok : int; failed : int }

let default_name = "journal.wal"

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string buf "%25"
      | '\t' -> Buffer.add_string buf "%09"
      | '\n' -> Buffer.add_string buf "%0a"
      | '\r' -> Buffer.add_string buf "%0d"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      match s.[i] with
      | '%' when i + 2 < n -> (
        match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
        | Some code ->
          Buffer.add_char buf (Char.chr (code land 0xff));
          go (i + 3)
        | None ->
          Buffer.add_char buf '%';
          go (i + 1))
      | c ->
        Buffer.add_char buf c;
        go (i + 1)
  in
  go 0;
  Buffer.contents buf

let fields_of_event = function
  | Batch_start { key; jobs } -> [ "B"; key; string_of_int jobs ]
  | Start { stage; label; key } -> [ "S"; stage; key; label ]
  | Done { stage; label; key } -> [ "D"; stage; key; label ]
  | Failed { stage; label; reason } -> [ "F"; stage; label; reason ]
  | Batch_done { ok; failed } -> [ "E"; string_of_int ok; string_of_int failed ]

let event_of_fields = function
  | [ "B"; key; jobs ] -> Option.map (fun jobs -> Batch_start { key; jobs }) (int_of_string_opt jobs)
  | [ "S"; stage; key; label ] -> Some (Start { stage; label; key })
  | [ "D"; stage; key; label ] -> Some (Done { stage; label; key })
  | [ "F"; stage; label; reason ] -> Some (Failed { stage; label; reason })
  | [ "E"; ok; failed ] -> (
    match (int_of_string_opt ok, int_of_string_opt failed) with
    | Some ok, Some failed -> Some (Batch_done { ok; failed })
    | _ -> None)
  | _ -> None

let line_of_event e =
  let body = String.concat "\t" (List.map escape (fields_of_event e)) in
  body ^ "\t#" ^ Chash.to_hex (Chash.digest body)

let event_of_line line =
  (* the digest field is the last tab-separated field, prefixed '#' *)
  match String.rindex_opt line '\t' with
  | None -> None
  | Some tab ->
    let tail = String.sub line (tab + 1) (String.length line - tab - 1) in
    if String.length tail < 1 || tail.[0] <> '#' then None
    else
      let digest = String.sub tail 1 (String.length tail - 1) in
      let body = String.sub line 0 tab in
      if Chash.to_hex (Chash.digest body) <> digest then None
      else event_of_fields (List.map unescape (String.split_on_char '\t' body))

(* ------------------------------------------------------------------ *)
(* Load                                                                *)
(* ------------------------------------------------------------------ *)

let load path =
  if not (Sys.file_exists path) then ([], 0)
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception _ -> ([], 0)
    | raw ->
      let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' raw) in
      (* WAL semantics: the first line that fails its digest invalidates
         itself and everything after it — later lines may describe work
         whose predecessors we can no longer trust. *)
      let rec take acc dropped = function
        | [] -> (List.rev acc, dropped)
        | l :: rest -> (
          match event_of_line l with
          | Some e -> take (e :: acc) dropped rest
          | None -> (List.rev acc, dropped + List.length rest + 1))
      in
      take [] 0 lines

(* ------------------------------------------------------------------ *)
(* Live journal                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  jpath : string;
  fsync : bool;
  lock : Mutex.t;
  mutable oc : out_channel option;
  mutable sealed : bool;
  loaded : event list;
  lost : int;
}

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ?(fsync = true) ?(resume = false) path =
  mkdir_p (Filename.dirname path);
  let loaded, lost = if resume then load path else ([], 0) in
  (* Rewrite the valid prefix (atomically) so appends always follow
     intact lines — a fresh journal is the empty prefix. *)
  Soc_util.Atomic_io.write_file ~fsync path
    (String.concat "" (List.map (fun e -> line_of_event e ^ "\n") loaded));
  let oc = Out_channel.open_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  { jpath = path; fsync; lock = Mutex.create (); oc = Some oc; sealed = false; loaded;
    lost }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let append t e =
  locked t (fun () ->
      match t.oc with
      | Some oc when not t.sealed ->
        Out_channel.output_string oc (line_of_event e ^ "\n");
        Out_channel.flush oc;
        if t.fsync then (try Unix.fsync (Unix.descr_of_out_channel oc) with _ -> ())
      | _ -> ())

let seal t =
  locked t (fun () ->
      t.sealed <- true;
      match t.oc with
      | Some oc ->
        t.oc <- None;
        (try Out_channel.close oc with _ -> ())
      | None -> ())

let close t =
  locked t (fun () ->
      match t.oc with
      | Some oc ->
        t.oc <- None;
        (try Out_channel.close oc with _ -> ())
      | None -> ())

let path t = t.jpath
let replayed t = t.loaded
let dropped t = t.lost

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

type status = {
  completed : (string * string * string) list;
  in_flight : (string * string * string) list;
  batch_done : bool;
}

let status_of events =
  let completed = ref [] and started = ref [] and done_flag = ref false in
  let resolved = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e with
      | Batch_start _ -> ()
      | Start { stage; label; key } -> started := (stage, label, key) :: !started
      | Done { stage; label; key } ->
        completed := (stage, label, key) :: !completed;
        Hashtbl.replace resolved (stage, label) ()
      | Failed { stage; label; _ } -> Hashtbl.replace resolved (stage, label) ()
      | Batch_done _ -> done_flag := true)
    events;
  let in_flight =
    List.rev
      (List.filter (fun (stage, label, _) -> not (Hashtbl.mem resolved (stage, label))) !started)
  in
  { completed = List.rev !completed; in_flight; batch_done = !done_flag }

let completed_keys status =
  List.filter_map
    (fun (_, _, key) -> if key = "" then None else Some (Chash.of_hex key))
    status.completed

(* ------------------------------------------------------------------ *)
(* Offline fsck / compaction                                           *)
(* ------------------------------------------------------------------ *)

type fsck_report = {
  jfsck_entries : int;
  jfsck_dropped : int;
  jfsck_compacted : int;
  jfsck_diags : Soc_util.Diag.t list;
}

let fsck path =
  let module Diag = Soc_util.Diag in
  let events, dropped = load path in
  let resolved = Hashtbl.create 16 in
  List.iter
    (function
      | Done { stage; label; _ } | Failed { stage; label; _ } ->
        Hashtbl.replace resolved (stage, label) ()
      | _ -> ())
    events;
  let kept =
    List.filter
      (function
        | Start { stage; label; _ } -> not (Hashtbl.mem resolved (stage, label))
        | _ -> true)
      events
  in
  let compacted = List.length events - List.length kept in
  if Sys.file_exists path then
    Soc_util.Atomic_io.write_file ~fsync:true path
      (String.concat "" (List.map (fun e -> line_of_event e ^ "\n") kept));
  let diags =
    List.concat
      [
        (if dropped > 0 then
           [ Diag.warning ~code:"IO403" ~subject:(Filename.basename path)
               (Printf.sprintf
                  "%d corrupt or torn journal line%s dropped (valid prefix kept)" dropped
                  (if dropped = 1 then "" else "s")) ]
         else []);
        (if compacted > 0 then
           [ Diag.info ~code:"IO405" ~subject:(Filename.basename path)
               (Printf.sprintf "journal compacted: %d resolved entr%s folded away" compacted
                  (if compacted = 1 then "y" else "ies")) ]
         else []);
      ]
  in
  { jfsck_entries = List.length kept; jfsck_dropped = dropped; jfsck_compacted = compacted;
    jfsck_diags = diags }
