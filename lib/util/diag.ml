(* Unified diagnostic records shared by the static analyzer, platform
   validation and the runtime health reports. Kept in soc_util — the
   bottom of the library stack — so every layer can emit them without
   introducing dependency cycles. *)

type severity = Error | Warning | Info

type span = { line : int; col : int }

type t = {
  code : string;
  severity : severity;
  subject : string;
  message : string;
  span : span option;
}

let make severity ?span ~code ~subject message =
  { code; severity; subject; message; span }

let error ?span ~code ~subject message = make Error ?span ~code ~subject message

let warning ?span ~code ~subject message =
  make Warning ?span ~code ~subject message

let info ?span ~code ~subject message = make Info ?span ~code ~subject message

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c
    else
      let c = String.compare a.subject b.subject in
      if c <> 0 then c else String.compare a.message b.message

let sort ds = List.stable_sort compare ds

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let error_count ds =
  List.length (List.filter (fun d -> d.severity = Error) ds)

let warning_count ds =
  List.length (List.filter (fun d -> d.severity = Warning) ds)

let promote_warnings ds =
  List.map
    (fun d -> if d.severity = Warning then { d with severity = Error } else d)
    ds

let suppress ~codes ds =
  List.filter (fun d -> not (List.mem d.code codes)) ds

let position_prefix ?file t =
  match (file, t.span) with
  | Some f, Some { line; col } -> Printf.sprintf "%s:%d:%d: " f line col
  | Some f, None -> Printf.sprintf "%s: " f
  | None, Some { line; col } -> Printf.sprintf "%d:%d: " line col
  | None, None -> ""

let to_string ?file t =
  Printf.sprintf "%s%s[%s] %s: %s" (position_prefix ?file t)
    (severity_label t.severity)
    t.code t.subject t.message

let to_json ?file t =
  let fields =
    List.concat
      [
        (match file with
        | Some f -> [ Printf.sprintf {|"file":"%s"|} (Json.escape f) ]
        | None -> []);
        (match t.span with
        | Some { line; col } ->
          [ Printf.sprintf {|"line":%d|} line; Printf.sprintf {|"col":%d|} col ]
        | None -> []);
        [
          Printf.sprintf {|"code":"%s"|} (Json.escape t.code);
          Printf.sprintf {|"severity":"%s"|} (severity_label t.severity);
          Printf.sprintf {|"subject":"%s"|} (Json.escape t.subject);
          Printf.sprintf {|"message":"%s"|} (Json.escape t.message);
        ];
      ]
  in
  "{" ^ String.concat "," fields ^ "}"

let pp ppf t = Format.pp_print_string ppf (to_string t)
