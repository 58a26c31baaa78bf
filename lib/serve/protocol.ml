(* Wire protocol of the generation daemon: length-prefixed JSON frames.

   A frame is a 4-byte big-endian payload length followed by that many
   bytes of UTF-8 JSON. The JSON layer is a deliberately small
   self-contained value type + parser + printer — the repo carries no
   JSON dependency, and the daemon's payloads (requests, diagnostics,
   manifests, stats) only need objects, arrays, strings, numbers and
   booleans. *)

module Diag = Soc_util.Diag

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let buf_escape buf s =
  Buffer.add_char buf '"';
  Soc_util.Json.add_escaped buf s;
  Buffer.add_char buf '"'

let to_string (j : json) =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else Buffer.add_string buf (Printf.sprintf "%.12g" f)
    | Str s -> buf_escape buf s
    | Arr l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        l;
      Buffer.add_char buf ']'
    | Obj l ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          buf_escape buf k;
          Buffer.add_char buf ':';
          go x)
        l;
      Buffer.add_char buf '}'
  in
  go j;
  Buffer.contents buf

(* Recursive-descent parser. Accepts exactly one value (surrounded by
   whitespace); raises [Parse_error] otherwise. *)
let of_string (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some v -> v
    | None -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          (* Encode the BMP code point as UTF-8; surrogate pairs are not
             produced by this tool and are rejected. *)
          let v = hex4 () in
          if v >= 0xD800 && v <= 0xDFFF then fail "surrogate escapes unsupported"
          else if v < 0x80 then Buffer.add_char buf (Char.chr v)
          else if v < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (v lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (v land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (v lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((v lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (v land 0x3F)))
          end
        | _ -> fail "bad escape");
        go ())
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && num_char s.[!pos] do advance () done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); Arr [])
      else
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (v :: acc)
          | Some ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Obj [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

(* Field accessors used by the decoders. *)
let mem key = function Obj l -> List.assoc_opt key l | _ -> None

let str_field ?default key j =
  match (mem key j, default) with
  | Some (Str s), _ -> s
  | None, Some d -> d
  | _ -> raise (Parse_error (Printf.sprintf "missing string field %S" key))

let int_field ?default key j =
  match (mem key j, default) with
  | Some (Num f), _ -> int_of_float f
  | None, Some d -> d
  | _ -> raise (Parse_error (Printf.sprintf "missing int field %S" key))

let float_field ?default key j =
  match (mem key j, default) with
  | Some (Num f), _ -> f
  | None, Some d -> d
  | _ -> raise (Parse_error (Printf.sprintf "missing number field %S" key))

let bool_field ?default key j =
  match (mem key j, default) with
  | Some (Bool b), _ -> b
  | None, Some d -> d
  | _ -> raise (Parse_error (Printf.sprintf "missing bool field %S" key))

let opt_int_field key j =
  match mem key j with Some (Num f) -> Some (int_of_float f) | _ -> None

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

exception Framing_error of string

let max_frame_default = 16 * 1024 * 1024

(* v3 adds the streaming [explore] op (incremental [Explore_update]
   frames before the final [Explore_r]); v2 peers never send it, so the
   floor stays at 2. *)
let protocol_version = 3
let min_protocol_version = 2

type read_error =
  | Oversized of { announced : int; limit : int }
  | Torn of string

let read_error_to_string = function
  | Oversized { announced; limit } ->
    Printf.sprintf "frame of %d bytes exceeds limit %d" announced limit
  | Torn msg -> Printf.sprintf "torn frame (%s)" msg

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* [Ok None] on clean EOF at a frame boundary; typed errors on a torn
   header/payload or an oversized announcement. The length check runs on
   the 4-byte header alone, *before* any payload allocation — a hostile
   announcement costs the peer a structured rejection, never a buffer. *)
let read_exact fd len =
  let b = Bytes.create len in
  let rec go off =
    if off >= len then Ok (Some (Bytes.unsafe_to_string b))
    else
      match Unix.read fd b off (len - off) with
      | 0 -> if off = 0 then Ok None else Error (Torn "EOF mid-payload")
      | n -> go (off + n)
  in
  go 0

let read_frame_checked ?(max_len = max_frame_default) fd =
  match read_exact fd 4 with
  | Error _ as e -> e
  | Ok None -> Ok None
  | Ok (Some hdr) ->
    let len =
      (Char.code hdr.[0] lsl 24) lor (Char.code hdr.[1] lsl 16)
      lor (Char.code hdr.[2] lsl 8) lor Char.code hdr.[3]
    in
    if len > max_len then Error (Oversized { announced = len; limit = max_len })
    else (
      match read_exact fd len with
      | Ok (Some _) as ok -> ok
      | Ok None -> Error (Torn "EOF after header")
      | Error _ as e -> e)

let read_frame ?max_len fd =
  match read_frame_checked ?max_len fd with
  | Ok r -> r
  | Error e -> raise (Framing_error (read_error_to_string e))

(* Labelled writes pass through the net-fault injector; unlabelled
   writes (ordinary client↔server traffic) never do. All verdicts are
   implemented here so the injector itself stays pure bookkeeping.

   Header and payload leave in one write: split into two small writes,
   the payload would wait under Nagle's algorithm for the peer's delayed
   ACK of the header — tens of milliseconds per frame on loopback. *)
let write_frame ?link ?(max_len = max_frame_default) fd payload =
  let len = String.length payload in
  if len > max_len then
    raise (Framing_error (Printf.sprintf "refusing to send %d-byte frame (limit %d)" len max_len));
  let total = 4 + len in
  let frame = Bytes.create total in
  Bytes.set_int32_be frame 0 (Int32.of_int len);
  Bytes.blit_string payload 0 frame 4 len;
  let frame = Bytes.unsafe_to_string frame in
  let emit () = write_all fd frame 0 total in
  match link with
  | None -> emit ()
  | Some link -> (
    match Soc_fault.Fault.Net.decide ~link with
    | Soc_fault.Fault.Net.Deliver -> emit ()
    | Drop -> ()
    | Delay d ->
      Unix.sleepf d;
      emit ()
    | Duplicate ->
      emit ();
      emit ()
    | Truncate frac ->
      (* A torn frame: part of the bytes, then a half-close so the peer
         reads a hard EOF mid-frame instead of waiting forever. *)
      let keep = max 1 (min (total - 1) (int_of_float (frac *. float_of_int total))) in
      write_all fd frame 0 keep;
      (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
    | Drip d ->
      (* The slow-drip socket: the full frame, seven bytes at a time. *)
      let rec go off =
        if off < total then begin
          write_all fd frame off (min 7 (total - off));
          Unix.sleepf d;
          go (off + 7)
        end
      in
      go 0)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request =
  | Submit of { source : string; priority : int; deadline_ms : int option }
  | Status of int
  | Result of int  (** blocks server-side until the request is terminal *)
  | Stats
  | Drain
  | Ping
  | Hello of { version : int; peer : string }
  | Heartbeat
  | Build of { source : string; key : string; deadline_ms : int option }
  | Cancel of { key : string }
  | Explore of {
      strategy : string;  (** "exhaustive" | "random" | "greedy" | "evolve" *)
      seed : int;
      budget_pct : int;
      population : int;
      generations : int;
      samples : int;  (** random-strategy sample count *)
      width : int;
      height : int;
    }  (** streaming: [Explore_update]* then one [Explore_r] *)

let encode_request = function
  | Submit { source; priority; deadline_ms } ->
    Obj
      ([ ("op", Str "submit"); ("source", Str source); ("priority", Num (float_of_int priority)) ]
      @ match deadline_ms with
        | Some d -> [ ("deadline_ms", Num (float_of_int d)) ]
        | None -> [])
  | Status id -> Obj [ ("op", Str "status"); ("id", Num (float_of_int id)) ]
  | Result id -> Obj [ ("op", Str "result"); ("id", Num (float_of_int id)) ]
  | Stats -> Obj [ ("op", Str "stats") ]
  | Drain -> Obj [ ("op", Str "drain") ]
  | Ping -> Obj [ ("op", Str "ping") ]
  | Hello { version; peer } ->
    Obj [ ("op", Str "hello"); ("version", Num (float_of_int version)); ("peer", Str peer) ]
  | Heartbeat -> Obj [ ("op", Str "heartbeat") ]
  | Build { source; key; deadline_ms } ->
    Obj
      ([ ("op", Str "build"); ("source", Str source); ("key", Str key) ]
      @ match deadline_ms with
        | Some d -> [ ("deadline_ms", Num (float_of_int d)) ]
        | None -> [])
  | Cancel { key } -> Obj [ ("op", Str "cancel"); ("key", Str key) ]
  | Explore { strategy; seed; budget_pct; population; generations; samples; width; height } ->
    Obj
      [ ("op", Str "explore"); ("strategy", Str strategy);
        ("seed", Num (float_of_int seed));
        ("budget_pct", Num (float_of_int budget_pct));
        ("population", Num (float_of_int population));
        ("generations", Num (float_of_int generations));
        ("samples", Num (float_of_int samples));
        ("width", Num (float_of_int width));
        ("height", Num (float_of_int height)) ]

let decode_request j =
  match str_field "op" j with
  | "submit" ->
    Ok
      (Submit
         { source = str_field "source" j;
           priority = int_field ~default:0 "priority" j;
           deadline_ms = opt_int_field "deadline_ms" j })
  | "status" -> Ok (Status (int_field "id" j))
  | "result" -> Ok (Result (int_field "id" j))
  | "stats" -> Ok Stats
  | "drain" -> Ok Drain
  | "ping" -> Ok Ping
  | "hello" ->
    Ok
      (Hello
         { version = int_field ~default:1 "version" j;
           peer = str_field ~default:"" "peer" j })
  | "heartbeat" -> Ok Heartbeat
  | "build" ->
    Ok
      (Build
         { source = str_field "source" j; key = str_field "key" j;
           deadline_ms = opt_int_field "deadline_ms" j })
  | "cancel" -> Ok (Cancel { key = str_field "key" j })
  | "explore" ->
    Ok
      (Explore
         { strategy = str_field ~default:"evolve" "strategy" j;
           seed = int_field ~default:42 "seed" j;
           budget_pct = int_field ~default:100 "budget_pct" j;
           population = int_field ~default:8 "population" j;
           generations = int_field ~default:4 "generations" j;
           samples = int_field ~default:32 "samples" j;
           width = int_field ~default:16 "width" j;
           height = int_field ~default:16 "height" j })
  | op -> Error (Printf.sprintf "unknown op %S" op)
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Diagnostics as JSON values                                          *)
(* ------------------------------------------------------------------ *)

let json_of_diag (d : Diag.t) =
  Obj
    ([ ("code", Str d.Diag.code);
       ("severity", Str (Diag.severity_label d.Diag.severity));
       ("subject", Str d.Diag.subject);
       ("message", Str d.Diag.message) ]
    @ match d.Diag.span with
      | Some { Diag.line; col } ->
        [ ("line", Num (float_of_int line)); ("col", Num (float_of_int col)) ]
      | None -> [])

let diag_of_json j =
  let severity =
    match str_field ~default:"error" "severity" j with
    | "warning" -> Diag.Warning
    | "info" -> Diag.Info
    | _ -> Diag.Error
  in
  let mk = match severity with
    | Diag.Error -> Diag.error
    | Diag.Warning -> Diag.warning
    | Diag.Info -> Diag.info
  in
  let span =
    match (opt_int_field "line" j, opt_int_field "col" j) with
    | Some line, Some col -> Some { Diag.line; col }
    | _ -> None
  in
  mk ?span ~code:(str_field ~default:"SOC000" "code" j)
    ~subject:(str_field ~default:"" "subject" j)
    (str_field ~default:"" "message" j)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type reject_reason =
  | Queue_full
  | Draining
  | Parse_failed
  | Check_failed
  | Server_killed
  | Poisoned  (** circuit breaker open for this spec's key *)
  | Degraded  (** worker pool dead beyond its restart budget *)
  | Frame_too_large  (** announced frame length beyond the peer's limit *)
  | Version_skew  (** hello offered a protocol version below the minimum *)

let reject_reason_label = function
  | Queue_full -> "queue_full"
  | Draining -> "draining"
  | Parse_failed -> "parse_failed"
  | Check_failed -> "check_failed"
  | Server_killed -> "server_killed"
  | Poisoned -> "poisoned"
  | Degraded -> "degraded"
  | Frame_too_large -> "frame_too_large"
  | Version_skew -> "version_skew"

let reject_reason_of_label = function
  | "queue_full" -> Queue_full
  | "draining" -> Draining
  | "parse_failed" -> Parse_failed
  | "check_failed" -> Check_failed
  | "server_killed" -> Server_killed
  | "poisoned" -> Poisoned
  | "degraded" -> Degraded
  | "frame_too_large" -> Frame_too_large
  | "version_skew" -> Version_skew
  | s -> raise (Parse_error ("unknown reject reason " ^ s))

type request_state = Queued of int | Running | Done | Failed of string | Expired

let state_label = function
  | Queued _ -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"
  | Expired -> "expired"

type server_stats = {
  uptime_ms : float;
  workers : int;  (** configured pool size *)
  live_workers : int;  (** threads currently alive and not abandoned *)
  degraded : bool;  (** restart budget exhausted; pool no longer replaced *)
  draining : bool;
  submitted : int;  (** admitted requests (got an id) *)
  coalesced : int;  (** admitted requests that attached to a live job *)
  completed : int;
  failed : int;
  expired : int;
  rejected_queue : int;  (** backpressure rejections *)
  rejected_check : int;  (** parse / static-analysis rejections *)
  queue_depth : int;
  running : int;
  cache_hits : int;
  cache_disk_hits : int;
  cache_misses : int;
  hit_rate : float;  (** (hits + disk hits) / lookups, 0 when none *)
  engine_runs : int;  (** real HLS engine invocations since startup *)
  worker_restarts : int;  (** dead/wedged workers replaced by the supervisor *)
  watchdog_fires : int;  (** in-flight builds expired past their deadline *)
  breaker_open_keys : int;  (** coalescing keys with an open/half-open breaker *)
  rejected_poisoned : int;  (** admissions refused by an open breaker *)
  sim_fallbacks : int;  (** compiled-sim failures degraded to the interpreter *)
  rtl_verify_rejects : int;  (** tapes rejected by the translation validator *)
  tape_reverifies : int;  (** cache-loaded tapes re-verified before dispatch *)
  fleet_workers : int;  (** configured remote worker endpoints *)
  fleet_live : int;  (** endpoints currently answering heartbeats *)
  remote_dispatches : int;  (** build attempts sent to remote workers *)
  remote_retries : int;  (** dispatches re-sent after an infra failure *)
  remote_hedges : int;  (** straggler builds raced on a second worker *)
  remote_cancels : int;  (** cancel frames sent to hedge/failover losers *)
  remote_fallbacks : int;  (** builds run locally after fleet exhaustion *)
  lat_count : int;
  lat_p50_ms : float;
  lat_p95_ms : float;
  lat_p99_ms : float;
}

type response =
  | Accepted of { id : int; key : string; coalesced : bool; diags : Diag.t list }
  | Rejected of { reason : reject_reason; detail : string; diags : Diag.t list }
  | Status_r of { id : int; state : request_state }
  | Result_r of {
      id : int;
      state : request_state;  (** [Done], [Failed _] or [Expired] *)
      design : string;
      digest : string;
      manifest : string;  (** the farm manifest JSON text, [""] unless [Done] *)
      wall_ms : float;
    }
  | Stats_r of server_stats
  | Drained of { completed : int; failed : int }
  | Error_r of string
  | Pong
  | Hello_r of { version : int; worker_id : string }
  | Heartbeat_r of { in_flight : int; builds_done : int }
  | Built_r of {
      key : string;  (** echoed so the coordinator can match hedged replies *)
      state : request_state;  (** [Done] or [Failed _] *)
      design : string;
      digest : string;
      manifest : string;
      wall_ms : float;
    }
  | Cancelled_r of { key : string; was_running : bool }
  | Explore_update of {
      round : int;
      evaluated : int;
      infeasible : int;
      frontier_size : int;
      best_us : float;  (** 0.0 while the frontier is empty *)
    }  (** incremental frontier progress; never the final frame *)
  | Explore_r of {
      frontier : string;  (** deterministic frontier JSON (Soc_tune.Render) *)
      evaluated : int;
      infeasible : int;
      rounds : int;
      engine_runs : int;  (** real HLS invocations spent on this sweep *)
      cache_hits : int;  (** memory + disk cache hits on the daemon cache *)
      wall_ms : float;
    }

let diags_json diags = Arr (List.map json_of_diag diags)

let encode_state = function
  | Queued pos -> [ ("state", Str "queued"); ("position", Num (float_of_int pos)) ]
  | Running -> [ ("state", Str "running") ]
  | Done -> [ ("state", Str "done") ]
  | Failed reason -> [ ("state", Str "failed"); ("reason", Str reason) ]
  | Expired -> [ ("state", Str "expired") ]

let decode_state j =
  match str_field "state" j with
  | "queued" -> Queued (int_field ~default:0 "position" j)
  | "running" -> Running
  | "done" -> Done
  | "failed" -> Failed (str_field ~default:"" "reason" j)
  | "expired" -> Expired
  | s -> raise (Parse_error ("unknown state " ^ s))

let encode_response = function
  | Accepted { id; key; coalesced; diags } ->
    Obj
      [ ("reply", Str "accepted"); ("id", Num (float_of_int id)); ("key", Str key);
        ("coalesced", Bool coalesced); ("diags", diags_json diags) ]
  | Rejected { reason; detail; diags } ->
    Obj
      [ ("reply", Str "rejected"); ("reason", Str (reject_reason_label reason));
        ("detail", Str detail); ("diags", diags_json diags) ]
  | Status_r { id; state } ->
    Obj ([ ("reply", Str "status"); ("id", Num (float_of_int id)) ] @ encode_state state)
  | Result_r { id; state; design; digest; manifest; wall_ms } ->
    Obj
      ([ ("reply", Str "result"); ("id", Num (float_of_int id)) ]
      @ encode_state state
      @ [ ("design", Str design); ("digest", Str digest); ("manifest", Str manifest);
          ("wall_ms", Num wall_ms) ])
  | Stats_r s ->
    Obj
      [ ("reply", Str "stats");
        ("uptime_ms", Num s.uptime_ms);
        ("workers", Num (float_of_int s.workers));
        ("live_workers", Num (float_of_int s.live_workers));
        ("degraded", Bool s.degraded);
        ("draining", Bool s.draining);
        ("submitted", Num (float_of_int s.submitted));
        ("coalesced", Num (float_of_int s.coalesced));
        ("completed", Num (float_of_int s.completed));
        ("failed", Num (float_of_int s.failed));
        ("expired", Num (float_of_int s.expired));
        ("rejected_queue", Num (float_of_int s.rejected_queue));
        ("rejected_check", Num (float_of_int s.rejected_check));
        ("queue_depth", Num (float_of_int s.queue_depth));
        ("running", Num (float_of_int s.running));
        ("cache_hits", Num (float_of_int s.cache_hits));
        ("cache_disk_hits", Num (float_of_int s.cache_disk_hits));
        ("cache_misses", Num (float_of_int s.cache_misses));
        ("hit_rate", Num s.hit_rate);
        ("engine_runs", Num (float_of_int s.engine_runs));
        ("worker_restarts", Num (float_of_int s.worker_restarts));
        ("watchdog_fires", Num (float_of_int s.watchdog_fires));
        ("breaker_open_keys", Num (float_of_int s.breaker_open_keys));
        ("rejected_poisoned", Num (float_of_int s.rejected_poisoned));
        ("sim_fallbacks", Num (float_of_int s.sim_fallbacks));
        ("rtl_verify_rejects", Num (float_of_int s.rtl_verify_rejects));
        ("tape_reverifies", Num (float_of_int s.tape_reverifies));
        ("fleet_workers", Num (float_of_int s.fleet_workers));
        ("fleet_live", Num (float_of_int s.fleet_live));
        ("remote_dispatches", Num (float_of_int s.remote_dispatches));
        ("remote_retries", Num (float_of_int s.remote_retries));
        ("remote_hedges", Num (float_of_int s.remote_hedges));
        ("remote_cancels", Num (float_of_int s.remote_cancels));
        ("remote_fallbacks", Num (float_of_int s.remote_fallbacks));
        ("lat_count", Num (float_of_int s.lat_count));
        ("lat_p50_ms", Num s.lat_p50_ms);
        ("lat_p95_ms", Num s.lat_p95_ms);
        ("lat_p99_ms", Num s.lat_p99_ms) ]
  | Drained { completed; failed } ->
    Obj
      [ ("reply", Str "drained"); ("completed", Num (float_of_int completed));
        ("failed", Num (float_of_int failed)) ]
  | Error_r msg -> Obj [ ("reply", Str "error"); ("message", Str msg) ]
  | Pong -> Obj [ ("reply", Str "pong") ]
  | Hello_r { version; worker_id } ->
    Obj
      [ ("reply", Str "hello"); ("version", Num (float_of_int version));
        ("worker_id", Str worker_id) ]
  | Heartbeat_r { in_flight; builds_done } ->
    Obj
      [ ("reply", Str "heartbeat"); ("in_flight", Num (float_of_int in_flight));
        ("builds_done", Num (float_of_int builds_done)) ]
  | Built_r { key; state; design; digest; manifest; wall_ms } ->
    Obj
      ([ ("reply", Str "built"); ("key", Str key) ]
      @ encode_state state
      @ [ ("design", Str design); ("digest", Str digest); ("manifest", Str manifest);
          ("wall_ms", Num wall_ms) ])
  | Cancelled_r { key; was_running } ->
    Obj
      [ ("reply", Str "cancelled"); ("key", Str key); ("was_running", Bool was_running) ]
  | Explore_update { round; evaluated; infeasible; frontier_size; best_us } ->
    Obj
      [ ("reply", Str "explore_update"); ("round", Num (float_of_int round));
        ("evaluated", Num (float_of_int evaluated));
        ("infeasible", Num (float_of_int infeasible));
        ("frontier_size", Num (float_of_int frontier_size));
        ("best_us", Num best_us) ]
  | Explore_r { frontier; evaluated; infeasible; rounds; engine_runs; cache_hits; wall_ms } ->
    Obj
      [ ("reply", Str "explore"); ("frontier", Str frontier);
        ("evaluated", Num (float_of_int evaluated));
        ("infeasible", Num (float_of_int infeasible));
        ("rounds", Num (float_of_int rounds));
        ("engine_runs", Num (float_of_int engine_runs));
        ("cache_hits", Num (float_of_int cache_hits));
        ("wall_ms", Num wall_ms) ]

let decode_diags j =
  match mem "diags" j with
  | Some (Arr l) -> List.map diag_of_json l
  | _ -> []

let decode_response j =
  match str_field "reply" j with
  | "accepted" ->
    Ok
      (Accepted
         { id = int_field "id" j; key = str_field ~default:"" "key" j;
           coalesced = bool_field ~default:false "coalesced" j; diags = decode_diags j })
  | "rejected" ->
    Ok
      (Rejected
         { reason = reject_reason_of_label (str_field "reason" j);
           detail = str_field ~default:"" "detail" j; diags = decode_diags j })
  | "status" -> Ok (Status_r { id = int_field "id" j; state = decode_state j })
  | "result" ->
    Ok
      (Result_r
         { id = int_field "id" j; state = decode_state j;
           design = str_field ~default:"" "design" j;
           digest = str_field ~default:"" "digest" j;
           manifest = str_field ~default:"" "manifest" j;
           wall_ms = float_field ~default:0.0 "wall_ms" j })
  | "stats" ->
    Ok
      (Stats_r
         { uptime_ms = float_field ~default:0.0 "uptime_ms" j;
           workers = int_field ~default:0 "workers" j;
           live_workers = int_field ~default:0 "live_workers" j;
           degraded = bool_field ~default:false "degraded" j;
           draining = bool_field ~default:false "draining" j;
           submitted = int_field ~default:0 "submitted" j;
           coalesced = int_field ~default:0 "coalesced" j;
           completed = int_field ~default:0 "completed" j;
           failed = int_field ~default:0 "failed" j;
           expired = int_field ~default:0 "expired" j;
           rejected_queue = int_field ~default:0 "rejected_queue" j;
           rejected_check = int_field ~default:0 "rejected_check" j;
           queue_depth = int_field ~default:0 "queue_depth" j;
           running = int_field ~default:0 "running" j;
           cache_hits = int_field ~default:0 "cache_hits" j;
           cache_disk_hits = int_field ~default:0 "cache_disk_hits" j;
           cache_misses = int_field ~default:0 "cache_misses" j;
           hit_rate = float_field ~default:0.0 "hit_rate" j;
           engine_runs = int_field ~default:0 "engine_runs" j;
           worker_restarts = int_field ~default:0 "worker_restarts" j;
           watchdog_fires = int_field ~default:0 "watchdog_fires" j;
           breaker_open_keys = int_field ~default:0 "breaker_open_keys" j;
           rejected_poisoned = int_field ~default:0 "rejected_poisoned" j;
           sim_fallbacks = int_field ~default:0 "sim_fallbacks" j;
           rtl_verify_rejects = int_field ~default:0 "rtl_verify_rejects" j;
           tape_reverifies = int_field ~default:0 "tape_reverifies" j;
           fleet_workers = int_field ~default:0 "fleet_workers" j;
           fleet_live = int_field ~default:0 "fleet_live" j;
           remote_dispatches = int_field ~default:0 "remote_dispatches" j;
           remote_retries = int_field ~default:0 "remote_retries" j;
           remote_hedges = int_field ~default:0 "remote_hedges" j;
           remote_cancels = int_field ~default:0 "remote_cancels" j;
           remote_fallbacks = int_field ~default:0 "remote_fallbacks" j;
           lat_count = int_field ~default:0 "lat_count" j;
           lat_p50_ms = float_field ~default:0.0 "lat_p50_ms" j;
           lat_p95_ms = float_field ~default:0.0 "lat_p95_ms" j;
           lat_p99_ms = float_field ~default:0.0 "lat_p99_ms" j })
  | "drained" ->
    Ok
      (Drained
         { completed = int_field ~default:0 "completed" j;
           failed = int_field ~default:0 "failed" j })
  | "error" -> Ok (Error_r (str_field ~default:"" "message" j))
  | "pong" -> Ok Pong
  | "hello" ->
    Ok
      (Hello_r
         { version = int_field ~default:1 "version" j;
           worker_id = str_field ~default:"" "worker_id" j })
  | "heartbeat" ->
    Ok
      (Heartbeat_r
         { in_flight = int_field ~default:0 "in_flight" j;
           builds_done = int_field ~default:0 "builds_done" j })
  | "built" ->
    Ok
      (Built_r
         { key = str_field ~default:"" "key" j; state = decode_state j;
           design = str_field ~default:"" "design" j;
           digest = str_field ~default:"" "digest" j;
           manifest = str_field ~default:"" "manifest" j;
           wall_ms = float_field ~default:0.0 "wall_ms" j })
  | "cancelled" ->
    Ok
      (Cancelled_r
         { key = str_field ~default:"" "key" j;
           was_running = bool_field ~default:false "was_running" j })
  | "explore_update" ->
    Ok
      (Explore_update
         { round = int_field ~default:0 "round" j;
           evaluated = int_field ~default:0 "evaluated" j;
           infeasible = int_field ~default:0 "infeasible" j;
           frontier_size = int_field ~default:0 "frontier_size" j;
           best_us = float_field ~default:0.0 "best_us" j })
  | "explore" ->
    Ok
      (Explore_r
         { frontier = str_field ~default:"" "frontier" j;
           evaluated = int_field ~default:0 "evaluated" j;
           infeasible = int_field ~default:0 "infeasible" j;
           rounds = int_field ~default:0 "rounds" j;
           engine_runs = int_field ~default:0 "engine_runs" j;
           cache_hits = int_field ~default:0 "cache_hits" j;
           wall_ms = float_field ~default:0.0 "wall_ms" j })
  | r -> Error (Printf.sprintf "unknown reply %S" r)
  | exception Parse_error msg -> Error msg

let hello_reply ~daemon ~worker_id version =
  if version < min_protocol_version then
    Rejected
      { reason = Version_skew;
        detail =
          Printf.sprintf "peer speaks protocol %d; this %s requires >= %d" version daemon
            min_protocol_version;
        diags = [] }
  else Hello_r { version = min version protocol_version; worker_id }

(* Frame-level convenience used by both ends. *)
let send ?link ?max_len fd v = write_frame ?link ?max_len fd (to_string v)

let recv ?max_len fd =
  match read_frame ?max_len fd with
  | None -> None
  | Some payload -> Some (of_string payload)

let recv_checked ?max_len fd =
  match read_frame_checked ?max_len fd with
  | Ok None -> Ok None
  | Ok (Some payload) -> (
    match of_string payload with
    | j -> Ok (Some j)
    | exception Parse_error msg -> Error (Torn ("unparseable payload: " ^ msg)))
  | Error _ as e -> e
