(** Wire protocol of the generation daemon.

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of UTF-8 JSON. Both sides speak the same [request]/[response]
    vocabulary; diagnostics from the pre-flight static analyzer travel as
    structured JSON objects (code / severity / subject / message / span),
    never as flattened text. The JSON layer is self-contained — the repo
    carries no JSON dependency. *)

(** {2 JSON} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

val to_string : json -> string
(** Compact rendering; integral numbers print without a fraction. *)

val of_string : string -> json
(** Raises {!Parse_error} on malformed input or trailing content. *)

val mem : string -> json -> json option
(** Object field lookup; [None] on non-objects. *)

(** {2 Framing} *)

exception Framing_error of string
(** Every frame reader and writer below bounds the payload by [max_len],
    16 MiB by default. Daemons and clients use the default. *)

val protocol_version : int
(** The version this build speaks (2: hello/heartbeat/build/cancel;
    3: streaming explore). *)

type read_error =
  | Oversized of { announced : int; limit : int }
      (** the 4-byte header announced more than [max_len]; nothing was
          allocated and the payload was not read *)
  | Torn of string  (** EOF mid-header/payload, or unparseable JSON *)

val read_error_to_string : read_error -> string

val read_frame_checked :
  ?max_len:int -> Unix.file_descr -> (string option, read_error) result
(** [Ok None] on clean EOF at a frame boundary; typed errors otherwise.
    The length limit is enforced on the header alone, {e before} any
    payload allocation. *)

val read_frame : ?max_len:int -> Unix.file_descr -> string option
(** {!read_frame_checked} with errors raised as {!Framing_error}. *)

val frame : string -> string
(** The bytes of one frame: the payload's 4-byte big-endian length, then
    the payload. No size check. *)

val write_frame : ?link:string -> ?max_len:int -> Unix.file_descr -> string -> unit
(** [link] routes the write through {!Soc_fault.Fault.Net} — the frame
    may be dropped, delayed, duplicated, torn or dripped according to
    the armed plan. Unlabelled writes are never perturbed. *)

(** {2 Requests} *)

type request =
  | Submit of { source : string; priority : int; deadline_ms : int option }
      (** [source] is DSL text; higher [priority] dispatches first. *)
  | Status of int
  | Result of int  (** blocks server-side until the request is terminal *)
  | Stats
  | Drain
  | Ping
  | Hello of { version : int; peer : string }
      (** version negotiation; [peer] identifies the caller for logs *)
  | Heartbeat  (** liveness probe on a worker control connection *)
  | Build of { source : string; key : string; deadline_ms : int option }
      (** coordinator→worker dispatch; [key] is the coalescing key
          (canonical-spec Chash) making the request idempotent *)
  | Cancel of { key : string }
      (** abandon the build for [key] — hedge loser or re-routed work *)
  | Explore of {
      strategy : string;  (** "exhaustive" | "random" | "greedy" | "evolve" *)
      seed : int;
      budget_pct : int;
      population : int;
      generations : int;
      samples : int;  (** random-strategy sample count *)
      width : int;
      height : int;
    }
      (** run an autotuning sweep on the daemon (sharing its HLS cache);
          the server streams zero or more [Explore_update] frames then
          exactly one terminal [Explore_r] on the same connection *)

val encode_request : request -> json
val decode_request : json -> (request, string) result

(** {2 Responses} *)

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

val reject_reason_label : reject_reason -> string

type request_state =
  | Queued of int  (** jobs ahead of it in the queue *)
  | Running
  | Done
  | Failed of string
  | Expired


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
  | Accepted of { id : int; key : string; coalesced : bool; diags : Soc_util.Diag.t list }
      (** [diags] are the analyzer's warnings (errors reject instead). *)
  | Rejected of { reason : reject_reason; detail : string; diags : Soc_util.Diag.t list }
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
  | Error_r of string  (** protocol-level: malformed frame, unknown id… *)
  | Pong
  | Hello_r of { version : int; worker_id : string }
      (** negotiated version = min(peer's, ours) *)
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
      cache_hits : int;  (** memory + disk hits on the daemon cache *)
      wall_ms : float;
    }

val json_of_diag : Soc_util.Diag.t -> json
val diag_of_json : json -> Soc_util.Diag.t

val encode_response : response -> json
val decode_response : json -> (response, string) result

val hello_reply : daemon:string -> worker_id:string -> int -> response
(** The answer to [Hello] at the given peer version: [Hello_r] at the
    lower of the two versions, or a [Version_skew] rejection naming
    [daemon] ("server", "worker") when the peer is below version 2, the
    oldest a daemon accepts. *)

val send : ?link:string -> ?max_len:int -> Unix.file_descr -> json -> unit
val recv : ?max_len:int -> Unix.file_descr -> json option

val recv_checked : ?max_len:int -> Unix.file_descr -> (json option, read_error) result
(** Typed variant of {!recv}: framing problems and unparseable payloads
    come back as {!read_error} instead of exceptions. *)
