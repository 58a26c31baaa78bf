(** Blocking client of the generation daemon: one TCP connection,
    synchronous request/response frames. Thread-compatible, not
    thread-safe — use one [t] per thread. *)

exception Error of string
(** Transport or protocol breakdown (connect/send/recv failure, malformed
    or unexpected response). Application-level outcomes — rejections,
    failed builds — are ordinary {!Protocol.response} values, never this
    exception. *)

type t

val connect : ?host:string -> port:int -> unit -> t
(** Default host 127.0.0.1; frames are bounded by the protocol's 16 MiB
    limit. *)

val close : t -> unit

val rpc : t -> Protocol.request -> Protocol.response
(** One round trip. *)

val ping : t -> bool

val submit : t -> ?priority:int -> ?deadline_ms:int -> string -> Protocol.response
(** Submit DSL source; [Accepted] or [Rejected] (or [Error_r]). *)

val status : t -> int -> Protocol.response
val result : t -> int -> Protocol.response
(** Blocks until the request is terminal. *)

val stats : t -> Protocol.server_stats
val drain : t -> int * int
(** Stop admission, wait for in-flight work; [(completed, failed)]. *)

val explore :
  t -> ?on_update:(Protocol.response -> unit) -> Protocol.request -> Protocol.response
(** Send an {!Protocol.Explore} request and consume the stream:
    [on_update] sees each incremental {!Protocol.Explore_update}; the
    returned response is the terminal frame ({!Protocol.Explore_r}, or
    [Rejected]/[Error_r]). Raises [Invalid_argument] on a non-explore
    request. *)

val submit_and_wait :
  t -> ?deadline_ms:int -> string -> Protocol.response * Protocol.response option
(** The submit response (at priority 0), and when accepted, the blocking
    result. *)
