(** The socket front end shared by the serve daemon ({!Server}) and the
    worker daemon ({!Remote}), plus the client-side [connect].

    A listener binds with [SO_REUSEADDR] (so a killed daemon can be
    restarted on the same port), runs one accept thread and one thread
    per connection. Each connection is a frame loop: a request that
    fails to decode is answered with [Error_r], an oversized frame with a
    [Frame_too_large] rejection followed by a hang-up, and every decoded
    request goes to the handler, which answers through [reply] — once, or
    several times for a streaming op. *)

type t

type reply = Protocol.response -> unit
(** Writes one response frame to the session's peer. Raises
    [Unix.Unix_error] when the peer is gone, which ends the session. *)

val bind : host:string -> port:int -> t
(** Bind and listen; connections queue until {!serve}. Raises
    [Unix.Unix_error] if the address cannot be bound. *)

val serve :
  ?link:string ->
  ?max_sessions:int ->
  ?idle_timeout_ms:int ->
  t ->
  (reply -> Protocol.request -> unit) ->
  unit
(** Spawn the accept thread. [link] is the {!Soc_fault.Fault.Net} label
    every reply is written on. Past [max_sessions] concurrent sessions
    (default: unbounded) a connection gets an [Error_r] and is closed;
    [idle_timeout_ms] (default: never) drops a session whose socket stays
    silent that long. Frames in both directions are bounded by
    the protocol's 16 MiB limit. *)

val port : t -> int
(** The bound port (the ephemeral one when bound to port 0). *)

val session_count : t -> int
(** Sessions currently open. *)

val kill : t -> unit
(** Simulated [kill -9]: wake and join the accept thread and close the
    listening socket — the port refuses connections once this returns —
    then shut every session socket down without joining its thread, so
    peers see EOF or a torn frame. *)

val stop : t -> unit
(** Orderly shutdown: {!kill}, then join every session thread. Safe to
    repeat, and safe after {!kill}. *)

val connect : host:string -> port:int -> (Unix.file_descr, string) result
(** A connected client socket, or ["connect host:port: reason"]. The
    socket is closed on failure. *)
