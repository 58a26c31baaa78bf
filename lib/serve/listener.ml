(* The socket front end of both daemons: bind, accept, the session
   registry, the per-connection frame loop and shutdown. A daemon
   supplies only its request handler.

   Sessions register under [lock] before their thread starts and leave
   the registry under [lock] before closing their socket, so [kill] can
   shut down every registered socket under the lock without ever
   touching a descriptor number that was closed and reused. *)

type reply = Protocol.response -> unit

type session = { sid : int; fd : Unix.file_descr; mutable thread : Thread.t option }

type t = {
  sock : Unix.file_descr;
  host : string;
  bound_port : int;
  stopped : bool Atomic.t;
  lock : Mutex.t;
  mutable sessions : session list;
  mutable next_sid : int;
  mutable accept_thread : Thread.t option;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let shutdown_quietly fd = try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let connect ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port)) with
  | () -> Ok fd
  | exception e -> (
    close_quietly fd;
    match e with
    | Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "connect %s:%d: %s" host port (Unix.error_message err))
    | e -> raise e)

let port t = t.bound_port

let session_count t =
  Mutex.lock t.lock;
  let n = List.length t.sessions in
  Mutex.unlock t.lock;
  n

let bind ~host ~port =
  (* A peer that resets its socket mid-write must cost an EPIPE on that
     one session, never the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen sock 64
   with e ->
     close_quietly sock;
     raise e);
  let bound_port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  { sock; host; bound_port; stopped = Atomic.make false; lock = Mutex.create ();
    sessions = []; next_sid = 0; accept_thread = None }

(* One connection's frame loop. Any I/O or framing failure ends the
   session quietly — including the EAGAIN of an idle-timeout read. *)
let session t ~reply handler s =
  let rec loop () =
    match Protocol.recv_checked s.fd with
    | Ok None | Error (Protocol.Torn _) -> ()
    | Ok (Some j) ->
      (match Protocol.decode_request j with
      | Error msg -> reply (Protocol.Error_r msg)
      | Ok req -> handler reply req);
      loop ()
    | Error (Protocol.Oversized { announced; limit }) ->
      (* The payload was never read, so the stream cannot be resynced:
         explain, then hang up. *)
      reply
        (Protocol.Rejected
           { reason = Protocol.Frame_too_large;
             detail = Printf.sprintf "announced %d bytes; limit is %d" announced limit;
             diags = [] })
  in
  (try loop () with
  | Protocol.Framing_error _ | Protocol.Parse_error _ | Unix.Unix_error _ | Sys_error _
    -> ());
  Mutex.lock t.lock;
  t.sessions <- List.filter (fun s' -> s'.sid <> s.sid) t.sessions;
  Mutex.unlock t.lock;
  shutdown_quietly s.fd;
  close_quietly s.fd

(* Register [fd] as a session, or — past the cap — explain and close. *)
let admit t ~max_sessions ~send spawn fd =
  Mutex.lock t.lock;
  let s =
    if List.length t.sessions >= max_sessions then None
    else begin
      let s = { sid = t.next_sid; fd; thread = None } in
      t.next_sid <- s.sid + 1;
      t.sessions <- s :: t.sessions;
      Some s
    end
  in
  Mutex.unlock t.lock;
  match s with
  | Some s -> s.thread <- Some (Thread.create spawn s)
  | None ->
    (try send fd (Protocol.Error_r "too many concurrent sessions")
     with Protocol.Framing_error _ | Unix.Unix_error _ | Sys_error _ -> ());
    shutdown_quietly fd;
    close_quietly fd

(* Ends only once [stopped] is set; the stopper wakes a blocked accept.
   Other accept failures are retried: ECONNABORTED and EINTR at once,
   anything else (EMFILE, ENFILE, ...) after a short pause. *)
let rec accept_loop t ~admit =
  match Unix.accept t.sock with
  | fd, _ ->
    if Atomic.get t.stopped then close_quietly fd
    else begin
      admit fd;
      accept_loop t ~admit
    end
  | exception Unix.Unix_error (err, _, _) ->
    if not (Atomic.get t.stopped) then begin
      if err <> Unix.EINTR && err <> Unix.ECONNABORTED then Thread.delay 0.01;
      accept_loop t ~admit
    end

let serve ?link ?(max_sessions = max_int) ?idle_timeout_ms t handler =
  let send fd v = Protocol.send ?link fd (Protocol.encode_response v) in
  let spawn s =
    Option.iter
      (fun ms ->
        try Unix.setsockopt_float s.fd Unix.SO_RCVTIMEO (float_of_int ms /. 1000.0)
        with Unix.Unix_error _ | Invalid_argument _ -> ())
      idle_timeout_ms;
    session t ~reply:(send s.fd) handler s
  in
  let admit = admit t ~max_sessions ~send spawn in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t ~admit) ())

(* Closing a listening socket does not interrupt a blocked accept on
   Linux, so the stopper wakes it by connecting to it. Session sockets
   are shut down, not closed: the shutdown wakes a thread blocked in a
   read, and the session closes its own socket on the way out. *)
let kill t =
  if not (Atomic.exchange t.stopped true) then begin
    (match connect ~host:t.host ~port:t.bound_port with
    | Ok fd -> close_quietly fd
    | Error _ | (exception Unix.Unix_error _) -> ());
    Option.iter Thread.join t.accept_thread;
    close_quietly t.sock
  end;
  Mutex.lock t.lock;
  List.iter (fun s -> shutdown_quietly s.fd) t.sessions;
  Mutex.unlock t.lock

let stop t =
  kill t;
  Mutex.lock t.lock;
  let sessions = t.sessions in
  Mutex.unlock t.lock;
  List.iter (fun s -> Option.iter Thread.join s.thread) sessions
