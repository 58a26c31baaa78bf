(* Blocking client of the generation daemon: one connection, synchronous
   request/response over the length-prefixed JSON protocol. *)

exception Error of string

type t = { fd : Unix.file_descr; max_frame : int }

let connect ?(host = "127.0.0.1") ?(max_frame = Protocol.max_frame_default) ~port () =
  match Listener.connect ~host ~port with
  | Ok fd -> { fd; max_frame }
  | Error msg -> raise (Error msg)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rpc t req =
  (try Protocol.send ~max_len:t.max_frame t.fd (Protocol.encode_request req)
   with Unix.Unix_error (err, _, _) ->
     raise (Error ("send: " ^ Unix.error_message err)));
  match Protocol.recv ~max_len:t.max_frame t.fd with
  | exception Protocol.Framing_error msg -> raise (Error ("framing: " ^ msg))
  | exception Protocol.Parse_error msg -> raise (Error ("malformed response: " ^ msg))
  | exception Unix.Unix_error (err, _, _) -> raise (Error ("recv: " ^ Unix.error_message err))
  | None -> raise (Error "server closed the connection")
  | Some j -> (
    match Protocol.decode_response j with
    | Ok resp -> resp
    | Error msg -> raise (Error ("undecodable response: " ^ msg)))

let ping t = match rpc t Protocol.Ping with Protocol.Pong -> true | _ -> false

let submit t ?(priority = 0) ?deadline_ms source =
  rpc t (Protocol.Submit { source; priority; deadline_ms })

let status t id = rpc t (Protocol.Status id)
let result t id = rpc t (Protocol.Result id)

let stats t =
  match rpc t Protocol.Stats with
  | Protocol.Stats_r s -> s
  | r -> raise (Error ("unexpected response to stats: " ^ Protocol.(to_string (encode_response r))))

let drain t =
  match rpc t Protocol.Drain with
  | Protocol.Drained { completed; failed } -> (completed, failed)
  | r -> raise (Error ("unexpected response to drain: " ^ Protocol.(to_string (encode_response r))))

(* Streaming explore: one request, then a sequence of update frames until
   the terminal frame. Any non-update response ends the stream. *)
let explore t ?(on_update = fun _ -> ()) (req : Protocol.request) =
  (match req with
  | Protocol.Explore _ -> ()
  | _ -> invalid_arg "Client.explore: not an explore request");
  (try Protocol.send ~max_len:t.max_frame t.fd (Protocol.encode_request req)
   with Unix.Unix_error (err, _, _) ->
     raise (Error ("send: " ^ Unix.error_message err)));
  let rec next () =
    match Protocol.recv ~max_len:t.max_frame t.fd with
    | exception Protocol.Framing_error msg -> raise (Error ("framing: " ^ msg))
    | exception Protocol.Parse_error msg -> raise (Error ("malformed response: " ^ msg))
    | exception Unix.Unix_error (err, _, _) ->
      raise (Error ("recv: " ^ Unix.error_message err))
    | None -> raise (Error "server closed the connection mid-stream")
    | Some j -> (
      match Protocol.decode_response j with
      | Error msg -> raise (Error ("undecodable response: " ^ msg))
      | Ok (Protocol.Explore_update _ as u) ->
        on_update u;
        next ()
      | Ok resp -> resp)
  in
  next ()

(* Submit and block until terminal; the common client-CLI path. *)
let submit_and_wait t ?priority ?deadline_ms source =
  match submit t ?priority ?deadline_ms source with
  | Protocol.Accepted { id; _ } as acc -> (acc, Some (result t id))
  | other -> (other, None)
