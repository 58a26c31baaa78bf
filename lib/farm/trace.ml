type span = {
  name : string;
  cat : string;
  worker : int;
  t_start : float;
  t_end : float;
  outcome : string;
}

type t = {
  epoch : float;
  lock : Mutex.t;
  mutable recorded : span list;
  counters : (string, int) Hashtbl.t;
}

let create () =
  { epoch = Unix.gettimeofday (); lock = Mutex.create (); recorded = []; counters = Hashtbl.create 16 }

let now t = Unix.gettimeofday () -. t.epoch

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add_span t span = locked t (fun () -> t.recorded <- span :: t.recorded)

let add t name n =
  locked t (fun () ->
      Hashtbl.replace t.counters name (n + Option.value ~default:0 (Hashtbl.find_opt t.counters name)))

let incr t name = add t name 1

let max_gauge t name n =
  locked t (fun () ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt t.counters name) in
      if n > cur then Hashtbl.replace t.counters name n)

let spans t =
  locked t (fun () ->
      List.sort (fun a b -> compare (a.t_start, a.name) (b.t_start, b.name)) t.recorded)

let counters t =
  locked t (fun () ->
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters []))

let phase_seconds t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let d = s.t_end -. s.t_start in
      Hashtbl.replace tbl s.cat (d +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.cat)))
    (spans t);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                             *)
(* ------------------------------------------------------------------ *)

let to_chrome_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char buf ',' in
  List.iter
    (fun s ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"outcome\":\"%s\"}}"
           (Soc_util.Json.escape s.name) (Soc_util.Json.escape s.cat) s.worker (s.t_start *. 1e6)
           ((s.t_end -. s.t_start) *. 1e6)
           (Soc_util.Json.escape s.outcome)))
    (spans t);
  List.iter
    (fun (name, v) ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"value\":%d}}"
           (Soc_util.Json.escape name) v))
    (counters t);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

let save t path = Soc_util.Atomic_io.write_file path (to_chrome_json t)

let counter_table t =
  let tbl =
    Soc_util.Table.create ~title:"farm counters" [ "counter"; "value" ]
      ~aligns:[ Soc_util.Table.Left; Soc_util.Table.Right ]
  in
  List.iter (fun (k, v) -> Soc_util.Table.add_row tbl [ k; string_of_int v ]) (counters t);
  List.iter
    (fun (cat, s) -> Soc_util.Table.add_row tbl [ "seconds." ^ cat; Printf.sprintf "%.3f" s ])
    (phase_seconds t);
  tbl
