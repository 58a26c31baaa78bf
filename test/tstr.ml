(* Tiny helpers shared by the test suites: string search, polling, and
   raw TCP for the wire-abuse tests. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else begin
    let found = ref false in
    for i = 0 to nh - nn do
      if (not !found) && String.sub haystack i nn = needle then found := true
    done;
    !found
  end

let count_lines s =
  List.length (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s))

(* Poll [p] every 10 ms for up to [for_s] seconds of real time. *)
let eventually ?(for_s = 5.0) p =
  let deadline = Unix.gettimeofday () +. for_s in
  let rec go () =
    if p () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* Raw TCP, bypassing the client framing. *)
let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  fd

let raw_send fd s =
  let b = Bytes.of_string s in
  try ignore (Unix.write fd b 0 (Bytes.length b)) with Unix.Unix_error _ -> ()

let raw_close fd = try Unix.close fd with Unix.Unix_error _ -> ()
