(* Shared measurement plumbing: a monotonic clock, sample statistics,
   process CPU and memory readings, the span collector the traced runs
   use, the run's window of operations and sweeps, and the one-line JSON
   result. *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let nproc () = Domain.recommended_domain_count ()

(* Process CPU time (every thread and domain), in seconds. *)
let cpu () = Sys.time ()

(* Peak resident set size in MiB, from the kernel's high-water mark. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | Some line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.0)
        | Some _ -> scan ()
        | None -> failwith "/proc/self/status: no VmHWM line"
      in
      scan ())

(* ---------------- sample statistics ---------------- *)

(* Linear interpolation between closest ranks, as numpy's default. *)
let percentile xs p =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0
let sum xs = List.fold_left ( +. ) 0.0 xs
let isum xs = List.fold_left ( + ) 0 xs

(* ---------------- spans ---------------- *)

(* A traced run records one span per call into a layer's public
   functions, made from the benchmark's own code; [enabled] is flipped
   per sweep so traced and untraced sweeps alternate in one run. *)
module Spans = struct
  type t = {
    lock : Mutex.t;
    mutable enabled : bool;
    totals : (string, float list ref) Hashtbl.t;  (* name -> durations, s *)
  }

  let create () = { lock = Mutex.create (); enabled = false; totals = Hashtbl.create 32 }

  let record t name d =
    Mutex.lock t.lock;
    (match Hashtbl.find_opt t.totals name with
    | Some r -> r := d :: !r
    | None -> Hashtbl.replace t.totals name (ref [ d ]));
    Mutex.unlock t.lock

  let span t name f =
    if not t.enabled then f ()
    else begin
      let t0 = now () in
      Fun.protect ~finally:(fun () -> record t name (now () -. t0)) f
    end

  (* Always-on variant for probes run outside the timed window. *)
  let probe t name f =
    let t0 = now () in
    Fun.protect ~finally:(fun () -> record t name (now () -. t0)) f

  let durations t name =
    match Hashtbl.find_opt t.totals name with Some r -> !r | None -> []

  let median_ms t name = 1000.0 *. median (durations t name)
  let total_ms t name = 1000.0 *. sum (durations t name)
end

(* ---------------- result ---------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Every digit as measured; a non-finite reading (a ratio over an empty
   sample) is reported as 0 rather than as invalid JSON. *)
let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  (* Human-readable lines first; the JSON result is always the last line. *)
  List.iter (fun x -> Printf.printf "%-28s %16.6f %s\n" x.name x.value x.unit_) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_num x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

(* ---------------- scratch directories ---------------- *)

let work_root = ".perfbench-work"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let counter = ref 0

(* A fresh, empty directory under the run's own work directory. *)
let fresh_dir tag =
  incr counter;
  let base = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  (try Unix.mkdir work_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let d = Filename.concat base (Printf.sprintf "%s-%d" tag !counter) in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

let cleanup_work () =
  rm_rf (Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())));
  try Unix.rmdir work_root with Unix.Unix_error _ -> ()

(* ---------------- one run's window ---------------- *)

(* Operations and sweeps of a run, split by whether tracing was on, so a
   traced run can compare its traced sweeps with its untraced ones. Rates
   are medians over complete sweeps: the host's speed varies from second
   to second, and a median over many short sweeps does not follow it.
   Percentiles are medians over blocks of consecutive sweeps, for the same
   reason; a block holds at least [block_samples] latencies, so at least
   ten lie beyond its p95. *)
module Window = struct
  (* [runs]: program sweeps the window's sweep holds (the whole seed
     cycle of explore-rtl; 1 elsewhere). *)
  type sweep = { secs : float; sweep_ops : int; cpu_s : float; runs : int; lat : float list }

  type side = {
    mutable lat_ms : float list;  (* of the sweep in progress *)
    mutable ops : int;
    mutable failed : int;
    mutable pending : int;  (* operations of the sweep in progress *)
    mutable sweeps : sweep list;  (* complete sweeps *)
  }

  (* [warm]: operations of an untimed warm-up sweep — checked and counted
     as attempted, never part of a latency or throughput figure. *)
  (* [rss_mb]: peak resident memory when the first sweep completed. Later
     peaks grow with the number of operations a run manages, so they
     measure the host's speed as much as the program's footprint. *)
  type t = { lock : Mutex.t; plain : side; traced : side; warm : side; mutable rss_mb : float }

  let side () = { lat_ms = []; ops = 0; failed = 0; pending = 0; sweeps = [] }

  let create () =
    { lock = Mutex.create (); plain = side (); traced = side (); warm = side (); rss_mb = 0.0 }
  let pick t ~traced = if traced then t.traced else t.plain

  let warm_op t ~ok =
    Mutex.lock t.lock;
    t.warm.ops <- t.warm.ops + 1;
    if not ok then t.warm.failed <- t.warm.failed + 1;
    Mutex.unlock t.lock

  (* One latency sample covering [n] operations (the designs of a
     build-cold batch; 1 elsewhere). *)
  let op ?(n = 1) t ~traced ~ms ~ok =
    Mutex.lock t.lock;
    let s = pick t ~traced in
    s.lat_ms <- ms :: s.lat_ms;
    s.ops <- s.ops + n;
    s.pending <- s.pending + n;
    if not ok then s.failed <- s.failed + n;
    Mutex.unlock t.lock

  (* Close the sweep in progress; [cpu_s] is the process CPU it took. *)
  let sweep ?(runs = 1) t ~traced ~secs ~cpu_s ~complete =
    let s = pick t ~traced in
    if complete && s.pending > 0 then begin
      s.sweeps <- { secs; sweep_ops = s.pending; cpu_s; runs; lat = s.lat_ms } :: s.sweeps;
      if t.rss_mb = 0.0 then t.rss_mb <- peak_rss_mb ()
    end;
    s.pending <- 0;
    s.lat_ms <- []

  let rate side = median (List.map (fun w -> float_of_int w.sweep_ops /. w.secs) side.sweeps)

  let block_samples = 200

  (* Complete sweeps in order, cut into blocks of at least [block_samples]
     latencies; a short remainder joins the last block. *)
  let blocks side =
    let close cur acc =
      match acc with
      | b :: rest when List.length cur < block_samples -> (cur @ b) :: rest
      | _ -> cur :: acc
    in
    let rec go cur acc = function
      | [] -> if cur = [] then acc else close cur acc
      | w :: rest ->
        let cur = w.lat @ cur in
        if List.length cur >= block_samples then go [] (cur :: acc) rest else go cur acc rest
    in
    go [] [] (List.rev side.sweeps)

  let latency side p = median (List.map (fun b -> percentile b p) (blocks side))
  let samples side = isum (List.map (fun w -> List.length w.lat) side.sweeps)

  let attempted t = t.plain.ops + t.traced.ops + t.warm.ops
  let failed t = t.plain.failed + t.traced.failed + t.warm.failed
end

(* Times one sweep and closes it in the window. *)
let timed_sweep w ~traced f =
  let t0 = now () and c0 = cpu () in
  let complete = f () in
  Window.sweep w ~traced ~secs:(now () -. t0) ~cpu_s:(cpu () -. c0) ~complete

(* The end-to-end metrics, from the untraced side of a window. *)
let e2e ~setup_s ~(w : Window.t) =
  let s = w.Window.plain in
  let sweeps = s.Window.sweeps in
  [ m "setup_s" "s" setup_s;
    m "throughput_ops" "1/s" (Window.rate s);
    m "latency_p50_ms" "ms" (Window.latency s 50.0);
    m "latency_p95_ms" "ms" (Window.latency s 95.0);
    m "sweep_s" "s" (median (List.map (fun x -> x.Window.secs /. float_of_int x.Window.runs) sweeps));
    m "success_rate" "ratio" (1.0 -. (float_of_int s.Window.failed /. float_of_int (max 1 s.Window.ops)));
    m "cpu_ms_per_op" "ms"
      (median (List.map (fun x -> 1000.0 *. x.Window.cpu_s /. float_of_int x.Window.sweep_ops) sweeps));
    m "peak_rss_mb" "MiB" w.Window.rss_mb ]

(* Traced-vs-untraced comparison and the sample counts behind the
   percentiles, for the per-layer output. *)
let overhead (w : Window.t) =
  let p50 side = Window.latency side 50.0 in
  let tput side = Window.rate side in
  let ops = Window.attempted w in
  [ m "latency_samples" "count" (float_of_int (Window.samples w.Window.plain));
    m "mem.rss_growth_kb_per_op" "KiB"
      (1024.0 *. (peak_rss_mb () -. w.Window.rss_mb) /. float_of_int (max 1 ops));
    m "trace.latency_p50_ms" "ms" (p50 w.Window.traced);
    m "trace.untraced_p50_ms" "ms" (p50 w.Window.plain);
    m "trace.overhead_pct" "%" (100.0 *. ((tput w.Window.plain /. tput w.Window.traced) -. 1.0));
    m "error_rate" "ratio" (float_of_int (Window.failed w) /. float_of_int (max 1 ops)) ]

(* Set-up time. One set-up takes a millisecond or less, and its timings
   have a long tail (a journal fsync, a thread that is not scheduled yet:
   up to ten times the median), so [setup_s] is the median of many
   set-ups rather than of a few. The host's speed also shifts for seconds
   at a time (build-cold set-ups run at about 230 or 400 us in stretches
   of one to two seconds), so the set-ups are spread over the run in
   rounds of [per_round]: three rounds when the clock is made, before the
   window, and one after every sweep. Teardowns are not timed. *)
type setup_clock = { round : unit -> unit; setup_s : unit -> float }

let setup_clock ~per_round ~setup ~teardown =
  let times = ref [] in
  let round () =
    for _ = 1 to per_round do
      let v, d = time setup in
      times := d :: !times;
      teardown v
    done
  in
  for _ = 1 to 3 do
    round ()
  done;
  { round; setup_s = (fun () -> median !times) }

(* What a workload hands back: its window, the numbers the end-to-end
   line needs, and the per-layer metrics (computed on demand, after the
   window, so probes never run inside it). *)
type outcome = {
  window : Window.t;
  setup_s : float;
  layers : unit -> metric list;
  teardown : unit -> unit;
}
