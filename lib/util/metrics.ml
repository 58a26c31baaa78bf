(** Source-volume metrics for the paper's Section VI.C conciseness study:
    the generated Tcl is compared against the DSL source in lines and in
    non-whitespace characters. *)

type volume = { lines : int; chars : int; nonblank_lines : int }

let is_blank s =
  let n = String.length s in
  let rec go i = i >= n || ((s.[i] = ' ' || s.[i] = '\t') && go (i + 1)) in
  go 0

let count_nonspace s =
  String.fold_left (fun acc c -> if c = ' ' || c = '\t' || c = '\n' || c = '\r' then acc else acc + 1) 0 s

let of_string text =
  let lines = String.split_on_char '\n' text in
  let lines = match List.rev lines with "" :: rest -> List.rev rest | _ -> lines in
  {
    lines = List.length lines;
    chars = count_nonspace text;
    nonblank_lines = List.length (List.filter (fun l -> not (is_blank l)) lines);
  }

let ratio ~num ~den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let pp_volume fmt v =
  Format.fprintf fmt "%d lines (%d non-blank), %d chars" v.lines v.nonblank_lines v.chars

(* ------------------------------------------------------------------ *)
(* Named event counters                                                *)
(* ------------------------------------------------------------------ *)

(** Small named-counter registry used by runtime subsystems (the fault
    injector's injected/detected/retried/fell_back/unrecovered tallies).
    Counters spring into existence at first increment. *)
module Counters = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let add t name n =
    Hashtbl.replace t name (Option.value ~default:0 (Hashtbl.find_opt t name) + n)

  let incr t name = add t name 1

  let get t name = Option.value ~default:0 (Hashtbl.find_opt t name)

  (* Sorted for deterministic reports. *)
  let to_list t =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])

  let pp fmt t =
    Format.fprintf fmt "%s"
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (to_list t)))
end

(* ------------------------------------------------------------------ *)
(* Latency histograms                                                  *)
(* ------------------------------------------------------------------ *)

(** Fixed log-bucketed histogram for service latencies. Bucket [i] covers
    [(bound (i-1), bound i]] with [bound i = base * ratio^i]; one overflow
    bucket catches everything past the last bound. Quantiles report the
    upper bound of the bucket the rank lands in, so the answer depends
    only on the multiset of observations — never on arrival order or
    timing jitter inside a bucket. Domain-safe (one mutex). *)
module Histogram = struct
  type t = {
    base : float;
    ratio : float;
    counts : int array;  (* length buckets + 1; last = overflow *)
    mutable total : int;
    mutable sum : float;
    lock : Mutex.t;
  }

  let create ?(base = 0.001) ?(ratio = 2.0) ?(buckets = 48) () =
    if base <= 0.0 || ratio <= 1.0 || buckets < 1 then
      invalid_arg "Histogram.create: need base > 0, ratio > 1, buckets >= 1";
    { base; ratio; counts = Array.make (buckets + 1) 0; total = 0; sum = 0.0;
      lock = Mutex.create () }

  let n_buckets t = Array.length t.counts - 1

  (* Upper bound of bucket [i] by iterated multiplication: cheap at <= 48
     buckets and bit-reproducible across platforms (no log/exp). *)
  let bound t i =
    let b = ref t.base in
    for _ = 1 to i do
      b := !b *. t.ratio
    done;
    !b

  let index_of t v =
    let n = n_buckets t in
    let rec go i b = if i >= n then n else if v <= b then i else go (i + 1) (b *. t.ratio) in
    if v <= t.base then 0 else go 0 t.base

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let observe t v =
    locked t (fun () ->
        let i = index_of t v in
        t.counts.(i) <- t.counts.(i) + 1;
        t.total <- t.total + 1;
        t.sum <- t.sum +. v)

  let count t = locked t (fun () -> t.total)
  let sum t = locked t (fun () -> t.sum)
  let mean t = locked t (fun () -> if t.total = 0 then 0.0 else t.sum /. float_of_int t.total)

  (* Rank-based: the upper bound of the bucket holding observation number
     [ceil (q * total)] (1-based). 0.0 on an empty histogram; the overflow
     bucket reports the last finite bound. *)
  let quantile t q =
    locked t (fun () ->
        if t.total = 0 then 0.0
        else begin
          let q = Float.max 0.0 (Float.min 1.0 q) in
          let rank = max 1 (int_of_float (ceil (q *. float_of_int t.total))) in
          let n = n_buckets t in
          let rec go i seen =
            if i > n then bound t (n - 1)
            else
              let seen = seen + t.counts.(i) in
              if seen >= rank then bound t (min i (n - 1)) else go (i + 1) seen
          in
          go 0 0
        end)

  let p50 t = quantile t 0.50
  let p95 t = quantile t 0.95
  let p99 t = quantile t 0.99

  (* Non-empty buckets as (upper bound, count), ascending — deterministic
     given the observations. *)
  let to_list t =
    locked t (fun () ->
        let n = n_buckets t in
        let acc = ref [] in
        for i = n downto 0 do
          if t.counts.(i) > 0 then acc := (bound t (min i (n - 1)), t.counts.(i)) :: !acc
        done;
        !acc)

  let pp fmt t =
    Format.fprintf fmt "n=%d mean=%.6g p50=%.6g p95=%.6g p99=%.6g" (count t) (mean t)
      (p50 t) (p95 t) (p99 t)
end
