(* Unit and property tests for Soc_util: fixed-width arithmetic, metrics,
   deterministic RNG, table/dot rendering. *)

open Soc_util

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Bits                                                                *)
(* ------------------------------------------------------------------ *)

let test_mask () =
  check Alcotest.int "mask 1" 1 (Bits.mask 1);
  check Alcotest.int "mask 8" 255 (Bits.mask 8);
  check Alcotest.int "mask 32" 0xFFFFFFFF (Bits.mask 32)

let test_mask_invalid () =
  Alcotest.check_raises "width 0" (Invalid_argument "Bits.mask: width must be in 1..32")
    (fun () -> ignore (Bits.mask 0));
  Alcotest.check_raises "width 33" (Invalid_argument "Bits.mask: width must be in 1..32")
    (fun () -> ignore (Bits.mask 33))

let test_signed_roundtrip () =
  check Alcotest.int "-1 in 8 bits" 255 (Bits.of_signed ~width:8 (-1));
  check Alcotest.int "255 as signed 8" (-1) (Bits.to_signed ~width:8 255);
  check Alcotest.int "127 as signed 8" 127 (Bits.to_signed ~width:8 127);
  check Alcotest.int "128 as signed 8" (-128) (Bits.to_signed ~width:8 128)

let test_wrapping_add () =
  check Alcotest.int "8-bit wrap" 0 (Bits.add ~width:8 255 1);
  check Alcotest.int "32-bit wrap" 0 (Bits.add ~width:32 0xFFFFFFFF 1);
  check Alcotest.int "sub wrap" 255 (Bits.sub ~width:8 0 1)

let test_div_by_zero () =
  check Alcotest.int "udiv by 0 = all ones" 255 (Bits.udiv ~width:8 7 0);
  check Alcotest.int "urem by 0 = numerator" 7 (Bits.urem ~width:8 7 0);
  check Alcotest.int "sdiv by 0 = all ones" (Bits.mask 32) (Bits.sdiv ~width:32 7 0)

let test_shifts () =
  check Alcotest.int "shl" 8 (Bits.shl ~width:8 1 3);
  check Alcotest.int "shl overflow" 0 (Bits.shl ~width:8 1 8);
  check Alcotest.int "lshr" 1 (Bits.lshr ~width:8 8 3);
  check Alcotest.int "ashr sign" 255 (Bits.ashr ~width:8 0x80 7);
  check Alcotest.int "ashr positive" 0x20 (Bits.ashr ~width:8 0x40 1)

let test_comparisons () =
  check Alcotest.bool "ult" true (Bits.ult ~width:8 3 200);
  check Alcotest.bool "slt wrapped" true (Bits.slt ~width:8 200 3)
  (* 200 = -56 signed *)

let test_address_width () =
  check Alcotest.int "1 value" 1 (Bits.address_width 1);
  check Alcotest.int "2 values" 1 (Bits.address_width 2);
  check Alcotest.int "3 values" 2 (Bits.address_width 3);
  check Alcotest.int "256 values" 8 (Bits.address_width 256);
  check Alcotest.int "257 values" 9 (Bits.address_width 257)

(* Property: our 32-bit ops agree with Int64 arithmetic truncated. *)
let int32_pair = QCheck.pair (QCheck.int_bound 0x3FFFFFFF) (QCheck.int_bound 0x3FFFFFFF)

let prop_add_matches_int64 =
  QCheck.Test.make ~name:"Bits.add agrees with Int64" ~count:500 int32_pair (fun (a, b) ->
      let expect =
        Int64.to_int (Int64.logand (Int64.add (Int64.of_int a) (Int64.of_int b)) 0xFFFFFFFFL)
      in
      Bits.add ~width:32 a b = expect)

let prop_mul_matches_int64 =
  QCheck.Test.make ~name:"Bits.mul agrees with Int64" ~count:500 int32_pair (fun (a, b) ->
      let expect =
        Int64.to_int (Int64.logand (Int64.mul (Int64.of_int a) (Int64.of_int b)) 0xFFFFFFFFL)
      in
      Bits.mul ~width:32 a b = expect)

let prop_signed_involution =
  QCheck.Test.make ~name:"of_signed (to_signed v) = v" ~count:500
    (QCheck.int_bound 0xFFFF) (fun v ->
      Bits.of_signed ~width:16 (Bits.to_signed ~width:16 v) = v)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_basic () =
  let m = Metrics.of_string "a b\n\n  \ncd\n" in
  check Alcotest.int "lines" 4 m.Metrics.lines;
  check Alcotest.int "non-blank" 2 m.Metrics.nonblank_lines;
  check Alcotest.int "chars" 4 m.Metrics.chars

let test_metrics_empty () =
  let m = Metrics.of_string "" in
  check Alcotest.int "lines" 0 m.Metrics.lines;
  check Alcotest.int "chars" 0 m.Metrics.chars

let test_metrics_no_trailing_newline () =
  let m = Metrics.of_string "one\ntwo" in
  check Alcotest.int "lines" 2 m.Metrics.lines

let test_ratio () =
  check (Alcotest.float 0.001) "ratio" 2.5 (Metrics.ratio ~num:5 ~den:2);
  check (Alcotest.float 0.001) "ratio by zero" 0.0 (Metrics.ratio ~num:5 ~den:0)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  check (Alcotest.list Alcotest.int) "same seed, same sequence" xs ys

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done

let test_rng_copy_independent () =
  let a = Rng.create 11 in
  ignore (Rng.int a 100);
  let b = Rng.copy a in
  let xa = Rng.int a 1000 and xb = Rng.int b 1000 in
  check Alcotest.int "copy continues identically" xa xb

let test_rng_float_range () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_rng_choose () =
  let r = Rng.create 1 in
  let l = [ 1; 2; 3 ] in
  for _ = 1 to 50 do
    if not (List.mem (Rng.choose r l) l) then Alcotest.fail "choose out of list"
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty list") (fun () ->
      ignore (Rng.choose r []))

let test_rng_shuffle_permutation () =
  let r = Rng.create 9 in
  let arr = Array.init 30 Fun.id in
  let s = Rng.shuffle r arr in
  check
    (Alcotest.list Alcotest.int)
    "same multiset"
    (List.sort compare (Array.to_list s))
    (Array.to_list arr)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~title:"T" [ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  check Alcotest.bool "contains title" true (String.length s > 0 && s.[0] = 'T');
  check Alcotest.bool "contains data"
    true
    (Tstr.contains s "333")

let test_table_alignment () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] ~title:"" [ "x"; "y" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "bb"; "22" ];
  let s = Table.render t in
  check Alcotest.bool "right-aligned short value" true
    (Tstr.contains s "|  1 |")

let test_table_missing_cells () =
  let t = Table.create ~title:"" [ "a"; "b"; "c" ] in
  Table.add_row t [ "1" ];
  let s = Table.render t in
  check Alcotest.bool "renders" true (String.length s > 0)

(* ------------------------------------------------------------------ *)
(* Dot                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dot_render () =
  let d = Dot.create "g" in
  Dot.add_node d ~id:"a b" ~label:"A \"quoted\"";
  Dot.add_node d ~id:"c" ~label:"C";
  Dot.add_edge d ~src:"a b" ~dst:"c";
  Dot.add_cluster d ~id:"k" ~label:"cl" [ "c" ];
  let s = Dot.render d in
  check Alcotest.bool "sanitized id" true (Tstr.contains s "a_b");
  check Alcotest.bool "escaped quote" true (Tstr.contains s "\\\"quoted\\\"");
  check Alcotest.bool "cluster" true (Tstr.contains s "subgraph cluster_k");
  check Alcotest.bool "edge" true (Tstr.contains s "a_b -> c")

let test_counters () =
  let c = Metrics.Counters.create () in
  check Alcotest.int "absent is zero" 0 (Metrics.Counters.get c "injected");
  Metrics.Counters.incr c "injected";
  Metrics.Counters.incr c "injected";
  Metrics.Counters.add c "detected" 3;
  check Alcotest.int "incr" 2 (Metrics.Counters.get c "injected");
  check Alcotest.int "add" 3 (Metrics.Counters.get c "detected");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "sorted listing"
    [ ("detected", 3); ("injected", 2) ]
    (Metrics.Counters.to_list c);
  check Alcotest.string "rendering" "detected=3 injected=2"
    (Format.asprintf "%a" Metrics.Counters.pp c)

(* With base 1 and ratio 2 over 4 buckets, upper bounds are 1, 2, 4, 8
   and anything past 8 lands in the overflow bucket (reported as 8). *)
let small_hist () = Metrics.Histogram.create ~base:1.0 ~ratio:2.0 ~buckets:4 ()

let test_histogram_quantiles () =
  let hst = small_hist () in
  List.iter (Metrics.Histogram.observe hst) [ 0.5; 1.5; 3.0; 6.0 ];
  check Alcotest.int "count" 4 (Metrics.Histogram.count hst);
  check (Alcotest.float 1e-9) "sum" 11.0 (Metrics.Histogram.sum hst);
  check (Alcotest.float 1e-9) "mean" 2.75 (Metrics.Histogram.mean hst);
  check (Alcotest.float 1e-9) "q0.25 = first bucket bound" 1.0
    (Metrics.Histogram.quantile hst 0.25);
  check (Alcotest.float 1e-9) "p50" 2.0 (Metrics.Histogram.p50 hst);
  check (Alcotest.float 1e-9) "p95" 8.0 (Metrics.Histogram.p95 hst);
  check (Alcotest.float 1e-9) "p99" 8.0 (Metrics.Histogram.p99 hst)

let test_histogram_empty_and_overflow () =
  let hst = small_hist () in
  check (Alcotest.float 1e-9) "empty p50 is 0" 0.0 (Metrics.Histogram.p50 hst);
  check Alcotest.int "empty count" 0 (Metrics.Histogram.count hst);
  Metrics.Histogram.observe hst 1000.0;
  (* The overflow bucket reports the last finite bound, never infinity. *)
  check (Alcotest.float 1e-9) "overflow quantile" 8.0 (Metrics.Histogram.quantile hst 1.0)

let test_histogram_to_list_deterministic () =
  let hst = small_hist () in
  List.iter (Metrics.Histogram.observe hst) [ 6.0; 0.5; 3.0; 1.5; 100.0 ];
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) Alcotest.int))
    "non-empty buckets ascending"
    [ (1.0, 1); (2.0, 1); (4.0, 1); (8.0, 1); (8.0, 1) ]
    (Metrics.Histogram.to_list hst);
  check Alcotest.string "pp renders the quantiles" "n=5 mean=22.2 p50=4 p95=8 p99=8"
    (Format.asprintf "%a" Metrics.Histogram.pp hst)

let test_histogram_validation () =
  List.iter
    (fun f ->
      check Alcotest.bool "invalid config rejected" true
        (match f () with exception Invalid_argument _ -> true | _ -> false))
    [ (fun () -> Metrics.Histogram.create ~base:0.0 ());
      (fun () -> Metrics.Histogram.create ~ratio:1.0 ());
      (fun () -> Metrics.Histogram.create ~buckets:0 ()) ]

let prop_histogram_quantiles_monotone =
  QCheck.Test.make ~name:"histogram quantiles are monotone in q" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (QCheck.float_range 0.0 1e6))
    (fun xs ->
      let hst = Metrics.Histogram.create () in
      List.iter (Metrics.Histogram.observe hst) xs;
      Metrics.Histogram.count hst = List.length xs
      && Metrics.Histogram.p50 hst <= Metrics.Histogram.p95 hst
      && Metrics.Histogram.p95 hst <= Metrics.Histogram.p99 hst)

let suite =
  [
    ("mask widths", `Quick, test_mask);
    ("mask rejects bad widths", `Quick, test_mask_invalid);
    ("signed round-trip", `Quick, test_signed_roundtrip);
    ("wrapping add/sub", `Quick, test_wrapping_add);
    ("division by zero semantics", `Quick, test_div_by_zero);
    ("shifts", `Quick, test_shifts);
    ("signed vs unsigned comparison", `Quick, test_comparisons);
    ("address_width", `Quick, test_address_width);
    ("metrics counts", `Quick, test_metrics_basic);
    ("metrics empty", `Quick, test_metrics_empty);
    ("metrics trailing newline", `Quick, test_metrics_no_trailing_newline);
    ("metrics ratio", `Quick, test_ratio);
    ("metrics counters", `Quick, test_counters);
    ("histogram quantiles", `Quick, test_histogram_quantiles);
    ("histogram empty and overflow", `Quick, test_histogram_empty_and_overflow);
    ("histogram deterministic listing", `Quick, test_histogram_to_list_deterministic);
    ("histogram validation", `Quick, test_histogram_validation);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng copy", `Quick, test_rng_copy_independent);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng choose", `Quick, test_rng_choose);
    ("rng shuffle permutes", `Quick, test_rng_shuffle_permutation);
    ("table render", `Quick, test_table_render);
    ("table alignment", `Quick, test_table_alignment);
    ("table ragged rows", `Quick, test_table_missing_cells);
    ("dot render", `Quick, test_dot_render);
    qtest prop_add_matches_int64;
    qtest prop_mul_matches_int64;
    qtest prop_signed_involution;
    qtest prop_histogram_quantiles_monotone;
  ]
