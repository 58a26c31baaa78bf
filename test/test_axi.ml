(* Tests for the AXI substrate: FIFO channels, AXI-Lite register files and
   interconnect, DRAM, DMA engines, protocol checker. *)

open Soc_axi

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Fifo                                                                *)
(* ------------------------------------------------------------------ *)

let test_fifo_registered_propagation () =
  let f = Fifo.create ~name:"f" ~capacity:4 in
  Fifo.push f 7;
  check (Alcotest.option Alcotest.int) "not yet visible" None (Fifo.front f);
  Fifo.commit f;
  check (Alcotest.option Alcotest.int) "visible after commit" (Some 7) (Fifo.front f)

let test_fifo_capacity () =
  let f = Fifo.create ~name:"f" ~capacity:2 in
  Fifo.push f 1;
  Fifo.push f 2;
  check Alcotest.bool "full counts staging" false (Fifo.can_push f);
  Fifo.commit f;
  check Alcotest.bool "still full" false (Fifo.can_push f);
  ignore (Fifo.pop f);
  check Alcotest.bool "space after pop" true (Fifo.can_push f)

let test_fifo_order () =
  let f = Fifo.create ~name:"f" ~capacity:8 in
  List.iter (Fifo.push f) [ 1; 2; 3 ];
  Fifo.commit f;
  let a = Fifo.pop f in
  let b = Fifo.pop f in
  let c = Fifo.pop f in
  check (Alcotest.list Alcotest.int) "fifo order" [ 1; 2; 3 ] [ a; b; c ]

let test_fifo_guards () =
  let f = Fifo.create ~name:"f" ~capacity:1 in
  Alcotest.check_raises "pop empty" (Invalid_argument "Fifo.pop: f empty") (fun () ->
      ignore (Fifo.pop f));
  Fifo.push f 1;
  Alcotest.check_raises "push full" (Invalid_argument "Fifo.push: f full") (fun () ->
      Fifo.push f 2)

let test_fifo_high_water () =
  let f = Fifo.create ~name:"f" ~capacity:8 in
  List.iter (Fifo.push f) [ 1; 2; 3; 4 ];
  Fifo.commit f;
  ignore (Fifo.pop f);
  check Alcotest.int "high water" 4 f.Fifo.high_water

(* Every stream producer (a DMA MM2S channel, an accelerator output)
   pushes at most once per cycle, while the consumer pops in the same
   cycle, before or after the push. Occupancy at a push then never
   exceeds the high-water mark, so capacity high_water + 1 never refuses
   one: the bound the explore memo relies on. *)
let test_fifo_push_pop_same_cycle () =
  List.iter
    (fun pop_first ->
      let f = Fifo.create ~name:"f" ~capacity:2 in
      Fifo.push f 0;
      Fifo.commit f;
      let popped = ref [] in
      for v = 1 to 10 do
        if pop_first then popped := Fifo.pop f :: !popped;
        check Alcotest.bool "room for the cycle's push" true (Fifo.can_push f);
        Fifo.push f v;
        if not pop_first then popped := Fifo.pop f :: !popped;
        Fifo.commit f
      done;
      check Alcotest.int "high water" 1 f.Fifo.high_water;
      check (Alcotest.list Alcotest.int) "order" (List.init 10 Fun.id) (List.rev !popped))
    [ true; false ]

let test_fifo_bram_cost () =
  check Alcotest.int "shallow fifo uses LUTRAM" 0
    (Fifo.bram18_cost (Fifo.create ~name:"s" ~capacity:16));
  check Alcotest.bool "deep fifo uses BRAM" true
    (Fifo.bram18_cost (Fifo.create ~name:"d" ~capacity:4096) >= 7)

(* Property: random push/pop/commit sequences conserve beats. *)
let prop_fifo_conservation =
  QCheck.Test.make ~name:"fifo conserves beats" ~count:200
    QCheck.(list (int_bound 2))
    (fun script ->
      let f = Fifo.create ~name:"p" ~capacity:5 in
      List.iter
        (fun action ->
          match action with
          | 0 -> if Fifo.can_push f then Fifo.push f 1
          | 1 -> if not (Fifo.is_empty f) then ignore (Fifo.pop f)
          | _ -> Fifo.commit f)
        script;
      Fifo.conserved f)

(* ------------------------------------------------------------------ *)
(* Dram                                                                *)
(* ------------------------------------------------------------------ *)

let test_dram_rw () =
  let d = Dram.create ~words:64 () in
  Dram.write d 10 0xdead;
  check Alcotest.int "read back" 0xdead (Dram.read d 10)

let test_dram_block_ops () =
  let d = Dram.create ~words:64 () in
  Dram.write_block d ~addr:4 [| 1; 2; 3 |];
  check (Alcotest.list Alcotest.int) "block" [ 1; 2; 3 ]
    (Array.to_list (Dram.read_block d ~addr:4 ~len:3))

let test_dram_bounds () =
  let d = Dram.create ~words:8 () in
  Alcotest.check_raises "oob" (Invalid_argument "Dram.read: address 8 out of range")
    (fun () -> ignore (Dram.read d 8))

let test_dram_burst_cycles () =
  let d = Dram.create ~first_word_latency:10 ~words:64 () in
  check Alcotest.int "zero burst" 0 (Dram.burst_cycles d ~len:0);
  check Alcotest.int "16-beat burst" 26 (Dram.burst_cycles d ~len:16)

(* Paged DRAM against a slow oracle: a flat int array with the same
   contract — word-by-word blocks, 32-bit truncation, per-word counters,
   and the same out-of-range error after the in-range prefix of a block. *)
type dram_op =
  | Rd of int
  | Wr of int * int
  | Rd_block of int * int
  | Wr_block of int * int array

let show_dram_op = function
  | Rd a -> Printf.sprintf "read %d" a
  | Wr (a, v) -> Printf.sprintf "write %d %d" a v
  | Rd_block (a, n) -> Printf.sprintf "read_block %d+%d" a n
  | Wr_block (a, d) -> Printf.sprintf "write_block %d+%d" a (Array.length d)

module Flat_dram = struct
  type t = { words : int array; mutable reads : int; mutable writes : int }

  let create n = { words = Array.make n 0; reads = 0; writes = 0 }

  let check t a op =
    if a < 0 || a >= Array.length t.words then
      invalid_arg (Printf.sprintf "Dram.%s: address %d out of range" op a)

  let read t a = check t a "read"; t.reads <- t.reads + 1; t.words.(a)
  let write t a v = check t a "write"; t.writes <- t.writes + 1; t.words.(a) <- v land 0xFFFF_FFFF
end

let dram_case_gen =
  let open QCheck.Gen in
  let page = Dram.page_words in
  oneofl [ 0; 5; page; (2 * page) + 1; (3 * page) + 17 ] >>= fun size ->
  (* Addresses concentrate where paging can go wrong: page edges, the
     last word, just past the end and below zero. *)
  let addr =
    frequency
      [ (3, int_range 0 (max 0 (size - 1)));
        (3, map2 (fun k d -> (k * page) + d) (int_range 0 3) (int_range (-3) 3));
        (2, map (fun d -> size - 1 - d) (int_range 0 4));
        (1, map (fun d -> size + d) (int_range 0 3));
        (1, int_range (-3) (-1)) ]
  in
  let value = oneof [ int; int_range 0 0xFFFF; return (-1); return 0x1_0000_0000 ] in
  let op =
    frequency
      [ (3, map (fun a -> Rd a) addr);
        (3, map2 (fun a v -> Wr (a, v)) addr value);
        (2, map2 (fun a n -> Rd_block (a, n)) addr (int_range 0 9));
        (2, map2 (fun a d -> Wr_block (a, d)) addr (array_size (int_range 0 9) value)) ]
  in
  pair (return size) (list_size (int_range 1 60) op)

let prop_paged_dram_matches_flat =
  QCheck.Test.make ~name:"paged DRAM = flat array" ~count:300
    (QCheck.make dram_case_gen ~print:(fun (size, ops) ->
         Printf.sprintf "size %d: %s" size (String.concat "; " (List.map show_dram_op ops))))
    (fun (size, ops) ->
      let d = Dram.create ~words:size () and m = Flat_dram.create size in
      let outcome f = match f () with v -> Ok v | exception Invalid_argument e -> Error e in
      let step op =
        let got, want =
          match op with
          | Rd a ->
            (outcome (fun () -> [| Dram.read d a |]), outcome (fun () -> [| Flat_dram.read m a |]))
          | Wr (a, v) ->
            ( outcome (fun () -> Dram.write d a v; [||]),
              outcome (fun () -> Flat_dram.write m a v; [||]) )
          | Rd_block (a, n) ->
            ( outcome (fun () -> Dram.read_block d ~addr:a ~len:n),
              outcome (fun () -> Array.init n (fun i -> Flat_dram.read m (a + i))) )
          | Wr_block (a, data) ->
            ( outcome (fun () -> Dram.write_block d ~addr:a data; [||]),
              outcome (fun () -> Array.iteri (fun i v -> Flat_dram.write m (a + i) v) data; [||]) )
        in
        got = want && Dram.reads d = m.Flat_dram.reads && Dram.writes d = m.Flat_dram.writes
      in
      List.for_all step ops
      && Dram.size d = size
      && Dram.read_block d ~addr:0 ~len:size = m.Flat_dram.words)

(* ------------------------------------------------------------------ *)
(* AXI-Lite                                                            *)
(* ------------------------------------------------------------------ *)

let test_lite_attach_and_decode () =
  let ic = Lite.create_interconnect () in
  let a = Lite.attach ic ~owner:"a" ~size:0x1000 in
  let b = Lite.attach ic ~owner:"b" ~size:0x1000 in
  check Alcotest.bool "64KiB aligned" true (b.Lite.base - a.Lite.base >= 0x1_0000);
  (match Lite.decode ic (a.Lite.base + 0x10) with
  | Ok (rf, off) ->
    check Alcotest.string "owner" "a" rf.Lite.owner;
    check Alcotest.int "offset" 0x10 off
  | Error _ -> Alcotest.fail "decode failed")

let test_lite_decode_error () =
  let ic = Lite.create_interconnect () in
  match Lite.decode ic 0x100 with
  | Error (Lite.No_slave 0x100) -> ()
  | _ -> Alcotest.fail "expected no slave"

let test_lite_bus_rw () =
  let ic = Lite.create_interconnect () in
  let rf = Lite.attach ic ~owner:"x" ~size:0x1000 in
  (match Lite.bus_write ic (rf.Lite.base + Lite.arg_offset 0) 55 with
  | Ok lat -> check Alcotest.int "write latency" Lite.write_latency lat
  | Error _ -> Alcotest.fail "write failed");
  match Lite.bus_read ic (rf.Lite.base + Lite.arg_offset 0) with
  | Ok (v, lat) ->
    check Alcotest.int "read value" 55 v;
    check Alcotest.int "read latency" Lite.read_latency lat
  | Error _ -> Alcotest.fail "read failed"

let test_lite_peek_does_not_count () =
  let ic = Lite.create_interconnect () in
  let rf = Lite.attach ic ~owner:"x" ~size:0x1000 in
  Lite.rf_poke rf ~offset:0 7;
  ignore (Lite.rf_peek rf ~offset:0);
  check Alcotest.int "no bus transactions" 0 rf.Lite.reads

let test_lite_address_map () =
  let ic = Lite.create_interconnect () in
  ignore (Lite.attach ic ~owner:"a" ~size:0x1000);
  ignore (Lite.attach ic ~owner:"b" ~size:0x1000);
  let map = Lite.address_map ic in
  check Alcotest.int "two segments" 2 (List.length map);
  check Alcotest.string "first owner" "a" (match map with (o, _, _) :: _ -> o | [] -> "")

(* ------------------------------------------------------------------ *)
(* DMA                                                                 *)
(* ------------------------------------------------------------------ *)

let run_mm2s_to_completion dma fifo collect =
  let guard = ref 0 in
  while (not (Dma.mm2s_idle dma)) && !guard < 100_000 do
    Dma.step_mm2s dma;
    Fifo.commit fifo;
    while not (Fifo.is_empty fifo) do
      collect (Fifo.pop fifo)
    done;
    incr guard
  done

let test_mm2s_streams_buffer () =
  let dram = Dram.create ~words:256 () in
  Dram.write_block dram ~addr:8 (Array.init 40 (fun i -> i * 2));
  let fifo = Fifo.create ~name:"f" ~capacity:8 in
  let dma = Dma.create_mm2s ~name:"m" ~dram ~dest:fifo in
  Dma.start_mm2s dma ~addr:8 ~len:40;
  let out = ref [] in
  run_mm2s_to_completion dma fifo (fun v -> out := v :: !out);
  check (Alcotest.list Alcotest.int) "all beats in order"
    (List.init 40 (fun i -> i * 2))
    (List.rev !out)

let test_mm2s_respects_backpressure () =
  let dram = Dram.create ~words:64 () in
  Dram.write_block dram ~addr:0 (Array.init 10 Fun.id);
  let fifo = Fifo.create ~name:"f" ~capacity:2 in
  let dma = Dma.create_mm2s ~name:"m" ~dram ~dest:fifo in
  Dma.start_mm2s dma ~addr:0 ~len:10;
  (* Never drain: DMA must stall, not overflow. *)
  for _ = 1 to 1000 do
    Dma.step_mm2s dma;
    Fifo.commit fifo
  done;
  check Alcotest.bool "not idle (stalled)" false (Dma.mm2s_idle dma);
  check Alcotest.int "fifo at capacity" 2 (Fifo.occupancy fifo);
  check Alcotest.bool "conserved" true (Fifo.conserved fifo)

let test_s2mm_writes_dram () =
  let dram = Dram.create ~words:256 () in
  let fifo = Fifo.create ~name:"f" ~capacity:64 in
  let dma = Dma.create_s2mm ~name:"s" ~dram ~src:fifo in
  (* supply all beats *)
  List.iter (fun v -> Fifo.push fifo v) (List.init 20 (fun i -> 100 + i));
  Fifo.commit fifo;
  Dma.start_s2mm dma ~addr:32 ~len:20;
  let guard = ref 0 in
  while (not (Dma.s2mm_idle dma)) && !guard < 100_000 do
    Dma.step_s2mm dma;
    Fifo.commit fifo;
    incr guard
  done;
  check (Alcotest.list Alcotest.int) "landed in DRAM"
    (List.init 20 (fun i -> 100 + i))
    (Array.to_list (Dram.read_block dram ~addr:32 ~len:20))

let test_dma_double_start_rejected () =
  let dram = Dram.create ~words:64 () in
  let fifo = Fifo.create ~name:"f" ~capacity:4 in
  let dma = Dma.create_mm2s ~name:"m" ~dram ~dest:fifo in
  Dma.start_mm2s dma ~addr:0 ~len:8;
  Alcotest.check_raises "busy" (Invalid_argument "m: MM2S already busy") (fun () ->
      Dma.start_mm2s dma ~addr:0 ~len:8)

let test_dma_zero_length_is_noop () =
  let dram = Dram.create ~words:64 () in
  let fifo = Fifo.create ~name:"f" ~capacity:4 in
  let dma = Dma.create_mm2s ~name:"m" ~dram ~dest:fifo in
  Dma.start_mm2s dma ~addr:0 ~len:0;
  check Alcotest.bool "immediately idle" true (Dma.mm2s_idle dma)

let test_dma_negative_length_rejected () =
  let dram = Dram.create ~words:64 () in
  let dest = Fifo.create ~name:"f" ~capacity:4 in
  let src = Fifo.create ~name:"g" ~capacity:4 in
  let m = Dma.create_mm2s ~name:"m" ~dram ~dest in
  let s = Dma.create_s2mm ~name:"s" ~dram ~src in
  Alcotest.check_raises "mm2s negative" (Invalid_argument "m: negative length") (fun () ->
      Dma.start_mm2s m ~addr:0 ~len:(-1));
  Alcotest.check_raises "s2mm negative" (Invalid_argument "s: negative length") (fun () ->
      Dma.start_s2mm s ~addr:0 ~len:(-4))

let test_dma_s2mm_double_start_rejected () =
  let dram = Dram.create ~words:64 () in
  let src = Fifo.create ~name:"g" ~capacity:4 in
  let s = Dma.create_s2mm ~name:"s" ~dram ~src in
  Dma.start_s2mm s ~addr:0 ~len:8;
  Alcotest.check_raises "busy" (Invalid_argument "s: S2MM already busy") (fun () ->
      Dma.start_s2mm s ~addr:0 ~len:8)

let test_dma_error_injection () =
  let dram = Dram.create ~words:64 () in
  let dest = Fifo.create ~name:"f" ~capacity:16 in
  let dma = Dma.create_mm2s ~name:"m" ~dram ~dest in
  Dma.start_mm2s dma ~addr:0 ~len:8;
  Dma.inject_error_mm2s dma;
  check Alcotest.bool "aborted to idle" true (Dma.mm2s_idle dma);
  check Alcotest.bool "error latched" false (Dma.mm2s_ok dma);
  (* Per-descriptor status: programming the next descriptor clears it. *)
  Dma.start_mm2s dma ~addr:0 ~len:0;
  check Alcotest.bool "cleared by next start" true (Dma.mm2s_ok dma)

let test_dma_stall_injection () =
  let dram = Dram.create ~words:64 () in
  Dram.write_block dram ~addr:0 [| 1; 2; 3; 4 |];
  let dest = Fifo.create ~name:"f" ~capacity:16 in
  let dma = Dma.create_mm2s ~name:"m" ~dram ~dest in
  Dma.start_mm2s dma ~addr:0 ~len:4;
  let run_to_idle () =
    let n = ref 0 in
    while not (Dma.mm2s_idle dma) do
      Dma.step_mm2s dma;
      Fifo.commit dest;
      incr n
    done;
    !n
  in
  let baseline = run_to_idle () in
  let dma2 = Dma.create_mm2s ~name:"m2" ~dram ~dest in
  Dma.start_mm2s dma2 ~addr:0 ~len:4;
  Dma.inject_stall_mm2s dma2 ~cycles:25;
  let n = ref 0 in
  while not (Dma.mm2s_idle dma2) do
    Dma.step_mm2s dma2;
    Fifo.commit dest;
    incr n
  done;
  check Alcotest.int "stall delays completion by its length" (baseline + 25) !n

let test_fifo_stuck_injection () =
  let f = Fifo.create ~name:"f" ~capacity:4 in
  Fifo.inject_stuck f ~cycles:2;
  check Alcotest.bool "stuck refuses push" false (Fifo.can_push f);
  Fifo.commit f;
  check Alcotest.bool "still stuck" false (Fifo.can_push f);
  Fifo.commit f;
  check Alcotest.bool "self-heals after duration" true (Fifo.can_push f);
  Fifo.push f 1;
  check Alcotest.bool "conserved" true (Fifo.conserved f)

let test_fifo_flush_accounts_drops () =
  let f = Fifo.create ~name:"f" ~capacity:8 in
  List.iter (Fifo.push f) [ 1; 2; 3 ];
  Fifo.commit f;
  Fifo.push f 4 (* staged, not yet visible *);
  Fifo.flush f;
  check Alcotest.int "empty after flush" 0 (Fifo.occupancy f);
  check Alcotest.int "drops accounted" 4 f.Fifo.total_dropped;
  check Alcotest.bool "conserved" true (Fifo.conserved f)

let test_lite_slave_error_injection () =
  let ic = Lite.create_interconnect () in
  let rf = Lite.attach ic ~owner:"acc" ~size:0x100 in
  Lite.rf_poke rf ~offset:0x10 7;
  check Alcotest.bool "unknown owner rejected" false
    (Lite.inject_slave_error ic ~owner:"nope" ~count:1);
  check Alcotest.bool "known owner accepted" true
    (Lite.inject_slave_error ic ~owner:"acc" ~count:2);
  let addr = Lite.gp0_base + 0x10 in
  (match Lite.bus_read ic addr with
  | Error (Lite.Slave_error a) -> check Alcotest.int "slverr address" addr a
  | _ -> Alcotest.fail "expected SLVERR");
  (match Lite.bus_write ic addr 9 with
  | Error (Lite.Slave_error _) -> ()
  | _ -> Alcotest.fail "expected second SLVERR");
  (* Budget exhausted: the slave answers normally again. *)
  match Lite.bus_read ic addr with
  | Ok (v, _) -> check Alcotest.int "recovered read" 7 v
  | Error _ -> Alcotest.fail "expected clean read after budget drained"

let test_dma_resource_cost_scales () =
  let l1, f1, b1 = Dma.resource_cost ~channels:1 in
  let l2, f2, b2 = Dma.resource_cost ~channels:2 in
  check Alcotest.bool "lut grows" true (l2 > l1);
  check Alcotest.bool "ff grows" true (f2 > f1);
  check Alcotest.bool "bram grows" true (b2 > b1)

(* Property: MM2S then S2MM round-trip equals memcpy for random data. *)
let prop_dma_roundtrip_is_memcpy =
  QCheck.Test.make ~name:"MM2S->S2MM roundtrip = memcpy" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 70) (int_bound 0xFFFFFF))
    (fun data ->
      let n = List.length data in
      let dram = Dram.create ~words:1024 () in
      Dram.write_block dram ~addr:0 (Array.of_list data);
      let fifo = Fifo.create ~name:"pipe" ~capacity:16 in
      let src = Dma.create_mm2s ~name:"m" ~dram ~dest:fifo in
      let dst = Dma.create_s2mm ~name:"s" ~dram ~src:fifo in
      Dma.start_mm2s src ~addr:0 ~len:n;
      Dma.start_s2mm dst ~addr:512 ~len:n;
      let guard = ref 0 in
      while ((not (Dma.mm2s_idle src)) || not (Dma.s2mm_idle dst)) && !guard < 200_000 do
        Dma.step_mm2s src;
        Dma.step_s2mm dst;
        Fifo.commit fifo;
        incr guard
      done;
      Dma.s2mm_idle dst
      && Array.to_list (Dram.read_block dram ~addr:512 ~len:n) = data)

(* ------------------------------------------------------------------ *)
(* Protocol checker                                                    *)
(* ------------------------------------------------------------------ *)

let test_rules_clean_handshake () =
  let m = Stream_rules.create "ch" in
  Stream_rules.observe m ~tvalid:true ~tdata:5 ~tready:false;
  Stream_rules.observe m ~tvalid:true ~tdata:5 ~tready:true;
  check (Alcotest.list Alcotest.bool) "no violations" []
    (List.map (fun _ -> true) (Stream_rules.violations m));
  check Alcotest.int "one handshake" 1 (Stream_rules.handshakes m)

let test_rules_data_change_detected () =
  let m = Stream_rules.create "ch" in
  Stream_rules.observe m ~tvalid:true ~tdata:5 ~tready:false;
  Stream_rules.observe m ~tvalid:true ~tdata:6 ~tready:true;
  check Alcotest.bool "violation" true
    (List.exists
       (function Stream_rules.Data_changed _ -> true | _ -> false)
       (Stream_rules.violations m))

let test_rules_valid_drop_detected () =
  let m = Stream_rules.create "ch" in
  Stream_rules.observe m ~tvalid:true ~tdata:5 ~tready:false;
  Stream_rules.observe m ~tvalid:false ~tdata:0 ~tready:false;
  check Alcotest.bool "violation" true
    (List.exists
       (function Stream_rules.Valid_dropped _ -> true | _ -> false)
       (Stream_rules.violations m))

let suite =
  [
    ("fifo registered propagation", `Quick, test_fifo_registered_propagation);
    ("fifo capacity includes staging", `Quick, test_fifo_capacity);
    ("fifo order", `Quick, test_fifo_order);
    ("fifo guards", `Quick, test_fifo_guards);
    ("fifo high-water", `Quick, test_fifo_high_water);
    ("fifo push and pop in one cycle", `Quick, test_fifo_push_pop_same_cycle);
    ("fifo bram cost", `Quick, test_fifo_bram_cost);
    ("dram read/write", `Quick, test_dram_rw);
    ("dram block ops", `Quick, test_dram_block_ops);
    ("dram bounds", `Quick, test_dram_bounds);
    ("dram burst cycles", `Quick, test_dram_burst_cycles);
    qtest prop_paged_dram_matches_flat;
    ("lite attach/decode", `Quick, test_lite_attach_and_decode);
    ("lite decode error", `Quick, test_lite_decode_error);
    ("lite bus read/write", `Quick, test_lite_bus_rw);
    ("lite peek is free", `Quick, test_lite_peek_does_not_count);
    ("lite address map", `Quick, test_lite_address_map);
    ("mm2s streams a buffer", `Quick, test_mm2s_streams_buffer);
    ("mm2s respects backpressure", `Quick, test_mm2s_respects_backpressure);
    ("s2mm writes dram", `Quick, test_s2mm_writes_dram);
    ("dma double start rejected", `Quick, test_dma_double_start_rejected);
    ("dma s2mm double start rejected", `Quick, test_dma_s2mm_double_start_rejected);
    ("dma negative length rejected", `Quick, test_dma_negative_length_rejected);
    ("dma zero-length noop", `Quick, test_dma_zero_length_is_noop);
    ("dma error injection", `Quick, test_dma_error_injection);
    ("dma stall injection", `Quick, test_dma_stall_injection);
    ("fifo stuck-full injection", `Quick, test_fifo_stuck_injection);
    ("fifo flush accounts drops", `Quick, test_fifo_flush_accounts_drops);
    ("lite slave error injection", `Quick, test_lite_slave_error_injection);
    ("dma resource cost scales", `Quick, test_dma_resource_cost_scales);
    ("rules: clean handshake", `Quick, test_rules_clean_handshake);
    ("rules: data change", `Quick, test_rules_data_change_detected);
    ("rules: valid drop", `Quick, test_rules_valid_drop_detected);
    qtest prop_fifo_conservation;
    qtest prop_dma_roundtrip_is_memcpy;
  ]
