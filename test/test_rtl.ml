(* Tests for the RTL netlist IR and the cycle simulator. *)

module N = Soc_rtl.Netlist
module Sim = Soc_rtl.Sim
open Soc_kernel.Ast

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Combinational logic                                                 *)
(* ------------------------------------------------------------------ *)

let test_comb_adder () =
  let net = N.create "adder" in
  let a = N.input net ~name:"a" ~width:32 in
  let b = N.input net ~name:"b" ~width:32 in
  let s = N.output net ~name:"s" ~width:32 in
  N.assign net s (N.Bin (Add, N.Ref a, N.Ref b));
  let sim = Sim.create net in
  Sim.set_input sim a 41;
  Sim.set_input sim b 1;
  Sim.settle sim;
  check Alcotest.int "41+1" 42 (Sim.value sim s)

let test_comb_chain_order_independent () =
  (* y depends on x; declare y's assignment first to exercise the topo
     sort. *)
  let net = N.create "chain" in
  let a = N.input net ~name:"a" ~width:32 in
  let x = N.fresh net ~name:"x" ~width:32 in
  let y = N.output net ~name:"y" ~width:32 in
  N.assign net y (N.Bin (Mul, N.Ref x, N.Const (3, 32)));
  N.assign net x (N.Bin (Add, N.Ref a, N.Const (1, 32)));
  let sim = Sim.create net in
  Sim.set_input sim a 9;
  Sim.settle sim;
  check Alcotest.int "(9+1)*3" 30 (Sim.value sim y)

let test_comb_cycle_rejected () =
  let net = N.create "loop" in
  let x = N.fresh net ~name:"x" ~width:8 in
  let y = N.fresh net ~name:"y" ~width:8 in
  N.assign net x (N.Bin (Add, N.Ref y, N.Const (1, 8)));
  N.assign net y (N.Bin (Add, N.Ref x, N.Const (1, 8)));
  match Sim.create net with
  | exception Sim.Combinational_cycle _ -> ()
  | _ -> Alcotest.fail "expected combinational cycle"

let test_width_masking () =
  let net = N.create "mask" in
  let a = N.input net ~name:"a" ~width:32 in
  let o = N.output net ~name:"o" ~width:8 in
  N.assign net o (N.Ref a);
  let sim = Sim.create net in
  Sim.set_input sim a 0x1FF;
  Sim.settle sim;
  check Alcotest.int "truncated to 8 bits" 0xFF (Sim.value sim o)

let test_mux () =
  let net = N.create "mux" in
  let sel = N.input net ~name:"sel" ~width:1 in
  let o = N.output net ~name:"o" ~width:32 in
  N.assign net o (N.Mux (N.Ref sel, N.Const (10, 32), N.Const (20, 32)));
  let sim = Sim.create net in
  Sim.set_input sim sel 1;
  Sim.settle sim;
  check Alcotest.int "sel=1" 10 (Sim.value sim o);
  Sim.set_input sim sel 0;
  Sim.settle sim;
  check Alcotest.int "sel=0" 20 (Sim.value sim o)

(* ------------------------------------------------------------------ *)
(* Registers                                                           *)
(* ------------------------------------------------------------------ *)

let test_counter () =
  let net = N.create "counter" in
  let q = N.register net ~name:"q" ~width:8 (fun q -> N.Bin (Add, N.Ref q, N.Const (1, 8))) in
  let o = N.output net ~name:"o" ~width:8 in
  N.assign net o (N.Ref q);
  let sim = Sim.create net in
  for _ = 1 to 5 do
    Sim.settle sim;
    Sim.tick sim
  done;
  Sim.settle sim;
  check Alcotest.int "counted to 5" 5 (Sim.value sim o)

let test_counter_wraps () =
  let net = N.create "counter8" in
  let q = N.register net ~name:"q" ~width:4 (fun q -> N.Bin (Add, N.Ref q, N.Const (1, 4))) in
  let sim = Sim.create net in
  for _ = 1 to 20 do
    Sim.settle sim;
    Sim.tick sim
  done;
  check Alcotest.int "4-bit wrap: 20 mod 16" 4 (Sim.value sim q)

let test_register_enable () =
  let net = N.create "en" in
  let en = N.input net ~name:"en" ~width:1 in
  let q =
    N.register net ~name:"q" ~width:8 ~enable:(N.Ref en) (fun q ->
        N.Bin (Add, N.Ref q, N.Const (1, 8)))
  in
  let sim = Sim.create net in
  Sim.set_input sim en 0;
  for _ = 1 to 3 do
    Sim.settle sim;
    Sim.tick sim
  done;
  check Alcotest.int "held at 0" 0 (Sim.value sim q);
  Sim.set_input sim en 1;
  Sim.settle sim;
  Sim.tick sim;
  check Alcotest.int "stepped once" 1 (Sim.value sim q)

let test_register_reset_value () =
  let net = N.create "rst" in
  let q = N.register net ~reset_value:7 ~name:"q" ~width:8 (fun q -> N.Ref q) in
  let sim = Sim.create net in
  check Alcotest.int "reset value" 7 (Sim.value sim q)

let test_simultaneous_register_update () =
  (* Swap register: a <= b, b <= a must use pre-edge values. *)
  let net = N.create "swap" in
  let (a, set_a) = N.register_forward net ~reset_value:1 ~name:"a" ~width:8 () in
  let (b, set_b) = N.register_forward net ~reset_value:2 ~name:"b" ~width:8 () in
  set_a ~enable:N.one ~next:(N.Ref b);
  set_b ~enable:N.one ~next:(N.Ref a);
  let sim = Sim.create net in
  Sim.settle sim;
  Sim.tick sim;
  check Alcotest.int "a" 2 (Sim.value sim a);
  check Alcotest.int "b" 1 (Sim.value sim b)

let test_reset_api () =
  let net = N.create "r" in
  let q = N.register net ~name:"q" ~width:8 (fun q -> N.Bin (Add, N.Ref q, N.Const (1, 8))) in
  let sim = Sim.create net in
  Sim.settle sim;
  Sim.tick sim;
  check Alcotest.int "advanced" 1 (Sim.value sim q);
  Sim.reset sim;
  check Alcotest.int "back to reset" 0 (Sim.value sim q);
  check Alcotest.int "cycle cleared" 0 (Sim.cycle sim)

(* ------------------------------------------------------------------ *)
(* Memories                                                            *)
(* ------------------------------------------------------------------ *)

let test_mem_write_then_read () =
  let net = N.create "mem" in
  let wen = N.input net ~name:"wen" ~width:1 in
  let waddr = N.input net ~name:"waddr" ~width:8 in
  let wdata = N.input net ~name:"wdata" ~width:32 in
  let raddr = N.input net ~name:"raddr" ~width:8 in
  let rdata =
    N.add_mem net ~name:"m" ~size:16 ~width:32 ~raddr:(N.Ref raddr) ~wen:(N.Ref wen)
      ~waddr:(N.Ref waddr) ~wdata:(N.Ref wdata) ()
  in
  let sim = Sim.create net in
  (* Cycle 1: write 99 to address 3. *)
  Sim.set_input sim wen 1;
  Sim.set_input sim waddr 3;
  Sim.set_input sim wdata 99;
  Sim.set_input sim raddr 3;
  Sim.settle sim;
  Sim.tick sim;
  (* Read-before-write semantics: rdata latched old value 0. *)
  check Alcotest.int "same-edge read sees old value" 0 (Sim.value sim rdata);
  Sim.set_input sim wen 0;
  Sim.settle sim;
  Sim.tick sim;
  check Alcotest.int "next cycle sees 99" 99 (Sim.value sim rdata)

let test_mem_init () =
  let net = N.create "memi" in
  let raddr = N.input net ~name:"raddr" ~width:4 in
  let rdata =
    N.add_mem net ~name:"m" ~size:4 ~width:8 ~raddr:(N.Ref raddr) ~wen:N.zero
      ~waddr:(N.Const (0, 4)) ~wdata:(N.Const (0, 8)) ~init:[| 5; 6; 7; 8 |] ()
  in
  let sim = Sim.create net in
  Sim.set_input sim raddr 2;
  Sim.settle sim;
  Sim.tick sim;
  check Alcotest.int "init[2]" 7 (Sim.value sim rdata)

let test_mem_out_of_range_read_is_zero () =
  let net = N.create "memz" in
  let raddr = N.input net ~name:"raddr" ~width:8 in
  let rdata =
    N.add_mem net ~name:"m" ~size:4 ~width:8 ~raddr:(N.Ref raddr) ~wen:N.zero
      ~waddr:(N.Const (0, 8)) ~wdata:(N.Const (0, 8)) ~init:[| 1; 2; 3; 4 |] ()
  in
  let sim = Sim.create net in
  Sim.set_input sim raddr 200;
  Sim.settle sim;
  Sim.tick sim;
  check Alcotest.int "oob read" 0 (Sim.value sim rdata)

(* ------------------------------------------------------------------ *)
(* API guards & metrics                                                *)
(* ------------------------------------------------------------------ *)

let test_set_input_guard () =
  let net = N.create "g" in
  let w = N.fresh net ~name:"w" ~width:8 in
  N.assign net w (N.Const (1, 8));
  let sim = Sim.create net in
  match Sim.set_input sim w 3 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected guard"

let test_bad_width_rejected () =
  let net = N.create "w" in
  match N.fresh net ~name:"x" ~width:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected width guard"

let test_ff_bits () =
  let net = N.create "ff" in
  let _ = N.register net ~name:"a" ~width:8 (fun q -> N.Ref q) in
  let _ = N.register net ~name:"b" ~width:32 (fun q -> N.Ref q) in
  check Alcotest.int "ff bits" 40 (N.ff_bits net)

let test_lut_estimates () =
  check Alcotest.bool "divide costs more than add" true
    (N.expr_luts (N.Bin (Div, N.Const (0, 32), N.Const (0, 32)))
    > N.expr_luts (N.Bin (Add, N.Const (0, 32), N.Const (0, 32))));
  check Alcotest.int "mul counts as dsp" 1
    (N.expr_dsps (N.Bin (Mul, N.Const (0, 32), N.Const (0, 32))))

let suite =
  [
    ("comb adder", `Quick, test_comb_adder);
    ("comb topo order", `Quick, test_comb_chain_order_independent);
    ("comb cycle rejected", `Quick, test_comb_cycle_rejected);
    ("width masking", `Quick, test_width_masking);
    ("mux", `Quick, test_mux);
    ("counter", `Quick, test_counter);
    ("counter wraps at width", `Quick, test_counter_wraps);
    ("register enable", `Quick, test_register_enable);
    ("register reset value", `Quick, test_register_reset_value);
    ("simultaneous update (swap)", `Quick, test_simultaneous_register_update);
    ("sim reset", `Quick, test_reset_api);
    ("memory write/read", `Quick, test_mem_write_then_read);
    ("memory init", `Quick, test_mem_init);
    ("memory oob read", `Quick, test_mem_out_of_range_read_is_zero);
    ("set_input guard", `Quick, test_set_input_guard);
    ("bad width rejected", `Quick, test_bad_width_rejected);
    ("ff bit accounting", `Quick, test_ff_bits);
    ("lut/dsp estimates", `Quick, test_lut_estimates);
  ]
