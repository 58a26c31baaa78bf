(* Tests for the HLS engine: scheduling legality, binding, FSMD
   correctness (differential against the reference interpreter, including
   randomly generated kernels), resource reporting and stall safety. *)

open Soc_kernel
open Soc_kernel.Ast.Build
module Sched = Soc_hls.Schedule

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let kernel ?(name = "k") ?(ports = []) ?(locals = []) ?(arrays = []) body =
  { Ast.kname = name; ports; locals; arrays; body }

(* Run both the interpreter and the synthesized RTL; compare scalars and
   streams. *)
let differential ?(scalars = []) ?(streams = []) ?config k =
  let ri = Interp.run_kernel ~scalars ~streams k in
  let accel = Soc_hls.Engine.synthesize ?config k in
  let rt = Soc_hls.Testbench.run ~scalars ~streams accel.Soc_hls.Engine.fsmd in
  List.iter
    (fun (port, value) ->
      check Alcotest.int ("scalar " ^ port) value (List.assoc port rt.Soc_hls.Testbench.out_scalars))
    ri.Interp.out_scalars;
  List.iter
    (fun p ->
      match p with
      | Ast.Stream { pname; dir = Ast.Out; _ } ->
        check (Alcotest.list Alcotest.int) ("stream " ^ pname)
          (Interp.Channels.drain ri.Interp.channels pname)
          (List.assoc pname rt.Soc_hls.Testbench.out_streams)
      | _ -> ())
    k.Ast.ports;
  rt

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let sched_of ?strategy ?resources k = Sched.of_cfg ?strategy ?resources (Cfg.of_kernel k)

let big_expression_kernel =
  kernel
    ~ports:[ in_scalar "a" Ty.U32; out_scalar "r" Ty.U32 ]
    [
      set "r"
        ((v "a" *: v "a") +: (v "a" *: int 3) +: (v "a" *: int 5) +: (v "a" *: int 7)
        +: (v "a" *: int 11));
    ]

let test_asap_legal () =
  let s = sched_of ~strategy:Sched.Asap big_expression_kernel in
  (* ASAP ignores resources: only dependences must hold. *)
  let violations =
    List.filter
      (function Sched.Dependence _ -> true | Sched.Over_capacity _ -> false)
      (Sched.verify ~resources:Sched.unlimited s)
  in
  check Alcotest.int "no dependence violations" 0 (List.length violations)

let test_list_schedule_legal () =
  let s = sched_of big_expression_kernel in
  check Alcotest.int "fully legal" 0 (List.length (Sched.verify s))

let test_resource_constraint_lengthens () =
  let tight = { Sched.alus_per_op = 1; multipliers = 1; dividers = 1 } in
  let loose = Sched.unlimited in
  let st = sched_of ~resources:tight big_expression_kernel in
  let sl = sched_of ~strategy:Sched.Asap ~resources:loose big_expression_kernel in
  let len s = Array.fold_left (fun acc (b : Sched.block_schedule) -> acc + b.Sched.nsteps) 0 s.Sched.blocks in
  check Alcotest.bool "tight >= loose" true (len st >= len sl)

let test_tight_resources_still_legal () =
  let tight = { Sched.alus_per_op = 1; multipliers = 1; dividers = 1 } in
  let s = sched_of ~resources:tight big_expression_kernel in
  check Alcotest.int "legal under capacity 1" 0
    (List.length (Sched.verify ~resources:tight s))

let test_stream_ops_serialized () =
  let k =
    kernel
      ~ports:[ in_stream "a" Ty.U32; in_stream "b" Ty.U32; out_stream "o" Ty.U32 ]
      ~locals:[ ("x", Ty.U32); ("y", Ty.U32) ]
      [ pop "x" "a"; pop "y" "b"; push "o" (v "x" +: v "y") ]
  in
  let s = sched_of k in
  let b0 = s.Sched.blocks.(0) in
  let stream_steps =
    List.filteri
      (fun i _ ->
        match List.nth s.Sched.cfg.Cfg.blocks.(0).Cfg.instrs i with
        | Cfg.Pop _ | Cfg.Push _ -> true
        | _ -> false)
      (Array.to_list b0.Sched.csteps)
  in
  let sorted = List.sort_uniq compare stream_steps in
  check Alcotest.int "each stream op has its own cstep" (List.length stream_steps)
    (List.length sorted)

(* Property: list scheduling is legal on random DFGs derived from random
   straight-line code. *)
let straightline_gen =
  QCheck.Gen.(
    let* n = int_range 1 25 in
    let var i = Printf.sprintf "v%d" (i mod 4) in
    let* ops =
      flatten_l
        (List.init n (fun i ->
             let* kind = int_bound 5 in
             let* a = int_bound 3 in
             let* b = int_bound 3 in
             let dst = var i in
             return
               (match kind with
               | 0 -> set dst (v (var a) +: v (var b))
               | 1 -> set dst (v (var a) *: v (var b))
               | 2 -> set dst (v (var a) -: v (var b))
               | 3 -> set dst (v (var a) /: (v (var b) |: Ast.Int 1))
               | 4 -> store "arr" (v (var a) &: Ast.Int 7) (v (var b))
               | _ -> set dst (load "arr" (v (var b) &: Ast.Int 7)))))
    in
    return
      (kernel
         ~ports:[ in_scalar "seed" Ty.U32; out_scalar "out" Ty.U32 ]
         ~locals:[ ("v0", Ty.U32); ("v1", Ty.U32); ("v2", Ty.U32); ("v3", Ty.U32) ]
         ~arrays:[ Ast.Build.array "arr" Ty.U32 8 ]
         ((set "v0" (v "seed") :: ops) @ [ set "out" (v "v1" +: v "v2" +: v "v3") ])))

let prop_list_schedule_legal =
  QCheck.Test.make ~name:"list schedule legal on random straight-line code" ~count:60
    (QCheck.make straightline_gen) (fun k ->
      Sched.verify (sched_of k) = [])

let prop_asap_not_longer_than_list =
  QCheck.Test.make ~name:"ASAP makespan <= list-scheduling makespan" ~count:60
    (QCheck.make straightline_gen) (fun k ->
      let len strategy resources =
        let s = sched_of ~strategy ~resources k in
        Array.fold_left (fun acc (b : Sched.block_schedule) -> acc + b.Sched.nsteps) 0 s.Sched.blocks
      in
      len Sched.Asap Sched.unlimited <= len Sched.List_scheduling Sched.default_resources)

(* ------------------------------------------------------------------ *)
(* FSMD differential tests                                             *)
(* ------------------------------------------------------------------ *)

let test_fsmd_scalar_add () =
  ignore
    (differential ~scalars:[ ("a", 41); ("b", 1) ]
       (kernel
          ~ports:[ in_scalar "a" Ty.U32; in_scalar "b" Ty.U32; out_scalar "r" Ty.U32 ]
          [ set "r" (v "a" +: v "b") ]))

let test_fsmd_branching () =
  let k =
    kernel
      ~ports:[ in_scalar "a" Ty.U32; out_scalar "r" Ty.U32 ]
      [ if_ (v "a" >: int 100) [ set "r" (v "a" -: int 100) ] [ set "r" (int 100 -: v "a") ] ]
  in
  ignore (differential ~scalars:[ ("a", 150) ] k);
  ignore (differential ~scalars:[ ("a", 50) ] k)

let test_fsmd_loop () =
  ignore
    (differential ~scalars:[ ("n", 10) ]
       (kernel
          ~ports:[ in_scalar "n" Ty.U32; out_scalar "r" Ty.U32 ]
          ~locals:[ ("i", Ty.U32); ("acc", Ty.U32) ]
          [
            set "acc" (int 0);
            for_ "i" ~from:(int 0) ~below:(v "n") [ set "acc" (v "acc" +: (v "i" *: v "i")) ];
            set "r" (v "acc");
          ]))

let test_fsmd_division () =
  ignore
    (differential ~scalars:[ ("a", 1000); ("b", 7) ]
       (kernel
          ~ports:[ in_scalar "a" Ty.U32; in_scalar "b" Ty.U32; out_scalar "q" Ty.U32; out_scalar "m" Ty.U32 ]
          [ set "q" (v "a" /: v "b"); set "m" (v "a" %: v "b") ]))

let test_fsmd_array () =
  ignore
    (differential
       (kernel
          ~ports:[ out_scalar "r" Ty.U32 ]
          ~locals:[ ("i", Ty.U32); ("acc", Ty.U32) ]
          ~arrays:[ array "a" Ty.U32 16 ]
          [
            for_ "i" ~from:(int 0) ~below:(int 16) [ store "a" (v "i") (v "i" *: int 3) ];
            set "acc" (int 0);
            for_ "i" ~from:(int 0) ~below:(int 16) [ set "acc" (v "acc" +: load "a" (v "i")) ];
            set "r" (v "acc");
          ]))

let test_fsmd_array_init () =
  ignore
    (differential
       (kernel
          ~ports:[ out_scalar "r" Ty.U32 ]
          ~arrays:[ array ~init:[| 3; 14; 15; 92 |] "c" Ty.U32 4 ]
          [ set "r" (load "c" (int 0) +: load "c" (int 3)) ]))

let test_fsmd_streams () =
  ignore
    (differential ~streams:[ ("xs", [ 5; 10; 15 ]) ]
       (kernel
          ~ports:[ in_stream "xs" Ty.U32; out_stream "ys" Ty.U32 ]
          ~locals:[ ("i", Ty.U32); ("x", Ty.U32) ]
          [ for_ "i" ~from:(int 0) ~below:(int 3) [ pop "x" "xs"; push "ys" (v "x" *: v "x") ] ]))

let test_fsmd_narrow_stream_widths () =
  (* An 8-bit stream port truncates beats to a byte in both worlds: the RTL
     because TDATA has 8 wires, the interpreter by explicit port-width
     masking. Values above 255 exercise the truncation. *)
  let k =
    kernel
      ~ports:[ in_stream "xs" Ty.U8; out_stream "ys" Ty.U8 ]
      ~locals:[ ("i", Ty.U32); ("x", Ty.U32) ]
      [
        for_ "i" ~from:(int 0) ~below:(int 4)
          [ pop "x" "xs"; push "ys" (v "x" *: int 3) ];
      ]
  in
  let rt = differential ~streams:[ ("xs", [ 300; 255; 7; 1000 ]) ] k in
  (* 300 -> 44; 44*3=132. 255*3=765 -> 253. 7*3=21. 1000 -> 232; *3=696 -> 184. *)
  check (Alcotest.list Alcotest.int) "byte semantics" [ 132; 253; 21; 184 ]
    (List.assoc "ys" rt.Soc_hls.Testbench.out_streams)

let test_fsmd_multi_stream_interleave () =
  let k =
    kernel
      ~ports:[ in_stream "a" Ty.U32; in_stream "b" Ty.U32; out_stream "o" Ty.U32 ]
      ~locals:[ ("i", Ty.U32); ("x", Ty.U32); ("y", Ty.U32) ]
      [
        for_ "i" ~from:(int 0) ~below:(int 4)
          [ pop "x" "a"; pop "y" "b"; push "o" (v "x" -: v "y") ];
      ]
  in
  ignore (differential ~streams:[ ("a", [ 10; 20; 30; 40 ]); ("b", [ 1; 2; 3; 4 ]) ] k)

let test_fsmd_otsu_kernels_differential () =
  (* The actual case-study kernels, small geometry. *)
  let w = 8 and h = 8 in
  let rgb = Soc_apps.Image.synthetic_rgb ~width:w ~height:h () in
  let pixels = Array.to_list rgb.Soc_apps.Image.rgb in
  ignore
    (differential ~streams:[ ("imageIn", pixels) ]
       (Soc_apps.Otsu.gray_scale_kernel ~pixels:(w * h)));
  let gray = Soc_apps.Otsu.Golden.gray_scale rgb in
  ignore
    (differential
       ~streams:[ ("grayScaleImage", Array.to_list gray.Soc_apps.Image.pixels) ]
       (Soc_apps.Otsu.histogram_kernel ~pixels:(w * h)));
  let hist = Soc_apps.Image.histogram gray in
  ignore
    (differential
       ~streams:[ ("histogram", Array.to_list hist) ]
       (Soc_apps.Otsu.otsu_method_kernel ~pixels:(w * h)))

let test_fsmd_restartable () =
  (* Running the same accelerator twice must give fresh results (sticky
     state cleared, arrays re-zeroed by the kernel). *)
  let k = Soc_apps.Otsu.histogram_kernel ~pixels:4 in
  let accel = Soc_hls.Engine.synthesize k in
  let run data =
    (* fresh testbench, same netlist object *)
    Soc_hls.Testbench.run ~streams:[ ("grayScaleImage", data) ] accel.Soc_hls.Engine.fsmd
  in
  let r1 = run [ 1; 1; 2; 3 ] in
  let r2 = run [ 5; 5; 5; 5 ] in
  let hist1 = List.assoc "histogram" r1.Soc_hls.Testbench.out_streams in
  let hist2 = List.assoc "histogram" r2.Soc_hls.Testbench.out_streams in
  check Alcotest.int "first run bin1" 2 (List.nth hist1 1);
  check Alcotest.int "second run bin5" 4 (List.nth hist2 5);
  check Alcotest.int "second run bin1 re-zeroed" 0 (List.nth hist2 1)

let test_fsmd_backpressure_stall_safe () =
  (* Sink accepts one beat every 7 cycles: output data must be unchanged.
     This exercises the advance-gating logic under stalls. *)
  let k =
    kernel
      ~ports:[ in_stream "xs" Ty.U32; out_stream "ys" Ty.U32 ]
      ~locals:[ ("i", Ty.U32); ("x", Ty.U32) ]
      ~arrays:[ array "buf" Ty.U32 8 ]
      [
        for_ "i" ~from:(int 0) ~below:(int 8)
          [ pop "x" "xs"; store "buf" (v "i") (v "x" *: int 7) ];
        for_ "i" ~from:(int 0) ~below:(int 8) [ push "ys" (load "buf" (v "i") +: v "i") ];
      ]
  in
  let accel = Soc_hls.Engine.synthesize k in
  let fsmd = accel.Soc_hls.Engine.fsmd in
  let sim = Soc_rtl.Sim.create fsmd.Soc_hls.Fsmd.netlist in
  let input = Queue.create () in
  List.iter (fun v -> Queue.push v input) [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  let xs = List.assoc "xs" fsmd.Soc_hls.Fsmd.stream_in in
  let ys = List.assoc "ys" fsmd.Soc_hls.Fsmd.stream_out in
  Soc_rtl.Sim.set_input sim fsmd.Soc_hls.Fsmd.ap_start 1;
  let out = ref [] in
  let cycles = ref 0 in
  let finished = ref false in
  while (not !finished) && !cycles < 100_000 do
    (* stuttering sink *)
    let ready = if !cycles mod 7 = 0 then 1 else 0 in
    (if Queue.is_empty input then Soc_rtl.Sim.set_input sim xs.Soc_hls.Fsmd.in_tvalid 0
     else begin
       Soc_rtl.Sim.set_input sim xs.Soc_hls.Fsmd.in_tvalid 1;
       Soc_rtl.Sim.set_input sim xs.Soc_hls.Fsmd.in_tdata (Queue.peek input)
     end);
    Soc_rtl.Sim.set_input sim ys.Soc_hls.Fsmd.out_tready ready;
    Soc_rtl.Sim.settle sim;
    if Soc_rtl.Sim.value sim xs.Soc_hls.Fsmd.in_tready = 1 && not (Queue.is_empty input) then
      ignore (Queue.pop input);
    if Soc_rtl.Sim.value sim ys.Soc_hls.Fsmd.out_tvalid = 1 && ready = 1 then
      out := Soc_rtl.Sim.value sim ys.Soc_hls.Fsmd.out_tdata :: !out;
    if Soc_rtl.Sim.value sim fsmd.Soc_hls.Fsmd.ap_done = 1 then finished := true;
    Soc_rtl.Sim.tick sim;
    incr cycles
  done;
  check Alcotest.bool "finished" true !finished;
  check (Alcotest.list Alcotest.int) "stall-safe output"
    [ 7; 15; 23; 31; 39; 47; 55; 63 ] (List.rev !out)

let test_fsmd_slow_source () =
  (* Source provides one beat every 5 cycles. *)
  let k =
    kernel
      ~ports:[ in_stream "xs" Ty.U32; out_scalar "r" Ty.U32 ]
      ~locals:[ ("i", Ty.U32); ("x", Ty.U32); ("acc", Ty.U32) ]
      [
        set "acc" (int 0);
        for_ "i" ~from:(int 0) ~below:(int 5) [ pop "x" "xs"; set "acc" (v "acc" +: v "x") ];
        set "r" (v "acc");
      ]
  in
  let accel = Soc_hls.Engine.synthesize k in
  let fsmd = accel.Soc_hls.Engine.fsmd in
  let sim = Soc_rtl.Sim.create fsmd.Soc_hls.Fsmd.netlist in
  let xs = List.assoc "xs" fsmd.Soc_hls.Fsmd.stream_in in
  let data = ref [ 10; 20; 30; 40; 50 ] in
  Soc_rtl.Sim.set_input sim fsmd.Soc_hls.Fsmd.ap_start 1;
  let cycles = ref 0 and finished = ref false in
  while (not !finished) && !cycles < 100_000 do
    let valid = !cycles mod 5 = 0 && !data <> [] in
    (match !data with
    | x :: _ when valid ->
      Soc_rtl.Sim.set_input sim xs.Soc_hls.Fsmd.in_tvalid 1;
      Soc_rtl.Sim.set_input sim xs.Soc_hls.Fsmd.in_tdata x
    | _ -> Soc_rtl.Sim.set_input sim xs.Soc_hls.Fsmd.in_tvalid 0);
    Soc_rtl.Sim.settle sim;
    (if valid && Soc_rtl.Sim.value sim xs.Soc_hls.Fsmd.in_tready = 1 then
       match !data with [] -> () | _ :: rest -> data := rest);
    if Soc_rtl.Sim.value sim fsmd.Soc_hls.Fsmd.ap_done = 1 then finished := true;
    Soc_rtl.Sim.tick sim;
    incr cycles
  done;
  check Alcotest.bool "finished" true !finished;
  let out = List.assoc "r" fsmd.Soc_hls.Fsmd.scalar_out in
  check Alcotest.int "sum" 150 (Soc_rtl.Sim.value sim out)

(* ------------------------------------------------------------------ *)
(* Random kernel differential property                                 *)
(* ------------------------------------------------------------------ *)

(* Random kernels: a prologue, a main loop popping one beat per iteration
   with a random body, and an epilogue, over 4 vars + an 8-entry array. *)
let random_kernel_gen =
  QCheck.Gen.(
    let var i = Printf.sprintf "v%d" (i mod 4) in
    let rec expr_gen depth =
      if depth = 0 then
        oneof
          [ (let* i = int_bound 3 in return (v (var i)));
            (let* c = int_bound 1000 in return (Ast.Int c)) ]
      else
        frequency
          [
            (3, let* i = int_bound 3 in return (v (var i)));
            (2, let* c = int_bound 1000 in return (Ast.Int c));
            ( 4,
              let* op =
                oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Band; Ast.Bor; Ast.Bxor; Ast.Shr;
                         Ast.Lt; Ast.Ult; Ast.Eq; Ast.Ne ]
              in
              let* a = expr_gen (depth - 1) in
              let* b = expr_gen (depth - 1) in
              return (Ast.Bin (op, a, b)) );
            ( 1,
              (* guarded division *)
              let* a = expr_gen (depth - 1) in
              let* b = expr_gen (depth - 1) in
              return (Ast.Bin (Ast.Udiv, a, Ast.Bin (Ast.Bor, b, Ast.Int 1))) );
            ( 1,
              let* a = expr_gen (depth - 1) in
              return (load "arr" (Ast.Bin (Ast.Band, a, Ast.Int 7))) );
          ]
    in
    let stmt_gen depth =
      frequency
        [
          ( 4,
            let* i = int_bound 3 in
            let* e = expr_gen depth in
            return (set (var i) e) );
          ( 2,
            let* a = expr_gen (depth - 1) in
            let* e = expr_gen depth in
            return (store "arr" (Ast.Bin (Ast.Band, a, Ast.Int 7)) e) );
          ( 1,
            let* c = expr_gen (depth - 1) in
            let* i = int_bound 3 in
            let* e1 = expr_gen (depth - 1) in
            let* e2 = expr_gen (depth - 1) in
            return (if_ c [ set (var i) e1 ] [ set (var i) e2 ]) );
          ( 1,
            let* e = expr_gen depth in
            return (push "ys" e) );
        ]
    in
    let* n_iters = int_range 0 6 in
    let* prologue = list_size (int_bound 4) (stmt_gen 2) in
    let* body = list_size (int_bound 5) (stmt_gen 2) in
    let* epilogue = list_size (int_bound 4) (stmt_gen 2) in
    let* input = flatten_l (List.init n_iters (fun _ -> int_bound 10_000)) in
    let k =
      kernel ~name:"rand"
        ~ports:
          [ in_stream "xs" Ty.U32; out_stream "ys" Ty.U32; out_scalar "r" Ty.U32 ]
        ~locals:
          [ ("v0", Ty.U32); ("v1", Ty.U32); ("v2", Ty.U32); ("v3", Ty.U32); ("i", Ty.U32) ]
        ~arrays:[ Ast.Build.array "arr" Ty.U32 8 ]
        (prologue
        @ [
            for_ "i" ~from:(Ast.Int 0) ~below:(Ast.Int n_iters)
              (pop "v0" "xs" :: body);
          ]
        @ epilogue
        @ [ set "r" (v "v0" +: v "v1" +: v "v2" +: v "v3") ])
    in
    return (k, input))

let prop_random_kernel_differential =
  QCheck.Test.make ~name:"random kernels: interpreter = RTL" ~count:40
    (QCheck.make random_kernel_gen) (fun (k, input) ->
      let ri = Interp.run_kernel ~streams:[ ("xs", input) ] k in
      let accel = Soc_hls.Engine.synthesize k in
      let rt =
        Soc_hls.Testbench.run ~streams:[ ("xs", input) ] accel.Soc_hls.Engine.fsmd
      in
      List.assoc "r" ri.Interp.out_scalars = List.assoc "r" rt.Soc_hls.Testbench.out_scalars
      && Interp.Channels.drain ri.Interp.channels "ys"
         = List.assoc "ys" rt.Soc_hls.Testbench.out_streams)

(* Resource-config ablation: the same random kernel synthesized with tight
   and loose resources must still compute the same function. *)
let prop_resources_preserve_semantics =
  QCheck.Test.make ~name:"resource constraints preserve semantics" ~count:15
    (QCheck.make random_kernel_gen) (fun (k, input) ->
      let run resources =
        let config = { Soc_hls.Engine.default_config with Soc_hls.Engine.resources } in
        let accel = Soc_hls.Engine.synthesize ~config k in
        let rt = Soc_hls.Testbench.run ~streams:[ ("xs", input) ] accel.Soc_hls.Engine.fsmd in
        (List.assoc "r" rt.Soc_hls.Testbench.out_scalars,
         List.assoc "ys" rt.Soc_hls.Testbench.out_streams)
      in
      run { Sched.alus_per_op = 1; multipliers = 1; dividers = 1 }
      = run { Sched.alus_per_op = 4; multipliers = 4; dividers = 2 })

(* ------------------------------------------------------------------ *)
(* Reports and artifacts                                               *)
(* ------------------------------------------------------------------ *)

let test_report_fields () =
  let accel = Soc_hls.Engine.synthesize (Soc_apps.Otsu.histogram_kernel ~pixels:64) in
  let r = accel.Soc_hls.Engine.report in
  check Alcotest.bool "brams for hist array" true (r.Soc_hls.Report.resources.Soc_hls.Report.bram18 >= 1);
  check Alcotest.bool "ffs" true (r.Soc_hls.Report.resources.Soc_hls.Report.ff > 0);
  check Alcotest.bool "luts" true (r.Soc_hls.Report.resources.Soc_hls.Report.lut > 0);
  check Alcotest.bool "fsm states" true (r.Soc_hls.Report.fsm_states > 4)

let test_dsp_only_with_mul () =
  let no_mul =
    Soc_hls.Engine.synthesize
      (kernel ~name:"nomul"
         ~ports:[ in_scalar "a" Ty.U32; out_scalar "r" Ty.U32 ]
         [ set "r" (v "a" +: int 1) ])
  in
  let with_mul =
    Soc_hls.Engine.synthesize
      (kernel ~name:"mul"
         ~ports:[ in_scalar "a" Ty.U32; out_scalar "r" Ty.U32 ]
         [ set "r" (v "a" *: v "a") ])
  in
  check Alcotest.int "no dsp" 0 no_mul.Soc_hls.Engine.report.Soc_hls.Report.resources.Soc_hls.Report.dsp;
  check Alcotest.bool "dsp used" true
    (with_mul.Soc_hls.Engine.report.Soc_hls.Report.resources.Soc_hls.Report.dsp >= 1)

let test_fu_sharing_bounds_dsps () =
  (* Five multiplies under a 2-multiplier budget: at most 2 DSP pairs. *)
  let config =
    { Soc_hls.Engine.default_config with
      Soc_hls.Engine.resources = { Sched.alus_per_op = 2; multipliers = 2; dividers = 1 } }
  in
  let accel = Soc_hls.Engine.synthesize ~config big_expression_kernel in
  check Alcotest.bool "dsp bounded by binding" true
    (accel.Soc_hls.Engine.report.Soc_hls.Report.resources.Soc_hls.Report.dsp <= 2)

let test_directives_generated () =
  let directives =
    Soc_hls.Engine.directives_of_kernel (Soc_apps.Otsu.segment_kernel ~pixels:16)
  in
  check Alcotest.bool "axis directive" true (Tstr.contains directives "-mode axis");
  check Alcotest.bool "axilite return" true (Tstr.contains directives "-mode s_axilite")

let test_netlist_module_name () =
  let accel = Soc_hls.Engine.synthesize Soc_apps.Filters.add_kernel in
  check Alcotest.string "netlist module named after the kernel" "ADD"
    accel.Soc_hls.Engine.fsmd.Soc_hls.Fsmd.netlist.Soc_rtl.Netlist.mod_name

let test_illegal_schedule_detected () =
  (* verify must flag a corrupted schedule. *)
  let k = big_expression_kernel in
  let s = sched_of k in
  (* Corrupt: move every op to cstep 0. *)
  Array.iter
    (fun (b : Sched.block_schedule) -> Array.fill b.Sched.csteps 0 (Array.length b.Sched.csteps) 0)
    s.Sched.blocks;
  check Alcotest.bool "violations reported" true (Sched.verify s <> [])

let suite =
  [
    ("asap schedule legal", `Quick, test_asap_legal);
    ("list schedule legal", `Quick, test_list_schedule_legal);
    ("resource constraints lengthen schedule", `Quick, test_resource_constraint_lengthens);
    ("tight resources legal", `Quick, test_tight_resources_still_legal);
    ("stream ops serialized", `Quick, test_stream_ops_serialized);
    ("fsmd scalar add", `Quick, test_fsmd_scalar_add);
    ("fsmd branching", `Quick, test_fsmd_branching);
    ("fsmd loop", `Quick, test_fsmd_loop);
    ("fsmd division", `Quick, test_fsmd_division);
    ("fsmd array", `Quick, test_fsmd_array);
    ("fsmd array init", `Quick, test_fsmd_array_init);
    ("fsmd streams", `Quick, test_fsmd_streams);
    ("fsmd narrow stream widths", `Quick, test_fsmd_narrow_stream_widths);
    ("fsmd multi-stream interleave", `Quick, test_fsmd_multi_stream_interleave);
    ("fsmd otsu kernels", `Quick, test_fsmd_otsu_kernels_differential);
    ("fsmd restartable", `Quick, test_fsmd_restartable);
    ("fsmd stall-safe under backpressure", `Quick, test_fsmd_backpressure_stall_safe);
    ("fsmd slow source", `Quick, test_fsmd_slow_source);
    ("report fields", `Quick, test_report_fields);
    ("dsp only with mul", `Quick, test_dsp_only_with_mul);
    ("fu sharing bounds dsps", `Quick, test_fu_sharing_bounds_dsps);
    ("directives artifact", `Quick, test_directives_generated);
    ("netlist module name", `Quick, test_netlist_module_name);
    ("schedule verifier detects corruption", `Quick, test_illegal_schedule_detected);
    qtest prop_list_schedule_legal;
    qtest prop_asap_not_longer_than_list;
    qtest prop_random_kernel_differential;
    qtest prop_resources_preserve_semantics;
  ]
