(** XTEA block cipher as a second application domain for the DSL: a
    crypto-offload SoC with an encrypt accelerator and a decrypt
    accelerator chained for a self-checking loopback pipeline.

    XTEA (Needham/Wheeler, 1997) encrypts a 64-bit block (two 32-bit
    words) with a 128-bit key over 32 rounds of add/xor/shift — exactly
    the 32-bit integer arithmetic our kernel IR models, which makes the
    golden model and the kernels bit-identical by construction.

    Block streams carry v0,v1 word pairs; the key enters as four AXI-Lite
    scalar registers, like a real crypto engine's key slots. *)

open Soc_kernel
open Soc_kernel.Ast.Build

let delta = 0x9E3779B9
let rounds = 32

(* ------------------------------------------------------------------ *)
(* Golden model                                                        *)
(* ------------------------------------------------------------------ *)

module Golden = struct
  let mask v = v land 0xFFFFFFFF

  let encrypt_block ~key (v0, v1) =
    let k i = key.(i) in
    let v0 = ref v0 and v1 = ref v1 and sum = ref 0 in
    for _ = 1 to rounds do
      v0 :=
        mask
          (!v0
          + ((mask ((!v1 lsl 4) lxor (!v1 lsr 5)) + !v1)
             lxor mask (!sum + k (!sum land 3))));
      sum := mask (!sum + delta);
      v1 :=
        mask
          (!v1
          + ((mask ((!v0 lsl 4) lxor (!v0 lsr 5)) + !v0)
             lxor mask (!sum + k ((!sum lsr 11) land 3))))
    done;
    (!v0, !v1)

  let decrypt_block ~key (v0, v1) =
    let k i = key.(i) in
    let v0 = ref v0 and v1 = ref v1 in
    let sum = ref (mask (delta * rounds)) in
    for _ = 1 to rounds do
      v1 :=
        mask
          (!v1
          - ((mask ((!v0 lsl 4) lxor (!v0 lsr 5)) + !v0)
             lxor mask (!sum + k ((!sum lsr 11) land 3))));
      sum := mask (!sum - delta);
      v0 :=
        mask
          (!v0
          - ((mask ((!v1 lsl 4) lxor (!v1 lsr 5)) + !v1)
             lxor mask (!sum + k (!sum land 3))))
    done;
    (!v0, !v1)

  (* Encrypt a word stream (pairs of words = blocks; length must be even). *)
  let encrypt_words ~key words =
    let rec go = function
      | v0 :: v1 :: rest ->
        let c0, c1 = encrypt_block ~key (v0, v1) in
        c0 :: c1 :: go rest
      | [] -> []
      | [ _ ] -> invalid_arg "Xtea.encrypt_words: odd word count"
    in
    go words
end

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

(* The mixing term (((v<<4) ^ (v>>5)) + v) ^ (sum + k[idx]). *)
let mix value sum_plus_key =
  (Ast.Bin (Ast.Bxor, ((value <<: int 4) ^: (value >>: int 5)) +: value, sum_plus_key))

let key_ports = [ "key0"; "key1"; "key2"; "key3" ]

(* Key word selected by a 2-bit index: a 4-way mux over the key registers
   (kernels have no arrays of ports, so select explicitly). *)
let key_select ~dst ~idx =
  [
    if_ (idx =: int 0) [ set dst (v "key0") ] [];
    if_ (idx =: int 1) [ set dst (v "key1") ] [];
    if_ (idx =: int 2) [ set dst (v "key2") ] [];
    if_ (idx =: int 3) [ set dst (v "key3") ] [];
  ]

let round_locals =
  [ ("blocks", Ty.U32); ("b", Ty.U32); ("r", Ty.U32); ("v0", Ty.U32); ("v1", Ty.U32);
    ("sum", Ty.U32); ("kw", Ty.U32); ("kidx", Ty.U32) ]

(* Encrypt [blocks] 64-bit blocks from stream pt to stream ct. *)
let encrypt_kernel ~blocks =
  {
    Ast.kname = "xteaEnc";
    ports =
      List.map (fun k -> in_scalar k Ty.U32) key_ports
      @ [ in_stream "pt" Ty.U32; out_stream "ct" Ty.U32 ];
    locals = round_locals;
    arrays = [];
    body =
      [
        for_ "b" ~from:(int 0) ~below:(int blocks)
          ([ pop "v0" "pt"; pop "v1" "pt"; set "sum" (int 0) ]
          @ [
              for_ "r" ~from:(int 0) ~below:(int rounds)
                ([ set "kidx" (v "sum" &: int 3) ]
                @ key_select ~dst:"kw" ~idx:(v "kidx")
                @ [ set "v0" (v "v0" +: mix (v "v1") (v "sum" +: v "kw")) ]
                @ [ set "sum" (v "sum" +: int delta);
                    set "kidx" ((v "sum" >>: int 11) &: int 3) ]
                @ key_select ~dst:"kw" ~idx:(v "kidx")
                @ [ set "v1" (v "v1" +: mix (v "v0") (v "sum" +: v "kw")) ]);
            ]
          @ [ push "ct" (v "v0"); push "ct" (v "v1") ]);
      ];
  }

let decrypt_kernel ~blocks =
  {
    Ast.kname = "xteaDec";
    ports =
      List.map (fun k -> in_scalar k Ty.U32) key_ports
      @ [ in_stream "ct" Ty.U32; out_stream "pt" Ty.U32 ];
    locals = round_locals;
    arrays = [];
    body =
      [
        for_ "b" ~from:(int 0) ~below:(int blocks)
          ([ pop "v0" "ct"; pop "v1" "ct";
             set "sum" (int (Golden.mask (delta * rounds))) ]
          @ [
              for_ "r" ~from:(int 0) ~below:(int rounds)
                ([ set "kidx" ((v "sum" >>: int 11) &: int 3) ]
                @ key_select ~dst:"kw" ~idx:(v "kidx")
                @ [ set "v1" (v "v1" -: mix (v "v0") (v "sum" +: v "kw")) ]
                @ [ set "sum" (v "sum" -: int delta); set "kidx" (v "sum" &: int 3) ]
                @ key_select ~dst:"kw" ~idx:(v "kidx")
                @ [ set "v0" (v "v0" -: mix (v "v1") (v "sum" +: v "kw")) ]);
            ]
          @ [ push "pt" (v "v0"); push "pt" (v "v1") ]);
      ];
  }

(* ------------------------------------------------------------------ *)
(* The crypto SoC: enc -> dec loopback pipeline                        *)
(* ------------------------------------------------------------------ *)

(* DSL description: plaintext streams in from memory, through the encrypt
   core, directly into the decrypt core (a link inside the fabric), and
   the recovered plaintext streams back — a production self-test topology.
   Both cores expose their key registers over AXI-Lite. *)
let loopback_spec : Soc_core.Spec.t =
  let open Soc_core.Edsl in
  design "xtea_loopback" @@ fun tg ->
  nodes tg;
  node tg "xteaEnc"
  |> i "key0" |> i "key1" |> i "key2" |> i "key3"
  |> is "pt" |> is "ct" |> end_;
  node tg "xteaDec"
  |> i "key0" |> i "key1" |> i "key2" |> i "key3"
  |> is "ct" |> is "pt" |> end_;
  end_nodes tg;
  edges tg;
  connect tg "xteaEnc";
  connect tg "xteaDec";
  link tg soc ~to_:(port "xteaEnc" "pt");
  link tg (port "xteaEnc" "ct") ~to_:(port "xteaDec" "ct");
  link tg (port "xteaDec" "pt") ~to_:soc;
  end_edges tg

let loopback_kernels ~blocks =
  [ ("xteaEnc", encrypt_kernel ~blocks); ("xteaDec", decrypt_kernel ~blocks) ]

(* Encrypt-only SoC for throughput measurements. *)
let encrypt_spec : Soc_core.Spec.t =
  let open Soc_core.Edsl in
  design "xtea_enc" @@ fun tg ->
  nodes tg;
  node tg "xteaEnc"
  |> i "key0" |> i "key1" |> i "key2" |> i "key3"
  |> is "pt" |> is "ct" |> end_;
  end_nodes tg;
  edges tg;
  connect tg "xteaEnc";
  link tg soc ~to_:(port "xteaEnc" "pt");
  link tg (port "xteaEnc" "ct") ~to_:soc;
  end_edges tg

(* Run the loopback system on the simulated platform: returns PL cycles
   and whether the recovered plaintext is bit-exact. *)
let run_loopback ?(blocks = 32) ~(key : int array) () =
  if Array.length key <> 4 then invalid_arg "Xtea.run_loopback: key must be 4 words";
  let module Exec = Soc_platform.Executive in
  let build =
    Soc_core.Flow.build loopback_spec ~kernels:(loopback_kernels ~blocks)
  in
  let live = Soc_core.Flow.instantiate build in
  let exec = live.Soc_core.Flow.exec in
  let rng = Soc_util.Rng.create 99 in
  let words = 2 * blocks in
  let plaintext = Array.init words (fun _ -> Soc_util.Rng.int rng 0x3FFFFFFF) in
  Soc_axi.Dram.write_block (Exec.dram exec) ~addr:0 plaintext;
  (* Program both key slots over AXI-Lite, like the generated driver. *)
  List.iter
    (fun core ->
      Array.iteri
        (fun i kw -> Exec.set_arg exec ~accel:core ~port:(Printf.sprintf "key%d" i) kw)
        key)
    [ "xteaEnc"; "xteaDec" ];
  Exec.start_accel exec "xteaEnc";
  Exec.start_accel exec "xteaDec";
  Exec.start_read_dma exec
    ~channel:(Soc_core.Flow.channel live ~node:"xteaDec" ~port:"pt")
    ~addr:4096 ~len:words;
  Exec.start_write_dma exec
    ~channel:(Soc_core.Flow.channel live ~node:"xteaEnc" ~port:"pt")
    ~addr:0 ~len:words;
  Exec.run_phase exec ~accels:[ "xteaEnc"; "xteaDec" ];
  let recovered = Soc_axi.Dram.read_block (Exec.dram exec) ~addr:4096 ~len:words in
  (Exec.elapsed_cycles exec, recovered = plaintext, build)
