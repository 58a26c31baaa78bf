(** The Otsu host program, executed on the simulated platform through the
    driver API of {!Soc_platform.Executive}. One plan serves every
    design: the stages its spec names run in hardware, each maximal run
    as one concurrent streaming phase; every other stage runs on the GPP
    model. *)

open Soc_core
module Exec = Soc_platform.Executive

type result = {
  label : string;
  output : Image.t;
  threshold : int;
  cycles : int;
  microseconds : float;
  build : Flow.build option; (* None for the all-software baseline *)
}

(* The application pipeline in order: each stage's node with its input
   and output stream ports. *)
let stages =
  [
    ("grayScale", [ "imageIn" ], [ "imageOutCH"; "imageOutSEG" ]);
    ("computeHistogram", [ "grayScaleImage" ], [ "histogram" ]);
    ("halfProbability", [ "histogram" ], [ "probability" ]);
    ("segment", [ "grayScaleImage"; "otsuThreshold" ], [ "segmentedGrayImage" ]);
  ]

(* DRAM layout (word addresses). *)
let rgb_addr = 0x1000
let gray_ch_addr = 0x20000
let gray_seg_addr = 0x30000
let hist_addr = 0x40000
let thresh_addr = 0x40400
let out_addr = 0x50000

let buffer ~pixels node port =
  match (node, port) with
  | "grayScale", "imageIn" -> (rgb_addr, pixels)
  | ("grayScale", "imageOutCH" | "computeHistogram", "grayScaleImage") -> (gray_ch_addr, pixels)
  | ("grayScale", "imageOutSEG" | "segment", "grayScaleImage") -> (gray_seg_addr, pixels)
  | ("computeHistogram" | "halfProbability"), "histogram" -> (hist_addr, 256)
  | ("halfProbability", "probability" | "segment", "otsuThreshold") -> (thresh_addr, 1)
  | "segment", "segmentedGrayImage" -> (out_addr, pixels)
  | _ -> invalid_arg (Printf.sprintf "Otsu_runner.buffer: %s.%s" node port)

type step = Sw of string | Hw of string list

let plan (spec : Spec.t option) =
  let in_hw node =
    match spec with
    | None -> false
    | Some s -> List.exists (fun (n : Spec.node_spec) -> n.Spec.node_name = node) s.Spec.nodes
  in
  List.fold_right
    (fun (node, _, _) steps ->
      match steps with
      | Hw run :: rest when in_hw node -> Hw (node :: run) :: rest
      | _ -> (if in_hw node then Hw [ node ] else Sw node) :: steps)
    stages []

type host = {
  exec : Exec.t;
  live : Flow.live option;
  rgb : Image.rgb_image;
  width : int;
  height : int;
}

let spec_of (h : host) = Option.map (fun (l : Flow.live) -> l.Flow.lbuild.Flow.spec) h.live

let boot ?(seed = 42) ~width ~height (live : Flow.live option) =
  let exec =
    match live with
    | Some l -> l.Flow.exec
    | None -> Exec.create (Soc_platform.System.create ())
  in
  let rgb = Image.synthetic_rgb ~seed ~width ~height () in
  Soc_axi.Dram.write_block (Exec.dram exec) ~addr:rgb_addr rgb.Image.rgb;
  { exec; live; rgb; width; height }

(* One step's driver calls. A hardware run starts its accelerators, arms
   the drain DMAs before the feeds, and runs the phase. *)
let run_step (h : host) ~kernels step =
  let pixels = h.width * h.height in
  match step with
  | Sw node ->
    let _, ins, outs = List.find (fun (n, _, _) -> n = node) stages in
    let bufs = List.map (fun port -> (port, buffer ~pixels node port)) in
    ignore
      (Exec.run_software h.exec (List.assoc node kernels) ~scalars:[]
         ~stream_bufs_in:(bufs ins) ~stream_bufs_out:(bufs outs))
  | Hw run ->
    let live = Option.get h.live in
    let spec = live.Flow.lbuild.Flow.spec in
    List.iter (Exec.start_accel h.exec) run;
    let arm start links =
      List.iter
        (fun (node, port) ->
          if List.mem node run then
            let addr, len = buffer ~pixels node port in
            start h.exec ~channel:(Flow.channel live ~node ~port) ~addr ~len)
        links
    in
    arm Exec.start_read_dma (Spec.node_to_soc_links spec);
    arm Exec.start_write_dma (Spec.soc_to_node_links spec);
    Exec.run_phase h.exec ~accels:run

type phases = {
  task : string;
  drains : (string * string) list;
  pre : unit -> unit;
  hw : unit -> unit;
  post : unit -> unit;
  sw_fallback : unit -> unit;
}

let phases (h : host) =
  let kernels = Otsu.kernels ~width:h.width ~height:h.height in
  let run = run_step h ~kernels in
  let rec split pre = function
    | Hw nodes :: post -> (List.rev pre, nodes, post)
    | step :: rest -> split (step :: pre) rest
    | [] -> (List.rev pre, [], [])
  in
  let pre, nodes, post = split [] (plan (spec_of h)) in
  {
    task =
      (if List.length nodes = List.length stages then "full-pipeline"
       else String.concat "+" nodes);
    drains =
      Option.fold ~none:[] (spec_of h) ~some:(fun spec ->
          List.filter (fun (n, _) -> List.mem n nodes) (Spec.node_to_soc_links spec));
    pre = (fun () -> List.iter run pre);
    hw = (fun () -> if nodes <> [] then run (Hw nodes));
    post = (fun () -> List.iter run post);
    sw_fallback = (fun () -> List.iter (fun n -> run (Sw n)) nodes);
  }

let read_output (h : host) =
  let pixels = Soc_axi.Dram.read_block (Exec.dram h.exec) ~addr:out_addr ~len:(h.width * h.height) in
  { Image.width = h.width; height = h.height; pixels }

(* The threshold stays on an internal stream, never in DRAM, when
   halfProbability -> segment is a hardware link. *)
let read_threshold (h : host) =
  let on_chip (spec : Spec.t) =
    List.mem
      (("halfProbability", "probability"), ("segment", "otsuThreshold"))
      (Spec.internal_links spec)
  in
  if Option.fold ~none:false ~some:on_chip (spec_of h) then snd (Otsu.Golden.run h.rgb)
  else Soc_axi.Dram.read (Exec.dram h.exec) thresh_addr

let execute ?seed ~label ~width ~height live =
  let h = boot ?seed ~width ~height live in
  let t0 = Exec.elapsed_cycles h.exec in
  let ph = phases h in
  ph.pre ();
  ph.hw ();
  ph.post ();
  {
    label;
    output = read_output h;
    threshold = read_threshold h;
    cycles = Exec.elapsed_cycles h.exec - t0;
    microseconds = Exec.elapsed_us h.exec;
    build = Option.map (fun (l : Flow.live) -> l.Flow.lbuild) live;
  }

let build_arch ~width ~height arch =
  let fifo_depth = max 1024 ((width * height) + 16) in
  let build =
    Flow.build ~fifo_depth (Graphs.arch_spec arch)
      ~kernels:(Graphs.arch_kernels arch ~width ~height)
  in
  (build, Flow.instantiate ~fifo_depth build)

let run_arch ?(width = 64) ?(height = 64) ?seed (arch : Graphs.arch) : result =
  let _, live = build_arch ~width ~height arch in
  let r = execute ?seed ~label:(Graphs.arch_name arch) ~width ~height (Some live) in
  (* Protocol checkers must stay silent. *)
  (match Soc_platform.System.protocol_violations live.Flow.system with
  | [] -> ()
  | v ->
    failwith
      (String.concat "; "
         (List.map (Format.asprintf "%a" Soc_axi.Stream_rules.pp_violation) v)));
  r

let run_software_only ?(width = 64) ?(height = 64) ?seed () =
  execute ?seed ~label:"SW" ~width ~height None

(* The golden result every design must match. *)
let golden ?(width = 64) ?(height = 64) ?(seed = 42) () =
  Otsu.Golden.run (Image.synthetic_rgb ~seed ~width ~height ())
