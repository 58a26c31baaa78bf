(** Generic host program for any partition: generates the execution plan
    (software stages on the GPP, contiguous hardware stages as concurrent
    streaming phases), runs it on the simulated platform and reports time,
    resources and the output image. This subsumes the hand-written host
    programs of the paper's four architectures. *)

module Exec = Soc_platform.Executive
module P = Partition

type point = {
  partition : P.t;
  cycles : int;
  microseconds : float;
  resources : Soc_hls.Report.usage;
  tool_seconds : float; (* estimated generation time for this architecture *)
  output : Soc_apps.Image.t;
  threshold : int;
}

(* DRAM layout shared with Soc_apps.Otsu_runner. *)
let rgb_addr = 0x1000
let gray_ch_addr = 0x20000
let gray_seg_addr = 0x30000
let hist_addr = 0x40000
let thresh_addr = 0x40400
let out_addr = 0x50000

let buffer ~pixels (stage : P.stage) port =
  match (stage, port) with
  | P.Gray, "imageIn" -> (rgb_addr, pixels)
  | P.Gray, "imageOutCH" -> (gray_ch_addr, pixels)
  | P.Gray, "imageOutSEG" -> (gray_seg_addr, pixels)
  | P.Hist, "grayScaleImage" -> (gray_ch_addr, pixels)
  | P.Hist, "histogram" -> (hist_addr, 256)
  | P.OtsuM, "histogram" -> (hist_addr, 256)
  | P.OtsuM, "probability" -> (thresh_addr, 1)
  | P.Seg, "grayScaleImage" -> (gray_seg_addr, pixels)
  | P.Seg, "otsuThreshold" -> (thresh_addr, 1)
  | P.Seg, "segmentedGrayImage" -> (out_addr, pixels)
  | _ -> invalid_arg (Printf.sprintf "Runner.buffer: %s.%s" (P.node_name stage) port)

let stage_of_node n =
  List.find (fun s -> P.node_name s = n) P.all_stages

(* Software execution of one stage over the DRAM buffers. *)
let run_sw exec ~kernels ~pixels (stage : P.stage) =
  let k = List.assoc (P.node_name stage) kernels in
  let ins, outs =
    match stage with
    | P.Gray -> ([ "imageIn" ], [ "imageOutCH"; "imageOutSEG" ])
    | P.Hist -> ([ "grayScaleImage" ], [ "histogram" ])
    | P.OtsuM -> ([ "histogram" ], [ "probability" ])
    | P.Seg -> ([ "grayScaleImage"; "otsuThreshold" ], [ "segmentedGrayImage" ])
  in
  let bufs ports = List.map (fun p -> (p, buffer ~pixels stage p)) ports in
  ignore
    (Exec.run_software exec k ~scalars:[] ~stream_bufs_in:(bufs ins)
       ~stream_bufs_out:(bufs outs))

(* Contiguous maximal runs of hardware stages, in pipeline order. *)
let hw_runs (t : P.t) =
  let rec go acc current = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | s :: rest ->
      if P.in_hw t s then go acc (s :: current) rest
      else go (if current = [] then acc else List.rev current :: acc) [] rest
  in
  go [] [] P.all_stages

(* Hardware execution of one run of chained stages. *)
let run_hw exec (live : Soc_core.Flow.live) ~pixels (stages : P.stage list) =
  let spec = live.Soc_core.Flow.lbuild.Soc_core.Flow.spec in
  let in_run n = List.exists (fun s -> P.node_name s = n) stages in
  List.iter (fun s -> Exec.start_accel exec (P.node_name s)) stages;
  (* Drain channels first, then feeds. *)
  List.iter
    (fun (n, p) ->
      if in_run n then
        let addr, len = buffer ~pixels (stage_of_node n) p in
        Exec.start_read_dma exec ~channel:(Soc_core.Flow.channel live ~node:n ~port:p) ~addr
          ~len)
    (Soc_core.Spec.node_to_soc_links spec);
  List.iter
    (fun (n, p) ->
      if in_run n then
        let addr, len = buffer ~pixels (stage_of_node n) p in
        Exec.start_write_dma exec ~channel:(Soc_core.Flow.channel live ~node:n ~port:p) ~addr
          ~len)
    (Soc_core.Spec.soc_to_node_links spec);
  Exec.run_phase exec ~accels:(List.map P.node_name stages)

exception Wrong_output of string

(* Measure one partition on the simulated platform, given an already
   finished build record (from the staged flow or a farm batch) — or
   [None] for the all-software partition. Instantiates, runs the plan,
   checks the output against the golden model. *)
let measure ?(width = 32) ?(height = 32) ?(seed = 42) ?fifo_depth ?(mode = `Rtl)
    (build : Soc_core.Flow.build option) (t : P.t) : point =
  let pixels = width * height in
  let fifo_depth = match fifo_depth with Some d -> d | None -> max 1024 (pixels + 16) in
  let rgb = Soc_apps.Image.synthetic_rgb ~seed ~width ~height () in
  let kernels = Soc_apps.Otsu.kernels ~width ~height in
  let golden_img, golden_thr = Soc_apps.Otsu.Golden.run rgb in
  let live, exec =
    match build with
    | None ->
      let sys = Soc_platform.System.create () in
      (None, Exec.create sys)
    | Some build ->
      let live = Soc_core.Flow.instantiate ~fifo_depth ~mode build in
      (Some live, live.Soc_core.Flow.exec)
  in
  Soc_axi.Dram.write_block (Exec.dram exec) ~addr:rgb_addr rgb.Soc_apps.Image.rgb;
  let t0 = Exec.elapsed_cycles exec in
  (* Execute the plan: stages in pipeline order; a HW stage triggers its
     whole contiguous run once. *)
  let runs = hw_runs t in
  let executed = ref [] in
  List.iter
    (fun stage ->
      if P.in_hw t stage then begin
        match List.find_opt (fun run -> List.mem stage run) runs with
        | Some run when not (List.memq run !executed) ->
          executed := run :: !executed;
          (match live with
          | Some l -> run_hw exec l ~pixels run
          | None -> assert false)
        | _ -> ()
      end
      else run_sw exec ~kernels ~pixels stage)
    P.all_stages;
  let cycles = Exec.elapsed_cycles exec - t0 in
  (* Functional check: a DSE point that computes the wrong image is a bug,
     not a design point. *)
  let out_pixels = Soc_axi.Dram.read_block (Exec.dram exec) ~addr:out_addr ~len:pixels in
  let output = { Soc_apps.Image.width; height; pixels = out_pixels } in
  if not (Soc_apps.Image.equal output golden_img) then
    raise (Wrong_output (P.name t));
  let threshold =
    if t.P.otsu && t.P.seg then golden_thr (* never lands in DRAM *)
    else Soc_axi.Dram.read (Exec.dram exec) thresh_addr
  in
  let resources =
    match build with
    | Some b -> b.Soc_core.Flow.resources
    | None -> Soc_hls.Report.zero
  in
  let tool_seconds =
    match build with
    | Some b -> Soc_core.Toolsim.total b.Soc_core.Flow.tool_times
    | None -> 0.0
  in
  {
    partition = t;
    cycles;
    microseconds = Soc_platform.Config.pl_cycles_to_us (Exec.config exec) cycles;
    resources;
    tool_seconds;
    output;
    threshold;
  }
