(** Design points of the DSE: instantiate a partition's build, run the
    Otsu host program ({!Soc_apps.Otsu_runner}, the same plan the paper's
    four architectures use) and report time and the output image, checked
    bit-exactly against the golden model; [costs] prices the build. *)

module P = Partition

type run = {
  cycles : int;
  microseconds : float;
  output : Soc_apps.Image.t;
  threshold : int;
  fifo_peak : int; (* largest stream-FIFO high water; 0 without fabric *)
}

exception Wrong_output of string

(* Run one partition on the simulated platform, given an already finished
   build record (from the staged flow or a farm batch) — or [None] for
   the all-software partition. *)
let simulate ?(width = 32) ?(height = 32) ?(seed = 42) ?fifo_depth ?(mode = `Rtl)
    (build : Soc_core.Flow.build option) (t : P.t) : run =
  let fifo_depth = match fifo_depth with Some d -> d | None -> max 1024 ((width * height) + 16) in
  let live = Option.map (fun b -> Soc_core.Flow.instantiate ~fifo_depth ~mode b) build in
  let r = Soc_apps.Otsu_runner.execute ~seed ~label:(P.name t) ~width ~height live in
  (* Functional check: a DSE point that computes the wrong image is a bug,
     not a design point. *)
  let golden, _ = Soc_apps.Otsu_runner.golden ~width ~height ~seed () in
  if not (Soc_apps.Image.equal r.Soc_apps.Otsu_runner.output golden) then
    raise (Wrong_output (P.name t));
  let fifo_peak =
    Option.fold ~none:0 live ~some:(fun (l : Soc_core.Flow.live) ->
        List.fold_left
          (fun m (f : Soc_axi.Fifo.t) -> max m f.Soc_axi.Fifo.high_water)
          0 l.Soc_core.Flow.system.Soc_platform.System.fifos)
  in
  {
    cycles = r.Soc_apps.Otsu_runner.cycles;
    microseconds = r.Soc_apps.Otsu_runner.microseconds;
    output = r.Soc_apps.Otsu_runner.output;
    threshold = r.Soc_apps.Otsu_runner.threshold;
    fifo_peak;
  }

let costs (build : Soc_core.Flow.build option) =
  match build with
  | Some b -> (b.Soc_core.Flow.resources, Soc_core.Toolsim.total b.Soc_core.Flow.tool_times)
  | None -> (Soc_hls.Report.zero, 0.0)
