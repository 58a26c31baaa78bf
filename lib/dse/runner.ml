(** Design points of the DSE: instantiate a partition's build, run the
    Otsu host program ({!Soc_apps.Otsu_runner}, the same plan the paper's
    four architectures use) and report time, resources and the output
    image, checked bit-exactly against the golden model. *)

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

exception Wrong_output of string

(* Measure one partition on the simulated platform, given an already
   finished build record (from the staged flow or a farm batch) — or
   [None] for the all-software partition. *)
let measure ?(width = 32) ?(height = 32) ?(seed = 42) ?fifo_depth ?(mode = `Rtl)
    (build : Soc_core.Flow.build option) (t : P.t) : point =
  let fifo_depth = match fifo_depth with Some d -> d | None -> max 1024 ((width * height) + 16) in
  let live = Option.map (fun b -> Soc_core.Flow.instantiate ~fifo_depth ~mode b) build in
  let r = Soc_apps.Otsu_runner.execute ~seed ~label:(P.name t) ~width ~height live in
  (* Functional check: a DSE point that computes the wrong image is a bug,
     not a design point. *)
  let golden, _ = Soc_apps.Otsu_runner.golden ~width ~height ~seed () in
  if not (Soc_apps.Image.equal r.Soc_apps.Otsu_runner.output golden) then
    raise (Wrong_output (P.name t));
  let resources, tool_seconds =
    match build with
    | Some b -> (b.Soc_core.Flow.resources, Soc_core.Toolsim.total b.Soc_core.Flow.tool_times)
    | None -> (Soc_hls.Report.zero, 0.0)
  in
  {
    partition = t;
    cycles = r.Soc_apps.Otsu_runner.cycles;
    microseconds = r.Soc_apps.Otsu_runner.microseconds;
    resources;
    tool_seconds;
    output = r.Soc_apps.Otsu_runner.output;
    threshold = r.Soc_apps.Otsu_runner.threshold;
  }
