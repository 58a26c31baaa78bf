(** Chaos harness for the case-study architectures: run an Otsu host
    program with a seeded (or explicit) fault campaign armed on the
    executive, the hardware phase wrapped in the fault-tolerant runtime,
    and the final segmented image checked bit-for-bit against the golden
    model. One {!outcome} holds the recovery report, the full fault
    narrative and the verdict. *)

module Exec = Soc_platform.Executive
module Fault = Soc_fault.Fault

type outcome = {
  arch : Graphs.arch;
  plan : Fault.plan;
  report : Exec.report;
  output_ok : bool;  (** final image and threshold bit-identical to golden *)
  cycles : int;
}

(* Verification hook of the hardware phase: every buffer it drains to
   DRAM holds its golden value. *)
let drains_golden (h : Otsu_runner.host) (ph : Otsu_runner.phases) () =
  let pixels = h.Otsu_runner.width * h.Otsu_runner.height in
  let gray = Otsu.Golden.gray_scale h.Otsu_runner.rgb in
  let golden = function
    | "imageOutCH" | "imageOutSEG" -> gray.Image.pixels
    | "histogram" -> Image.histogram gray
    | "probability" -> [| Otsu.Golden.otsu_threshold (Image.histogram gray) ~total:pixels |]
    | _ (* segmentedGrayImage *) -> (fst (Otsu.Golden.run h.Otsu_runner.rgb)).Image.pixels
  in
  List.for_all
    (fun (node, port) ->
      let addr, len = Otsu_runner.buffer ~pixels node port in
      Soc_axi.Dram.read_block (Exec.dram h.Otsu_runner.exec) ~addr ~len = golden port)
    ph.Otsu_runner.drains

let default_horizon = 20_000

(* The seed of the input image every campaign runs on. *)
let image_seed = 42

let run ?(width = 32) ?(height = 32) ?(fallback = true)
    ?(n_faults = 4) ?(horizon = default_horizon) ?include_permanent ?include_bit_flips
    ?scenario ?timeout ~seed (arch : Graphs.arch) : outcome =
  let _build, live = Otsu_runner.build_arch ~width ~height arch in
  let h = Otsu_runner.boot ~seed:image_seed ~width ~height (Some live) in
  let exec = h.Otsu_runner.exec in
  let t0 = Exec.elapsed_cycles exec in
  let ph = Otsu_runner.phases h in
  ph.Otsu_runner.pre ();
  (* Arm the campaign only around the hardware phase: injection cycles are
     relative to this point, and the faults target exactly the accelerated
     region the resilient runtime protects. Bit flips, when enabled, are
     confined to the output buffer so a flip is either overwritten by the
     phase or caught by verification. *)
  let plan =
    match scenario with
    | Some faults -> Fault.plan_of_faults ~seed faults
    | None ->
      let dram_range = Otsu_runner.buffer ~pixels:(width * height) "segment" "segmentedGrayImage" in
      Fault.plan_of_faults ~seed
        (Fault.random_campaign ~seed ~n:n_faults ~horizon ?include_permanent
           ?include_bit_flips (Exec.inventory ~dram_range exec))
  in
  Exec.set_fault_plan exec plan;
  let report =
    Fun.protect
      ~finally:(fun () -> Exec.clear_fault_plan exec)
      (fun () ->
        Exec.run_task_resilient exec ~task:ph.Otsu_runner.task ?timeout
          ~verify:(drains_golden h ph)
          ?fallback:(if fallback then Some ph.Otsu_runner.sw_fallback else None)
          ph.Otsu_runner.hw)
  in
  ph.Otsu_runner.post ();
  let cycles = Exec.elapsed_cycles exec - t0 in
  let golden, golden_thresh = Otsu.Golden.run h.Otsu_runner.rgb in
  {
    arch;
    plan;
    report;
    output_ok =
      Image.equal (Otsu_runner.read_output h) golden
      && Otsu_runner.read_threshold h = golden_thresh;
    cycles;
  }

let diags o =
  let module Diag = Soc_util.Diag in
  let subject = Graphs.arch_name o.arch in
  let mismatch =
    if o.output_ok then []
    else
      [ Diag.error ~code:"RUN311" ~subject
          "campaign output diverged from the golden model" ]
  in
  let degraded =
    match o.report.Exec.outcome with
    | Exec.Fallback ->
      [ Diag.warning ~code:"RUN310" ~subject
          (Printf.sprintf
             "hardware task degraded to its software fallback after %d attempts"
             o.report.Exec.attempts_made) ]
    | Exec.Hardware -> []
  in
  let retried =
    if o.report.Exec.outcome = Exec.Hardware && o.report.Exec.attempts_made > 1
    then
      [ Diag.info ~code:"RUN312" ~subject
          (Printf.sprintf "hardware recovery needed %d attempts"
             o.report.Exec.attempts_made) ]
    else []
  in
  Diag.sort (mismatch @ degraded @ retried)

let render_outcome o =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "=== %s: %s, output %s, %d cycles ===\n"
       (Graphs.arch_name o.arch)
       (Format.asprintf "%a" Exec.pp_report o.report)
       (if o.output_ok then "golden" else "MISMATCH")
       o.cycles);
  Buffer.add_string b (Fault.render_report ~label:(Graphs.arch_name o.arch) o.plan);
  Buffer.contents b
