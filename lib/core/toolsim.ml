(** Runtime model of the commercial tools the flow coordinates.

    The paper's Figure 9 reports the wall-clock breakdown of generating the
    four case-study architectures with Vivado HLS + Vivado 2014.2 on a
    workstation (42 minutes in total; ~6 s to compile the Scala task graph;
    ~50 s to generate the Vivado project; HLS runs once per function). We
    cannot run Xilinx tools in this environment, so phase durations come
    from a deterministic cost model with those anchor points: HLS time grows
    with kernel complexity, synthesis/implementation time with the LUT count
    of the integrated system. *)

type phase = Scala_compile | Hls | Project_gen | Synthesis | Implementation | Bitgen

let phase_name = function
  | Scala_compile -> "SCALA"
  | Hls -> "HLS"
  | Project_gen -> "PROJECT"
  | Synthesis -> "SYNTH"
  | Implementation -> "IMPL"
  | Bitgen -> "BITGEN"

let all_phases = [ Scala_compile; Hls; Project_gen; Synthesis; Implementation; Bitgen ]

type breakdown = {
  arch : string;
  seconds : (phase * float) list;
}

let total b = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 b.seconds

(* Anchors from Section VI.C. *)
let scala_time ~dsl_lines = 6.0 +. (0.05 *. float_of_int dsl_lines)

let hls_time_per_kernel ~complexity = 24.0 +. (1.1 *. float_of_int complexity)

let project_gen_time ~cells = 26.0 +. (2.4 *. float_of_int cells)

let synthesis_time ~luts = 85.0 +. (0.011 *. float_of_int luts)

let implementation_time ~luts = 130.0 +. (0.017 *. float_of_int luts)

let bitgen_time = 42.0

(* Reuse models the paper's claim: "the generation of the hardware cores is
   done only once for each function" — a kernel whose accelerator is reused
   from an earlier build costs nothing. Who decides what counts as reused is
   the caller (the farm attributes it by content hash and batch order). *)
type kernel_cost = { kname : string; complexity : int; reused : bool }

let estimate_costed ~arch ~dsl_lines ~(kernel_costs : kernel_cost list) ~cells ~luts :
    breakdown =
  let hls =
    List.fold_left
      (fun acc kc ->
        if kc.reused then acc else acc +. hls_time_per_kernel ~complexity:kc.complexity)
      0.0 kernel_costs
  in
  {
    arch;
    seconds =
      [
        (Scala_compile, scala_time ~dsl_lines);
        (Hls, hls);
        (Project_gen, project_gen_time ~cells);
        (Synthesis, synthesis_time ~luts);
        (Implementation, implementation_time ~luts);
        (Bitgen, bitgen_time);
      ];
  }

let pp fmt b =
  Format.fprintf fmt "%s:" b.arch;
  List.iter (fun (p, s) -> Format.fprintf fmt " %s=%.0fs" (phase_name p) s) b.seconds;
  Format.fprintf fmt " total=%.0fs" (total b)
