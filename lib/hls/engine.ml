(** Entry point of the HLS substrate: the role Vivado HLS plays in the
    paper's flow. [synthesize] takes a kernel (the "synthesizable C") and
    produces the accelerator: RTL netlist, resource report and static
    performance estimates. The directives file is a rendering computed on
    demand, never part of the result. *)

type config = {
  strategy : Schedule.strategy;
  resources : Schedule.resources;
  optimize : bool; (* run Soc_kernel.Opt before scheduling *)
}

let default_config =
  { strategy = Schedule.List_scheduling; resources = Schedule.default_resources;
    optimize = true }

type accel = {
  fsmd : Fsmd.t;
  report : Report.accel_report;
  perf : Perf.report;
}

(* The "directives file" mirrors what the paper's tool writes for Vivado
   HLS: one INTERFACE pragma per port selecting axilite or axis. *)
let directives_of_kernel (k : Soc_kernel.Ast.kernel) =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      match p with
      | Soc_kernel.Ast.Scalar { pname; _ } ->
        Buffer.add_string buf
          (Printf.sprintf "set_directive_interface -mode s_axilite \"%s\" %s\n" k.kname pname)
      | Soc_kernel.Ast.Stream { pname; _ } ->
        Buffer.add_string buf
          (Printf.sprintf "set_directive_interface -mode axis \"%s\" %s\n" k.kname pname))
    k.ports;
  Buffer.add_string buf
    (Printf.sprintf "set_directive_interface -mode s_axilite \"%s\" return\n" k.kname);
  Buffer.contents buf

(* Global count of real synthesis runs. The farm's cache-effectiveness
   guarantees are stated in terms of this counter: a cached build must
   perform strictly fewer invocations than independent builds. *)
let invocations = Atomic.make 0

let invocation_count () = Atomic.get invocations

let synthesize ?(config = default_config) (k : Soc_kernel.Ast.kernel) : accel =
  (* Service-fault injection point: an armed behaviour for this kernel
     name raises or hangs here, exactly like a real synthesis bug bound
     to one input. Stepped before the invocation counter so poisoned
     requests never count as engine work. *)
  Soc_fault.Fault.Service.step Soc_fault.Fault.Service.Hls ~label:k.kname ();
  Atomic.incr invocations;
  let cfg = Soc_kernel.Cfg.of_kernel k in
  if config.optimize then ignore (Soc_kernel.Opt.run cfg);
  let sched = Schedule.of_cfg ~strategy:config.strategy ~resources:config.resources cfg in
  (match Schedule.verify ~resources:config.resources sched with
  | [] -> ()
  | violations ->
    failwith
      (Printf.sprintf "HLS internal error: illegal schedule for %s: %s" k.kname
         (String.concat "; "
            (List.map (Format.asprintf "%a" Schedule.pp_violation) violations))));
  let fsmd = Fsmd.generate sched in
  let resources = Report.of_netlist fsmd.netlist in
  let report =
    {
      Report.name = k.kname;
      resources;
      fsm_states = fsmd.total_states;
      registers = Soc_rtl.Netlist.reg_count fsmd.netlist;
      static_block_latency = Schedule.static_block_latencies sched;
    }
  in
  { fsmd; report; perf = Perf.analyze sched }
