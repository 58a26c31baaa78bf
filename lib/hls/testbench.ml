(** Standalone accelerator testbench.

    Runs a synthesized FSMD in the RTL simulator (through the pluggable
    {!Soc_rtl_compile.Engine} backend) with ideal stream sources
    (always valid while data remains, data held until the handshake) and
    sinks (always ready). Used for the differential tests interpreter-vs-RTL
    and to measure true accelerator latency in isolation. *)

module Sim = Soc_rtl_compile.Engine

type result = {
  cycles : int;
  out_scalars : (string * int) list;
  out_streams : (string * int list) list;
}

exception Timeout of string

(* Cycle budget before a run counts as hung. *)
let max_cycles = 5_000_000

let run ?(scalars = []) ?(streams = []) (accel : Fsmd.t) : result =
  let sim = Sim.create accel.netlist in
  let in_queues =
    List.map
      (fun (port, _) ->
        let q = Queue.create () in
        (match List.assoc_opt port streams with
        | Some data -> List.iter (fun v -> Queue.push v q) data
        | None -> ());
        (port, q))
      accel.stream_in
  in
  let out_bufs = List.map (fun (port, _) -> (port, ref [])) accel.stream_out in
  List.iter
    (fun (pname, signal) ->
      let v = match List.assoc_opt pname scalars with Some v -> v | None -> 0 in
      Sim.set_input sim signal v)
    accel.scalar_in;
  Sim.set_input sim accel.ap_start 1;
  let done_seen = ref false in
  let cycles = ref 0 in
  while (not !done_seen) && !cycles < max_cycles do
    (* Drive stream inputs for this cycle. *)
    List.iter
      (fun (port, q) ->
        let sigs = List.assoc port accel.stream_in in
        if Queue.is_empty q then Sim.set_input sim sigs.Fsmd.in_tvalid 0
        else begin
          Sim.set_input sim sigs.Fsmd.in_tvalid 1;
          Sim.set_input sim sigs.Fsmd.in_tdata (Queue.peek q)
        end)
      in_queues;
    List.iter
      (fun (port, _) ->
        let sigs = List.assoc port accel.stream_out in
        Sim.set_input sim sigs.Fsmd.out_tready 1)
      out_bufs;
    Sim.settle sim;
    (* Commit handshakes that fire at this edge. *)
    List.iter
      (fun (port, q) ->
        let sigs = List.assoc port accel.stream_in in
        if (not (Queue.is_empty q)) && Sim.value sim sigs.Fsmd.in_tready = 1 then
          ignore (Queue.pop q))
      in_queues;
    List.iter
      (fun (port, buf) ->
        let sigs = List.assoc port accel.stream_out in
        if Sim.value sim sigs.Fsmd.out_tvalid = 1 then
          buf := Sim.value sim sigs.Fsmd.out_tdata :: !buf)
      out_bufs;
    if Sim.value sim accel.ap_done = 1 then done_seen := true;
    Sim.tick sim;
    incr cycles
  done;
  if not !done_seen then
    raise (Timeout (accel.netlist.Soc_rtl.Netlist.mod_name ^ ": accelerator did not finish"));
  let out_scalars =
    List.map (fun (pname, signal) -> (pname, Sim.value sim signal)) accel.scalar_out
  in
  {
    cycles = !cycles;
    out_scalars;
    out_streams = List.map (fun (port, buf) -> (port, List.rev !buf)) out_bufs;
  }
