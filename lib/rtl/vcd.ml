(** Value-change-dump (VCD) recording of a running simulation, viewable in
    GTKWave & co. The recorder snapshots a chosen set of signals once per
    cycle (call [sample] after [Sim.settle]); [to_string] renders the
    standard VCD text with only actual value changes emitted. *)

type probe = { signal : Netlist.signal; id : string; mutable last : int option }

type t = {
  read : Netlist.signal -> int;
  module_name : string;
  probes : probe list;
  buf : Buffer.t;
  mutable time : int;
  mutable header_done : bool;
}

(* VCD identifier alphabet: printable ASCII 33..126. *)
let id_of_index idx =
  let base = 94 in
  let rec go i acc =
    let c = Char.chr (33 + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go idx ""

let create_with (net : Netlist.t) ~read =
  (* The probe set: ports and registers (not every internal wire). *)
  let chosen =
    List.rev net.Netlist.inputs
    @ List.rev net.Netlist.outputs
    @ List.rev_map (fun (r : Netlist.reg) -> r.Netlist.q) net.Netlist.regs
  in
  {
    read;
    module_name = net.Netlist.mod_name;
    probes =
      List.mapi (fun i s -> { signal = s; id = id_of_index i; last = None }) chosen;
    buf = Buffer.create 4096;
    time = 0;
    header_done = false;
  }

let binary_of_int ~width v =
  String.init width (fun i ->
      if v land (1 lsl (width - 1 - i)) <> 0 then '1' else '0')

let emit_header t =
  Buffer.add_string t.buf "$date reproducible $end\n";
  Buffer.add_string t.buf "$version soc-dsl-repro rtl simulator $end\n";
  Buffer.add_string t.buf "$timescale 10ns $end\n";
  Buffer.add_string t.buf (Printf.sprintf "$scope module %s $end\n" (Soc_util.Ident.sanitize t.module_name));
  List.iter
    (fun p ->
      Buffer.add_string t.buf
        (Printf.sprintf "$var wire %d %s %s $end\n" p.signal.Netlist.width p.id
           (Soc_util.Ident.sanitize p.signal.Netlist.sname)))
    t.probes;
  Buffer.add_string t.buf "$upscope $end\n$enddefinitions $end\n";
  t.header_done <- true

let create net sim = create_with net ~read:(Sim.value sim)

(* Record the current (settled) values; emits only changes. *)
let sample t =
  if not t.header_done then emit_header t;
  let changes =
    List.filter
      (fun p ->
        let v = t.read p.signal in
        match p.last with Some prev when prev = v -> false | _ -> true)
      t.probes
  in
  if changes <> [] then begin
    Buffer.add_string t.buf (Printf.sprintf "#%d\n" t.time);
    List.iter
      (fun p ->
        let v = t.read p.signal in
        p.last <- Some v;
        if p.signal.Netlist.width = 1 then
          Buffer.add_string t.buf (Printf.sprintf "%d%s\n" (v land 1) p.id)
        else
          Buffer.add_string t.buf
            (Printf.sprintf "b%s %s\n" (binary_of_int ~width:p.signal.Netlist.width v) p.id))
      changes
  end;
  t.time <- t.time + 1

let to_string t =
  if not t.header_done then emit_header t;
  Buffer.contents t.buf
