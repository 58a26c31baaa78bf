(** A composed hardware system: the simulated counterpart of the block
    design the paper's tool builds in Vivado IP integrator — Zynq PS (DRAM +
    GP port), AXI-Lite interconnect, accelerators, DMA cores and stream
    FIFOs. *)

type t = {
  config : Config.t;
  dram : Soc_axi.Dram.t;
  ic : Soc_axi.Lite.interconnect;
  mutable accels : (string * Accel_inst.t) list;
  mutable fifos : Soc_axi.Fifo.t list;
  mutable mm2s : (string * Soc_axi.Dma.mm2s) list;
  mutable s2mm : (string * Soc_axi.Dma.s2mm) list;
}

let create ?(config = Config.zedboard) ?(dram_words = 1 lsl 22) () =
  {
    config;
    dram = Soc_axi.Dram.create ~words:dram_words ();
    ic = Soc_axi.Lite.create_interconnect ();
    accels = [];
    fifos = [];
    mm2s = [];
    s2mm = [];
  }

let add_accel t ~name (fsmd : Soc_hls.Fsmd.t) =
  if List.mem_assoc name t.accels then invalid_arg ("System.add_accel: duplicate " ^ name);
  let regfile = Soc_axi.Lite.attach t.ic ~owner:name ~size:0x1_0000 in
  let inst = Accel_inst.create ~name ~fsmd ~regfile in
  t.accels <- t.accels @ [ (name, inst) ];
  inst

(* Behavioural instance: the kernel itself, interpreted, no HLS needed. *)
let add_accel_behavioral t ~name (kernel : Soc_kernel.Ast.kernel) =
  if List.mem_assoc name t.accels then
    invalid_arg ("System.add_accel_behavioral: duplicate " ^ name);
  let regfile = Soc_axi.Lite.attach t.ic ~owner:name ~size:0x1_0000 in
  let inst = Accel_inst.create_behavioral ~name ~kernel ~regfile in
  t.accels <- t.accels @ [ (name, inst) ];
  inst

let accel t name =
  match List.assoc_opt name t.accels with
  | Some a -> a
  | None -> invalid_arg ("System.accel: unknown accelerator " ^ name)

let new_fifo t ~name =
  let f = Soc_axi.Fifo.create ~name ~capacity:t.config.Config.default_fifo_depth in
  t.fifos <- f :: t.fifos;
  f

(* Direct accelerator-to-accelerator stream link (an internal edge of a
   dataflow phase). *)
let link_stream t ~src:(src_accel, src_port) ~dst:(dst_accel, dst_port) =
  let name = Printf.sprintf "%s.%s->%s.%s" src_accel src_port dst_accel dst_port in
  let f = new_fifo t ~name in
  Accel_inst.bind_output (accel t src_accel) ~port:src_port f;
  Accel_inst.bind_input (accel t dst_accel) ~port:dst_port f;
  f

(* DMA read channel feeding an accelerator input ('soc -> node). *)
let add_mm2s t ~dst:(dst_accel, dst_port) =
  let name = Printf.sprintf "dma_mm2s->%s.%s" dst_accel dst_port in
  let f = new_fifo t ~name in
  Accel_inst.bind_input (accel t dst_accel) ~port:dst_port f;
  let dma = Soc_axi.Dma.create_mm2s ~name ~dram:t.dram ~dest:f in
  t.mm2s <- (name, dma) :: t.mm2s;
  (name, dma)

(* DMA write channel draining an accelerator output (node -> 'soc). *)
let add_s2mm t ~src:(src_accel, src_port) =
  let name = Printf.sprintf "%s.%s->dma_s2mm" src_accel src_port in
  let f = new_fifo t ~name in
  Accel_inst.bind_output (accel t src_accel) ~port:src_port f;
  let dma = Soc_axi.Dma.create_s2mm ~name ~dram:t.dram ~src:f in
  t.s2mm <- (name, dma) :: t.s2mm;
  (name, dma)

(* Static design-rule checks, run before co-simulation: every stream port
   wired, DMA channel names unique, each input FIFO fed by exactly one
   writer, no orphaned FIFOs. Reported as diagnostics so the flow and
   [socdsl check] render them alongside the spec-level checks. *)
let validate t =
  let module Diag = Soc_util.Diag in
  let unbound =
    List.concat_map
      (fun (name, inst) ->
        List.map
          (fun p ->
            Diag.error ~code:"SOC050" ~subject:(name ^ "." ^ p)
              "integration left this stream port unbound")
          (Accel_inst.unbound_streams inst))
      t.accels
  in
  let dma_names = List.map fst t.mm2s @ List.map fst t.s2mm in
  let duplicate_dmas =
    List.filter_map
      (fun name ->
        match List.filter (String.equal name) dma_names with
        | _ :: _ :: _ ->
          Some
            (Diag.error ~code:"SOC051" ~subject:name "duplicate DMA channel")
        | _ -> None)
      (List.sort_uniq compare dma_names)
  in
  (* A FIFO feeding an accelerator input must have exactly one writer:
     either one accelerator output or one MM2S channel, never both. *)
  let writers_of f =
    List.concat_map
      (fun (name, inst) ->
        List.filter_map
          (fun (port, f') ->
            if f' == f then Some (name ^ "." ^ port) else None)
          (Accel_inst.output_bindings inst))
      t.accels
    @ List.filter_map
        (fun (name, (m : Soc_axi.Dma.mm2s)) ->
          if m.dest == f then Some name else None)
        t.mm2s
  in
  let double_driven =
    List.concat_map
      (fun (name, inst) ->
        List.filter_map
          (fun (port, f) ->
            match writers_of f with
            | _ :: _ :: _ as ws ->
              Some
                (Diag.error ~code:"SOC053" ~subject:(name ^ "." ^ port)
                   (Printf.sprintf
                      "stream port driven by multiple writers: %s"
                      (String.concat ", " (List.sort compare ws))))
            | _ -> None)
          (Accel_inst.input_bindings inst))
      t.accels
  in
  let attached =
    List.concat_map (fun (_, inst) -> Accel_inst.bound_fifos inst) t.accels
    @ List.map (fun (_, (m : Soc_axi.Dma.mm2s)) -> m.dest) t.mm2s
    @ List.map (fun (_, (s : Soc_axi.Dma.s2mm)) -> s.src) t.s2mm
  in
  let orphans =
    List.filter_map
      (fun f ->
        if List.memq f attached then None
        else
          Some
            (Diag.warning ~code:"SOC052" ~subject:f.Soc_axi.Fifo.name
               "FIFO attached to no accelerator or DMA engine")
      )
      t.fifos
  in
  Diag.sort (unbound @ duplicate_dmas @ double_driven @ orphans)

let protocol_violations t =
  List.concat_map (fun (_, inst) -> Accel_inst.protocol_violations inst) t.accels

let fifo_stats t = List.rev_map Soc_axi.Fifo.stats t.fifos
