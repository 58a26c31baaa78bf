(** Software generation (Section V): the Linux device tree fragment, the
    boot-file set for PetaLinux, and the C API the application links
    against — [readDMA]/[writeDMA] for stream accelerators plus
    register-level wrappers for AXI-Lite accelerators. *)

type boot_artifacts = {
  device_tree : string; (* devicetree.dtb source *)
  boot_bin_manifest : string list; (* contents of BOOT.BIN *)
  api_header : string; (* generated C header *)
  api_source : string; (* generated C implementation *)
  dev_entries : string list; (* /dev nodes the driver exposes *)
}

let sanitize = Soc_util.Ident.sanitize

let dt_node ~label ~compatible ~base ~size extra =
  let lines =
    [
      Printf.sprintf "  %s: %s@%08x {" label label base;
      Printf.sprintf "    compatible = \"%s\";" compatible;
      Printf.sprintf "    reg = <0x%08x 0x%x>;" base size;
    ]
    @ List.map (fun l -> "    " ^ l) extra
    @ [ "  };" ]
  in
  String.concat "\n" lines

let device_tree (spec : Spec.t) ~(address_map : (string * int * int) list) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "/dts-v1/;\n/ {\n";
  Buffer.add_string buf "  compatible = \"xlnx,zynq-zed\";\n";
  Buffer.add_string buf "  amba_pl {\n";
  Buffer.add_string buf "    #address-cells = <1>;\n    #size-cells = <1>;\n";
  List.iter
    (fun (owner, base, size) ->
      let is_dma =
        String.length owner >= 4 && String.sub owner 0 4 = "dma_"
      in
      let compatible =
        if is_dma then "xlnx,axi-dma-1.00.a" else "xlnx,hls-accelerator-1.0"
      in
      let extra =
        if is_dma then [ "dma-channels = <1>;"; "interrupts = <0 29 4>;" ] else []
      in
      Buffer.add_string buf (dt_node ~label:(sanitize owner) ~compatible ~base ~size extra);
      Buffer.add_char buf '\n')
    address_map;
  ignore spec;
  Buffer.add_string buf "  };\n};\n";
  Buffer.contents buf

(* C wrapper per AXI-Lite node: one setter per register argument, a start
   call and a blocking wait. Stream nodes get readDMA/writeDMA pairs bound
   to their /dev entry. *)
let api_header (spec : Spec.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "#ifndef TG_GENERATED_API_H\n#define TG_GENERATED_API_H\n";
  Buffer.add_string buf "#include <stdint.h>\n#include <stddef.h>\n\n";
  Buffer.add_string buf "/* DMA driver API (see ZedBoard_Linux_DMA driver) */\n";
  Buffer.add_string buf "int writeDMA(const char *dev, const uint32_t *buf, size_t words);\n";
  Buffer.add_string buf "int readDMA(const char *dev, uint32_t *buf, size_t words);\n\n";
  List.iter
    (fun (n : Spec.node_spec) ->
      let lite_ports = List.filter (fun (_, k) -> k = Spec.Lite) n.node_ports in
      if lite_ports <> [] then begin
        let args =
          String.concat ", " (List.map (fun (p, _) -> "uint32_t " ^ p) lite_ports)
        in
        Buffer.add_string buf
          (Printf.sprintf "/* AXI-Lite accelerator %s */\n" n.node_name);
        Buffer.add_string buf
          (Printf.sprintf "void %s_start(%s);\n" (sanitize n.node_name) args);
        Buffer.add_string buf
          (Printf.sprintf "uint32_t %s_wait(void);\n\n" (sanitize n.node_name))
      end)
    spec.nodes;
  Buffer.add_string buf "#endif\n";
  Buffer.contents buf

let api_source (spec : Spec.t) ~(address_map : (string * int * int) list) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "#include \"tg_generated_api.h\"\n";
  Buffer.add_string buf "#include <fcntl.h>\n#include <sys/mman.h>\n#include <unistd.h>\n\n";
  Buffer.add_string buf "static volatile uint32_t *map_regs(uint32_t base) {\n";
  Buffer.add_string buf "  int fd = open(\"/dev/mem\", O_RDWR | O_SYNC);\n";
  Buffer.add_string buf
    "  return (volatile uint32_t *)mmap(0, 0x10000, PROT_READ | PROT_WRITE, MAP_SHARED, fd, base);\n}\n\n";
  List.iter
    (fun (n : Spec.node_spec) ->
      let lite_ports = List.filter (fun (_, k) -> k = Spec.Lite) n.node_ports in
      if lite_ports <> [] then begin
        let base =
          match List.find_opt (fun (o, _, _) -> o = n.node_name) address_map with
          | Some (_, b, _) -> b
          | None -> 0
        in
        let c_name = sanitize n.node_name in
        let args =
          String.concat ", " (List.map (fun (p, _) -> "uint32_t " ^ p) lite_ports)
        in
        Buffer.add_string buf
          (Printf.sprintf "void %s_start(%s) {\n  volatile uint32_t *r = map_regs(0x%08x);\n"
             c_name args base);
        List.iteri
          (fun idx (p, _) ->
            Buffer.add_string buf
              (Printf.sprintf "  r[%d] = %s;\n" (Soc_axi.Lite.arg_offset idx / 4) p))
          lite_ports;
        Buffer.add_string buf "  r[0] = 1; /* ap_start */\n}\n\n";
        Buffer.add_string buf
          (Printf.sprintf
             "uint32_t %s_wait(void) {\n  volatile uint32_t *r = map_regs(0x%08x);\n  while (!(r[1] & 1)) ;\n  return r[%d];\n}\n\n"
             c_name base
             (Soc_axi.Lite.arg_offset (List.length lite_ports - 1) / 4))
      end)
    spec.nodes;
  Buffer.contents buf

let generate (spec : Spec.t) ~address_map : boot_artifacts =
  let dmas = Tcl.dma_plans spec in
  {
    device_tree = device_tree spec ~address_map;
    boot_bin_manifest =
      [ "zynq_fsbl.elf"; spec.design_name ^ "_bd_wrapper.bit"; "u-boot.elf"; "uImage";
        "devicetree.dtb"; "uramdisk.image.gz" ];
    api_header = api_header spec;
    api_source = api_source spec ~address_map;
    dev_entries = List.map (fun d -> "/dev/" ^ d.Tcl.dma_name) dmas;
  }
