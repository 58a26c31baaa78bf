(** Hardware/software partitions of the Otsu pipeline.

    The paper performs partitioning manually and leaves DSE-tool integration
    as future work (Section II-C); this library implements that extension.
    A partition selects which of the four accelerable functions run in
    hardware. [spec_of] generates the corresponding DSL system following the
    same rule the paper's four architectures follow: adjacent hardware
    stages are chained with direct AXI-Stream links, every other data edge
    crosses the 'soc boundary through a DMA channel. *)

type stage = Gray | Hist | OtsuM | Seg

let all_stages = [ Gray; Hist; OtsuM; Seg ]

let node_name = function
  | Gray -> "grayScale"
  | Hist -> "computeHistogram"
  | OtsuM -> "halfProbability"
  | Seg -> "segment"

type t = { gray : bool; hist : bool; otsu : bool; seg : bool }

let all_sw = { gray = false; hist = false; otsu = false; seg = false }

let in_hw t = function
  | Gray -> t.gray
  | Hist -> t.hist
  | OtsuM -> t.otsu
  | Seg -> t.seg

let with_stage t stage value =
  match stage with
  | Gray -> { t with gray = value }
  | Hist -> { t with hist = value }
  | OtsuM -> { t with otsu = value }
  | Seg -> { t with seg = value }

let hw_stages t = List.filter (in_hw t) all_stages

let is_all_sw t = hw_stages t = []

let signature t =
  String.concat ""
    (List.map (fun s -> if in_hw t s then "H" else "S") all_stages)

let name t = if is_all_sw t then "SW" else "hw_" ^ signature t

let of_signature s =
  if String.length s <> 4 then invalid_arg "Partition.of_signature";
  let b i = s.[i] = 'H' in
  { gray = b 0; hist = b 1; otsu = b 2; seg = b 3 }

(* All 2^4 partitions, in Gray-code-free binary order. *)
let enumerate () =
  List.init 16 (fun i ->
      {
        gray = i land 8 <> 0;
        hist = i land 4 <> 0;
        otsu = i land 2 <> 0;
        seg = i land 1 <> 0;
      })

(* The paper's four architectures as partitions (Table I). *)
let arch1 = { all_sw with hist = true }
let arch2 = { all_sw with otsu = true }
let arch3 = { all_sw with hist = true; otsu = true }
let arch4 = { gray = true; hist = true; otsu = true; seg = true }

(* ------------------------------------------------------------------ *)
(* Data edges of the application (Fig. 8 refined to ports)             *)
(* ------------------------------------------------------------------ *)

(* src stage, src port, dst stage, dst port, stages strictly between them
   in pipeline order (all must be HW for a direct link). *)
let data_edges =
  [
    (Gray, "imageOutCH", Hist, "grayScaleImage", []);
    (Gray, "imageOutSEG", Seg, "grayScaleImage", [ Hist; OtsuM ]);
    (Hist, "histogram", OtsuM, "histogram", []);
    (OtsuM, "probability", Seg, "otsuThreshold", []);
  ]

let direct_link t (src, _, dst, _, between) =
  in_hw t src && in_hw t dst && List.for_all (in_hw t) between

(* DSL spec for a partition: HW nodes plus the links derived from the
   direct-link rule; SW-side edges cross 'soc. *)
let spec_of (t : t) : Soc_core.Spec.t =
  let open Soc_core.Spec in
  let port_lists =
    [
      (Gray, [ "imageIn"; "imageOutCH"; "imageOutSEG" ]);
      (Hist, [ "grayScaleImage"; "histogram" ]);
      (OtsuM, [ "histogram"; "probability" ]);
      (Seg, [ "grayScaleImage"; "otsuThreshold"; "segmentedGrayImage" ]);
    ]
  in
  let nodes =
    List.filter_map
      (fun (stage, ports) ->
        if in_hw t stage then
          Some (make_node (node_name stage) (List.map (fun p -> (p, Stream)) ports))
        else None)
      port_lists
  in
  let edges = ref [] in
  let add e = edges := e :: !edges in
  (* Pipeline entry/exit. *)
  if t.gray then add (link_edge Soc (Port (node_name Gray, "imageIn")));
  if t.seg then add (link_edge (Port (node_name Seg, "segmentedGrayImage")) Soc);
  List.iter
    (fun ((src, sport, dst, dport, _) as e) ->
      match (in_hw t src, in_hw t dst) with
      | true, true when direct_link t e ->
        add (link_edge (Port (node_name src, sport)) (Port (node_name dst, dport)))
      | true, true ->
        (* Both HW but intermediate stages SW: route both through 'soc. *)
        add (link_edge (Port (node_name src, sport)) Soc);
        add (link_edge Soc (Port (node_name dst, dport)))
      | true, false -> add (link_edge (Port (node_name src, sport)) Soc)
      | false, true -> add (link_edge Soc (Port (node_name dst, dport)))
      | false, false -> ())
    data_edges;
  let spec = { design_name = name t; nodes; edges = List.rev !edges } in
  if not (is_all_sw t) then validate_exn spec;
  spec

let kernels_of (t : t) ~width ~height =
  let all = Soc_apps.Otsu.kernels ~width ~height in
  List.filter_map
    (fun stage ->
      if in_hw t stage then Some (node_name stage, List.assoc (node_name stage) all)
      else None)
    all_stages
