(* Per-layer probes run after the timed window of a traced run: each calls
   one layer's public functions directly and records a span around it. *)

open Util
module Flow = Soc_core.Flow
module Cache = Soc_farm.Cache
module Journal = Soc_farm.Journal
module Protocol = Soc_serve.Protocol

let fifo_depth = Soc_platform.Config.zedboard.Soc_platform.Config.default_fifo_depth

(* The flow of one design, stage by stage, on a fresh cache: parse of its
   printed source, pre-flight analysis, HLS (all misses), RTL lint, then
   integration through assembly. *)
let staged_flow spans ~hls_config (entries : Soc_farm.Jobgraph.entry list) =
  List.iter
    (fun (e : Soc_farm.Jobgraph.entry) ->
      let spec = e.Soc_farm.Jobgraph.spec and kernels = e.Soc_farm.Jobgraph.kernels in
      let dsl_source = Soc_core.Printer.to_source spec in
      ignore (Spans.probe spans "parse" (fun () -> Soc_core.Parser.parse dsl_source));
      ignore (Spans.probe spans "analyze" (fun () -> Flow.pre_flight spec ~kernels));
      let cache = Cache.create () in
      let impls_o =
        Spans.probe spans "hls" (fun () ->
            Flow.synthesize_impls ~hls:(Cache.hls_engine cache) ~hls_config
              (Flow.pair_kernels spec ~kernels))
      in
      let impls = List.map fst impls_o in
      Spans.probe spans "lint" (fun () -> Flow.lint_impls impls);
      ignore
        (Spans.probe spans "integrate" (fun () ->
             let integ = Flow.integrate spec in
             let resources_by_core, resources = Flow.aggregate_resources spec ~fifo_depth impls in
             let sw = Flow.generate_software spec integ in
             let tool_times = Flow.estimate_tools spec ~dsl_source impls_o integ ~resources in
             Flow.assemble spec ~dsl_source impls integ ~resources ~resources_by_core ~sw ~tool_times)))
    entries

let staged_metrics spans =
  List.map
    (fun n -> m (n ^ ".ms") "ms" (Spans.median_ms spans n))
    [ "parse"; "analyze"; "hls"; "lint"; "integrate" ]

(* Round trip of every frame through the codec: encode, print, parse,
   decode. Returns per-frame times (s) and the printed sizes. *)
let codec requests responses =
  let one encode decode x =
    let (s, _), d =
      time (fun () ->
          let s = Protocol.to_string (encode x) in
          (s, decode (Protocol.of_string s)))
    in
    (d, String.length s)
  in
  List.map (one Protocol.encode_request Protocol.decode_request) requests
  @ List.map (one Protocol.encode_response Protocol.decode_response) responses

let codec_metrics requests responses =
  let samples = List.concat (List.init 20 (fun _ -> codec requests responses)) in
  [ m "protocol.codec_us" "us" (1e6 *. median (List.map fst samples));
    m "protocol.frame_bytes" "bytes"
      (float_of_int (isum (List.map snd samples)) /. float_of_int (max 1 (List.length samples))) ]

(* Cache find/store on the run's distinct kernel keys: each round stores
   through a fresh on-disk cache and finds through a second instance on
   the same directory, so every find reads and verifies the disk entry.
   Journal appends go through a fresh fsync'd journal. *)
let cache_metrics spans ~hls_config (entries : Soc_farm.Jobgraph.entry list) =
  let warm = Cache.create () in
  let keyed =
    List.sort_uniq
      (fun (a, _) (b, _) -> compare (Soc_farm.Chash.to_hex a) (Soc_farm.Chash.to_hex b))
      (List.concat_map
         (fun (e : Soc_farm.Jobgraph.entry) ->
           List.map
             (fun (_, k) -> (Soc_farm.Chash.kernel ~config:hls_config k, snd (Cache.synthesize warm ~config:hls_config k)))
             e.Soc_farm.Jobgraph.kernels)
         entries)
  in
  for _ = 1 to 10 do
    let dir = fresh_dir "probe-cache" in
    let writer = Cache.create ~disk_dir:dir () in
    List.iter (fun (k, a) -> Spans.probe spans "cache.store" (fun () -> Cache.store writer k a)) keyed;
    let reader = Cache.create ~disk_dir:dir () in
    List.iter
      (fun (k, _) ->
        if Spans.probe spans "cache.find" (fun () -> Cache.find reader k) = None then
          failwith "cache probe: stored key not found")
      keyed;
    let journal = Journal.open_ (Filename.concat dir Journal.default_name) in
    List.iteri
      (fun i (k, _) ->
        let key = Soc_farm.Chash.to_hex k and label = Printf.sprintf "hls:%d" i in
        Spans.probe spans "journal.append" (fun () ->
            Journal.append journal (Journal.Start { stage = "hls"; label; key }));
        Spans.probe spans "journal.append" (fun () ->
            Journal.append journal (Journal.Done { stage = "hls"; label; key })))
      keyed;
    Journal.close journal
  done;
  [ m "cache.find_ms" "ms" (Spans.median_ms spans "cache.find");
    m "cache.store_ms" "ms" (Spans.median_ms spans "cache.store");
    m "journal.append_ms" "ms" (Spans.median_ms spans "journal.append") ]
