(* Deterministic rendering of a search result. The frontier JSON contains
   no wall-clock, cache-temperature or host-dependent field, so a warm
   re-sweep against the same cache directory writes byte-identical output
   — the CI smoke compares them with cmp(1). *)

module Table = Soc_util.Table
module Json = Soc_util.Json

let us p = p.Search.objectives.(0)

let point_json (p : Search.point) =
  let u = p.Search.usage in
  Printf.sprintf
    "{\"key\": \"%s\", \"latency_us\": %.3f, \"cycles\": %d, \"lut\": %d, \"ff\": %d, \"bram18\": %d, \"dsp\": %d, \"dsl\": \"%s\"}"
    (Json.escape p.Search.key) (us p) p.Search.cycles u.Soc_hls.Report.lut
    u.Soc_hls.Report.ff u.Soc_hls.Report.bram18 u.Soc_hls.Report.dsp
    (Json.escape p.Search.dsl)

let frontier_json (r : Search.result) =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"space\": \"%s\",\n" (Json.escape r.Search.space));
  Buffer.add_string b (Printf.sprintf "  \"strategy\": \"%s\",\n" (Json.escape r.Search.strategy));
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" r.Search.seed);
  Buffer.add_string b
    (Printf.sprintf "  \"objectives\": [%s],\n"
       (String.concat ", "
          (List.map (fun n -> Printf.sprintf "\"%s\"" n) Search.objective_names)));
  Buffer.add_string b (Printf.sprintf "  \"proposed\": %d,\n" r.Search.proposed);
  Buffer.add_string b (Printf.sprintf "  \"evaluated\": %d,\n" r.Search.evaluated);
  Buffer.add_string b (Printf.sprintf "  \"infeasible\": %d,\n" r.Search.infeasible);
  Buffer.add_string b (Printf.sprintf "  \"failed\": %d,\n" (List.length r.Search.failures));
  Buffer.add_string b (Printf.sprintf "  \"rounds\": %d,\n" r.Search.rounds);
  Buffer.add_string b "  \"frontier\": [\n";
  List.iteri
    (fun i p ->
      Buffer.add_string b "    ";
      Buffer.add_string b (point_json p);
      if i < List.length r.Search.frontier - 1 then Buffer.add_char b ',';
      Buffer.add_char b '\n')
    r.Search.frontier;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let winner (r : Search.result) =
  (* Canonical frontier order is (objectives, key) ascending with latency
     first, so the head is the fastest non-dominated design. *)
  match r.Search.frontier with [] -> None | p :: _ -> Some p

let table (r : Search.result) =
  let on_front (p : Search.point) =
    List.exists (fun (q : Search.point) -> q.Search.key = p.Search.key) r.Search.frontier
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "%s sweep: %s, seed %d — %d evaluated, %d infeasible, frontier %d"
           r.Search.space r.Search.strategy r.Search.seed r.Search.evaluated
           r.Search.infeasible
           (List.length r.Search.frontier))
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Center ]
      [ "candidate"; "us"; "LUT"; "FF"; "BRAM18"; "DSP"; "front" ]
  in
  List.iter
    (fun p ->
      let u = p.Search.usage in
      Table.add_row t
        [ p.Search.label;
          Printf.sprintf "%.1f" (us p);
          string_of_int u.Soc_hls.Report.lut;
          string_of_int u.Soc_hls.Report.ff;
          string_of_int u.Soc_hls.Report.bram18;
          string_of_int u.Soc_hls.Report.dsp;
          (if on_front p then "*" else "") ])
    r.Search.points;
  t

let summary (r : Search.result) =
  Printf.sprintf
    "strategy %s seed %d: proposed %d, evaluated %d, infeasible %d, failed %d, %d rounds, frontier %d"
    r.Search.strategy r.Search.seed r.Search.proposed r.Search.evaluated r.Search.infeasible
    (List.length r.Search.failures) r.Search.rounds
    (List.length r.Search.frontier)
