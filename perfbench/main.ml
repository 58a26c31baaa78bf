(* The repository benchmark: one named workload per run, seeded, timed
   for a fixed number of seconds, every output checked. With --trace 0
   the last stdout line carries the end-to-end metrics; with --trace 1
   it carries the per-layer metrics of a run whose sweeps alternate
   traced and untraced.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 *)

open Util

let workloads =
  [ ("build-cold", Build_cold.run);
    ("serve-local", Serve.run ~fleet:false);
    ("serve-fleet", Serve.run ~fleet:true);
    ("explore-rtl", Explore.run) ]

(* The metric names, units and order come from BENCHMARK.json. A
   workload that does not measure a listed per-layer metric reports 0;
   a metric missing from the list, or with another unit, is a bug in the
   benchmark and stops the run. *)
let listed key =
  let module P = Soc_serve.Protocol in
  let doc = P.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  match P.mem key doc with
  | Some (P.Arr l) ->
    List.map
      (fun e ->
        match (P.mem "name" e, P.mem "unit" e) with
        | Some (P.Str n), Some (P.Str u) -> (n, u)
        | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
      l
  | _ -> failwith ("BENCHMARK.json: no list " ^ key)

let conform names (ms : metric list) =
  List.iter
    (fun x ->
      match List.assoc_opt x.name names with
      | Some u when u = x.unit_ -> ()
      | _ ->
        Printf.eprintf "metric %s (%s) is not listed in BENCHMARK.json\n%!" x.name x.unit_;
        exit 3)
    ms;
  List.map
    (fun (n, u) ->
      match List.find_opt (fun x -> x.name = n) ms with Some x -> x | None -> m n u 0.0)
    names

let min_latency_samples = 200

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some r -> r
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let trace = !trace <> 0 in
  let o = run ~seed:!seed ~seconds:!seconds ~trace in
  let metrics =
    if trace then conform (listed "per_layer") (overhead o.window @ o.layers ())
    else
      conform (listed "end_to_end")
        (e2e ~setup_s:o.setup_s ~w:o.window)
  in
  o.teardown ();
  cleanup_work ();
  if not trace then begin
    (* The samples behind latency_p50_ms / latency_p95_ms. Under 200,
       fewer than ten lie beyond p95 and that figure is a guess. *)
    let n = Window.samples o.window.Window.plain in
    Printf.printf "%-28s %16d count (untraced, behind latency_p50_ms and latency_p95_ms)\n" "latency_samples" n;
    if n < min_latency_samples then
      Printf.eprintf "warning: only %d latency samples (want %d); p95 rests on fewer than ten\n%!" n
        min_latency_samples
  end;
  let attempted = Window.attempted o.window and failed = Window.failed o.window in
  let correct = failed = 0 && attempted > 0 in
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
