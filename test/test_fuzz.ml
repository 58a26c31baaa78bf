(* Mutation fuzzing of the two untrusted source readers and of the
   analysis behind the daemon's admission path. The serve daemon parses
   DSL text straight off the wire and [socdsl check --rtl] reads [.ntl]
   files; both must answer malformed bytes with their own parse error,
   never with an exception from deep inside the library. Seeds
   are the shipped examples; mutations are byte-level and seeded, so a
   failure replays exactly. *)

module Reader = Soc_rtl.Netlist_reader
module Parser = Soc_core.Parser
module Lexer = Soc_core.Lexer

let read path = In_channel.with_open_bin path In_channel.input_all

(* Read when a property first draws, not at start-up: the suite list is
   built by every run of the test binary, whatever its directory. *)
let sources dirs ext =
  lazy
    (List.concat_map
       (fun dir ->
         Sys.readdir dir |> Array.to_list
         |> List.filter (fun f -> Filename.check_suffix f ext)
         |> List.sort compare
         |> List.map (fun f -> read (Filename.concat dir f)))
       dirs)

(* Bytes that matter to the two grammars, drawn more often than noise. *)
let interesting = "()\n #-0123456789'\";,{}xy\\"

(* Numbers at and beyond the edges the readers must check. *)
let edge_numbers = [ "-4"; "-1"; "0"; "1"; "31"; "32"; "33"; "88"; "65536"; "4611686018427387904" ]

let is_digit c = c >= '0' && c <= '9'

let mutate src =
  let open QCheck.Gen in
  let byte =
    oneof
      [ map Char.chr (0 -- 255);
        map (String.get interesting) (0 -- (String.length interesting - 1)) ]
  in
  let one s =
    let n = String.length s in
    if n = 0 then map (String.make 1) byte
    else
      let* i = 0 -- (n - 1) in
      let* c = byte in
      let splice j len text = String.sub s 0 j ^ text ^ String.sub s (j + len) (n - j - len) in
      let renumber =
        (* Replace the digit run at or after [i] with an edge number. *)
        let rec start j = if j < n && not (is_digit s.[j]) then start (j + 1) else j in
        let j = start i in
        let rec stop k = if k < n && is_digit s.[k] then stop (k + 1) else k in
        map (fun text -> splice j (stop j - j) text) (oneofl edge_numbers)
      in
      oneof
        [
          return (splice i 1 (String.make 1 c)) (* flip *);
          return (splice i 1 "") (* delete *);
          return (splice i 0 (String.make 1 c)) (* insert *);
          return (String.sub s 0 i) (* truncate *);
          (let* len = 1 -- min 16 (n - i) in
           return (splice i 0 (String.sub s i len)) (* repeat a span *));
          renumber;
        ]
  in
  let* k = 1 -- 6 in
  let rec go k s = if k = 0 then return s else one s >>= go (k - 1) in
  go k src

let mutant seeds = QCheck.Gen.((fun st -> oneofl (Lazy.force seeds) st) >>= mutate)
let mutated seeds = QCheck.make ~print:String.escaped (mutant seeds)

(* What [socdsl check --rtl FILE.ntl] runs: the reader, then the lint,
   then (lint-clean netlists only) lowering with the translation
   validator. Each stage may refuse only with its own error. *)
let test_ntl_reader =
  QCheck.Test.make ~count:3000 ~name:"mutated .ntl sources raise only Parse_error"
    (mutated (sources [ "../examples/broken" ] ".ntl")) (fun src ->
      match Reader.parse src with
      | exception Reader.Parse_error _ -> true
      | net -> (
        if Soc_util.Diag.has_errors (Soc_rtl.Lint.check net) then true
        else
          match Soc_rtl_compile.Csim.compile_tape net with
          | _ -> true
          | exception Soc_rtl_compile.Verify.Tape_invalid _ -> true))

let tg_seeds = sources [ "../examples"; "../examples/broken" ] ".tg"

let test_parse_result =
  QCheck.Test.make ~count:3000 ~name:"Parser.parse_result never raises on mutated .tg"
    (mutated tg_seeds) (fun src ->
      ignore (Parser.parse_result src);
      true)

(* Exactly what the serve daemon's admission path catches. *)
let test_parse_unvalidated =
  QCheck.Test.make ~count:3000
    ~name:"Parser.parse ~validate:false raises only Parse_error/Lex_error"
    (mutated tg_seeds) (fun src ->
      match Parser.parse ~validate:false src with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception Lexer.Lex_error _ -> true)

(* Past the parser, the daemon's admission path resolves the spec
   against its kernel library and plans the batch, which runs the
   analyzer: a spec that parses must come back with diagnostics, however
   malformed its graph. *)
let otsu_library = lazy (Soc_apps.Otsu.kernels ~width:16 ~height:16)

let parse src =
  match Parser.parse ~validate:false src with
  | spec -> Some spec
  | exception (Parser.Parse_error _ | Lexer.Lex_error _) -> None

(* Most mutants fail to parse; draw again (up to 200 times) until one
   parses, so nearly every case reaches the analyzer. *)
let parsing_mutant =
  let open QCheck.Gen in
  let rec draw k =
    mutant tg_seeds >>= fun src ->
    if k = 0 || parse src <> None then return src else draw (k - 1)
  in
  QCheck.make ~print:String.escaped (draw 200)

let test_analyzer_total =
  QCheck.Test.make ~count:3000
    ~name:"pre_flight and plan return diagnostics on mutated .tg that parses"
    parsing_mutant (fun src ->
      match parse src with
      | None -> true
      | Some spec ->
        let entry = Soc_farm.Jobgraph.entry_of ~library:(Lazy.force otsu_library) spec in
        let (_ : Soc_util.Diag.t list) =
          Soc_core.Flow.pre_flight entry.Soc_farm.Jobgraph.spec
            ~kernels:entry.Soc_farm.Jobgraph.kernels
        in
        let (_ : Soc_farm.Jobgraph.t) = Soc_farm.Jobgraph.plan [ entry ] in
        true)

let suite =
  List.map
    (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7 |]) t)
    [ test_ntl_reader; test_parse_result; test_parse_unvalidated; test_analyzer_total ]
