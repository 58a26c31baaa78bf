(* The population-based search engine: a strategy proposes candidate
   batches, a caller-supplied evaluator prices them, and the engine
   memoizes outcomes by candidate key so no strategy ever pays for the
   same design twice. Everything stochastic flows from one seeded
   {!Soc_util.Rng}, so a (strategy, seed) pair replays to an identical
   frontier — the determinism the qcheck suite and the warm-cache CI
   smoke both rely on. *)

module Rng = Soc_util.Rng
module Diag = Soc_util.Diag

let objective_names = [ "latency_us"; "lut"; "ff"; "bram18"; "dsp" ]

type point = {
  key : string;
  label : string;
  dsl : string;  (** canonical DSL text of the candidate; [""] for all-SW *)
  objectives : float array;
  cycles : int;
  usage : Soc_hls.Report.usage;
  tool_seconds : float;
  fifo_peak : int;
}

type outcome =
  | Feasible of point
  | Infeasible of Diag.t list  (** pruned by the analyzer/budget gate *)
  | Failed of string  (** build error or wrong output — a bug, not a point *)

type 'c space = {
  space_name : string;
  axes : (string * string list) list;
  universe : unit -> 'c list;
  key : 'c -> string;
  describe : 'c -> string;
  start : 'c;
  neighbours : 'c -> 'c list;
  random : Rng.t -> 'c;
  mutate : Rng.t -> 'c -> 'c;
}

type strategy =
  | Exhaustive
  | Random of int
  | Greedy
  | Evolve of { population : int; generations : int }

let strategy_name = function
  | Exhaustive -> "exhaustive"
  | Random _ -> "random"
  | Greedy -> "greedy"
  | Evolve _ -> "evolve"

let strategy_of_string ?(samples = 32) ?(population = 8) ?(generations = 4) = function
  | "exhaustive" -> Ok Exhaustive
  | "random" -> Ok (Random samples)
  | "greedy" -> Ok Greedy
  | "evolve" -> Ok (Evolve { population; generations })
  | s -> Error (Printf.sprintf "unknown strategy %S (want exhaustive|random|greedy|evolve)" s)

type progress = {
  round : int;
  proposed : int;
  evaluated : int;
  infeasible : int;
  failed : int;
  frontier : point list;
}

type result = {
  space : string;
  strategy : string;
  seed : int;
  points : point list;  (** feasible points, first-evaluation order *)
  frontier : point list;
  proposed : int;  (** candidates proposed by the strategy, repeats included *)
  evaluated : int;  (** distinct candidates actually priced *)
  infeasible : int;
  failures : (string * string) list;  (** candidate key -> reason *)
  rounds : int;
  trail : point list;  (** greedy's accepted climb; [] for other strategies *)
}

(* Frontier: non-dominated set, sorted by (objective vector, key) and
   deduplicated by objective vector — a canonical order, so the rendered
   frontier is byte-stable across runs and cache temperatures. *)
let compare_point a b = compare (a.objectives, a.key) (b.objectives, b.key)

let frontier_of points =
  let f = Pareto.front ~objectives:(fun p -> p.objectives) points in
  let sorted = List.sort compare_point f in
  let rec dedup = function
    | ([] | [ _ ]) as l -> l
    | a :: b :: rest ->
      if a.objectives = b.objectives then dedup (a :: rest) else a :: dedup (b :: rest)
  in
  dedup sorted

type 'c st = {
  sspace : 'c space;
  seval : 'c list -> ('c * outcome) list;
  memo : (string, outcome) Hashtbl.t;
  cands : (string, 'c) Hashtbl.t;  (* key -> candidate, for evolve parents *)
  on_round : progress -> unit;
  mutable order : point list;  (* feasible points, reversed *)
  mutable proposed : int;
  mutable infeasible : int;
  mutable failures : (string * string) list;  (* reversed *)
  mutable rounds : int;
}

let points_of st = List.rev st.order

(* Evaluate a proposal batch: distinct unseen candidates go to the
   evaluator in one population (batch-wide HLS dedup happens below us in
   the farm); everything else is answered from the memo. *)
let submit st cands =
  st.proposed <- st.proposed + List.length cands;
  let seen = Hashtbl.create 16 in
  let fresh =
    List.filter
      (fun c ->
        let k = st.sspace.key c in
        if Hashtbl.mem st.memo k || Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      cands
  in
  if fresh <> [] then
    List.iter
      (fun (c, o) ->
        let k = st.sspace.key c in
        Hashtbl.replace st.memo k o;
        Hashtbl.replace st.cands k c;
        match o with
        | Feasible p -> st.order <- p :: st.order
        | Infeasible _ -> st.infeasible <- st.infeasible + 1
        | Failed msg -> st.failures <- (k, msg) :: st.failures)
      (st.seval fresh);
  List.map
    (fun c ->
      let k = st.sspace.key c in
      match Hashtbl.find_opt st.memo k with
      | Some o -> (c, o)
      | None -> (c, Failed "evaluator returned no outcome"))
    cands

let finish_round st =
  st.rounds <- st.rounds + 1;
  st.on_round
    { round = st.rounds;
      proposed = st.proposed;
      evaluated = Hashtbl.length st.memo;
      infeasible = st.infeasible;
      failed = List.length st.failures;
      frontier = frontier_of (points_of st) }

(* Population per round for the non-generational strategies. *)
let chunk = 16

let chunked n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

let run ?(on_round = fun _ -> ()) ~space ~eval strategy ~seed =
  let st =
    { sspace = space; seval = eval; memo = Hashtbl.create 64; cands = Hashtbl.create 64;
      on_round; order = []; proposed = 0; infeasible = 0; failures = []; rounds = 0 }
  in
  let trail = ref [] in
  (match strategy with
  | Exhaustive ->
    List.iter
      (fun batch ->
        ignore (submit st batch);
        finish_round st)
      (chunked chunk (space.universe ()))
  | Random n ->
    let rng = Rng.create seed in
    List.iter
      (fun batch ->
        ignore (submit st batch);
        finish_round st)
      (chunked chunk (List.init (max 1 n) (fun _ -> space.random rng)))
  | Greedy ->
    (* Hill climb: repeatedly take the neighbour with the best
       latency-improvement-per-extra-area ratio; stop when no neighbour
       improves latency. *)
    let rec climb current (cur : point) =
      trail := cur :: !trail;
      let res = submit st (space.neighbours current) in
      finish_round st;
      let better =
        List.filter_map
          (function
            | c, Feasible p when p.objectives.(0) < cur.objectives.(0) -> Some (c, p)
            | _ -> None)
          res
      in
      match better with
      | [] -> ()
      | first :: rest ->
        let score (_, p) =
          let darea = Float.max 1.0 (p.objectives.(1) -. cur.objectives.(1)) in
          (cur.objectives.(0) -. p.objectives.(0)) /. darea
        in
        let c, p = List.fold_left (fun acc x -> if score x > score acc then x else acc) first rest in
        climb c p
    in
    (match submit st [ space.start ] with
    | [ (_, Feasible p) ] ->
      finish_round st;
      climb space.start p
    | _ -> finish_round st)
  | Evolve { population; generations } ->
    let population = max 1 population in
    let rng = Rng.create seed in
    let init =
      space.start :: List.init (max 0 (population - 1)) (fun _ -> space.random rng)
    in
    ignore (submit st init);
    finish_round st;
    for _gen = 1 to max 0 generations do
      (* Parents are the current frontier (canonical order, so the RNG
         consumption — hence the whole run — is seed-deterministic). *)
      let parents =
        match
          List.filter_map (fun (p : point) -> Hashtbl.find_opt st.cands p.key)
            (frontier_of (points_of st))
        with
        | [] -> [| space.start |]
        | l -> Array.of_list l
      in
      let children =
        List.init population (fun _ ->
            space.mutate rng parents.(Rng.int rng (Array.length parents)))
      in
      ignore (submit st children);
      finish_round st
    done);
  let points = points_of st in
  { space = space.space_name;
    strategy = strategy_name strategy;
    seed;
    points;
    frontier = frontier_of points;
    proposed = st.proposed;
    evaluated = Hashtbl.length st.memo;
    infeasible = st.infeasible;
    failures = List.rev st.failures;
    rounds = st.rounds;
    trail = List.rev !trail }
