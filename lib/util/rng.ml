(** Deterministic splitmix64 pseudo-random generator.

    Benchmarks and simulations must be reproducible run-to-run, so we never
    use [Random] seeded from the environment; every stochastic component
    takes an explicit [Rng.t]. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let golden = 0x9E3779B97F4A7C15L

(* One splitmix64 output from state [z]: advance by the golden gamma,
   then finalize. *)
let mix64 z =
  let z = Int64.add z golden in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  let z = t.state in
  t.state <- Int64.add z golden;
  mix64 z

(* Stateless: the seed, then every byte of the key, then the ordinal are
   folded through [mix64]; the top 30 bits scale into [0, 1). *)
let keyed_float ~seed ~key ~n =
  let h = ref (mix64 (Int64.of_int seed)) in
  String.iter (fun c -> h := mix64 (Int64.logxor !h (Int64.of_int (Char.code c)))) key;
  h := mix64 (Int64.logxor !h (Int64.of_int n));
  let bits = Int64.to_int (Int64.shift_right_logical !h 34) land ((1 lsl 30) - 1) in
  float_of_int bits /. float_of_int (1 lsl 30)

(* Uniform in [0, bound) for 0 < bound <= 2^62. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (next_int64 t) 2 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t =
  (* 53 random bits scaled into [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bits /. 9007199254740992.0

(* Uniform element of a non-empty list. *)
let choose t = function
  | [] -> invalid_arg "Rng.choose: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a
