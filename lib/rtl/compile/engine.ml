(** Backend switch between the reference interpreter ({!Soc_rtl.Sim}) and
    the compiled tape executor ({!Csim}), behind the same interface.

    The compiled backend is the process-wide default — the interpreter
    remains available as the differential oracle and via [--sim interp].

    A netlist is lowered at most once per process: its compiled program
    lives in {!Csim}'s program table, keyed by {!Tape.netlist_key}, and
    every later instantiation is a fresh instance of that program.
    [lowering_count] counts the real lowerings, so callers can assert
    exactly that. *)

module Netlist = Soc_rtl.Netlist
module Sim = Soc_rtl.Sim

type backend = Interp | Compiled

let backend_name = function Interp -> "interp" | Compiled -> "compiled"

let backend_of_string = function
  | "interp" -> Some Interp
  | "compiled" -> Some Compiled
  | _ -> None

let default = ref Compiled
let set_default_backend b = default := b
let default_backend () = !default

let lowerings = Atomic.make 0
let lowering_count () = Atomic.get lowerings

(* Degradation ladder: a netlist the compiled backend cannot lower falls
   back to the reference interpreter instead of failing the build — the
   service-level mirror of the executive's hw -> sw ladder. Keys that
   failed once are remembered so repeated instantiations skip straight
   to the interpreter; every fallback is counted for the daemon's
   supervision stats. *)
let fallbacks = Atomic.make 0
let fallback_count () = Atomic.get fallbacks

(* Translation-validator bookkeeping: every tape rejected by {!Verify} is
   counted and its diagnostic kept in a small newest-first ring so the
   daemon's stats and the CLI can report *which pass* miscompiled, not
   just that something fell back. *)
let verify_rejects = Atomic.make 0
let verify_reject_count () = Atomic.get verify_rejects

let verify_log_lock = Mutex.create ()
let verify_log : Soc_util.Diag.t list ref = ref []
let verify_log_cap = 16

let note_verify_failure (err : Verify.error) =
  Atomic.incr verify_rejects;
  Mutex.lock verify_log_lock;
  verify_log :=
    Verify.to_diag err :: (if List.length !verify_log >= verify_log_cap then
                             List.filteri (fun i _ -> i < verify_log_cap - 1) !verify_log
                           else !verify_log);
  Mutex.unlock verify_log_lock

let verify_diags () =
  Mutex.lock verify_log_lock;
  let l = !verify_log in
  Mutex.unlock verify_log_lock;
  l

let degraded_lock = Mutex.create ()
let degraded_tbl : (string, unit) Hashtbl.t = Hashtbl.create 8

let degraded_key key =
  Mutex.lock degraded_lock;
  let r = Hashtbl.mem degraded_tbl key in
  Mutex.unlock degraded_lock;
  r

let mark_degraded key =
  Mutex.lock degraded_lock;
  Hashtbl.replace degraded_tbl key ();
  Mutex.unlock degraded_lock

let degraded_key_count () =
  Mutex.lock degraded_lock;
  let n = Hashtbl.length degraded_tbl in
  Mutex.unlock degraded_lock;
  n

(* Forget every degraded key (the fallback counter is left alone) —
   lets tests that deliberately poison a lowering restore isolation. *)
let clear_degraded () =
  Mutex.lock degraded_lock;
  Hashtbl.reset degraded_tbl;
  Mutex.unlock degraded_lock

type t = Interp_sim of Sim.t | Compiled_sim of Csim.t

let backend_of = function Interp_sim _ -> Interp | Compiled_sim _ -> Compiled

(* A real lowering: the only place the {!Soc_fault.Fault.Service.Csim}
   point fires and [lowerings] grows. *)
let lower net () =
  Soc_fault.Fault.Service.step Soc_fault.Fault.Service.Csim ();
  Atomic.incr lowerings;
  Csim.compile_tape net

let fall_back net =
  Atomic.incr fallbacks;
  Interp_sim (Sim.create net)

let create ?backend net =
  match (match backend with Some b -> b | None -> !default) with
  | Interp -> Interp_sim (Sim.create net)
  | Compiled -> (
    let key = Tape.netlist_key net in
    if degraded_key key then fall_back net
    else
      try Compiled_sim (Csim.shared ~key ~lower:(lower net) net) with
      | Soc_fault.Fault.Killed _ as e -> raise e
      | e ->
        (* The compiled backend is an optimization, never a single point
           of failure: remember the bad key, count the fallback, and
           serve the same netlist from the interpreter. A verifier
           rejection rides the same ladder, with its pass-attributed
           diagnostic kept. *)
        (match e with Verify.Tape_invalid err -> note_verify_failure err | _ -> ());
        mark_degraded key;
        fall_back net)

let set_input t s v =
  match t with
  | Interp_sim sim -> Sim.set_input sim s v
  | Compiled_sim c -> Csim.set_input c s v

let settle = function Interp_sim sim -> Sim.settle sim | Compiled_sim c -> Csim.settle c

let value t s =
  match t with Interp_sim sim -> Sim.value sim s | Compiled_sim c -> Csim.value c s

let tick = function Interp_sim sim -> Sim.tick sim | Compiled_sim c -> Csim.tick c

let cycle = function Interp_sim sim -> Sim.cycle sim | Compiled_sim c -> Csim.cycle c

(* Whether settle and tick are currently no-ops (see {!Csim}). The
   interpreter is the oracle and never reports it, so it always steps. *)
let quiet = function Interp_sim _ -> false | Compiled_sim c -> Csim.quiet c

(* Advance a quiet simulator by [k] cycles without stepping it. *)
let skip t k =
  match t with
  | Interp_sim _ -> invalid_arg "Engine.skip: the interpreter is never quiet"
  | Compiled_sim c -> Csim.skip c k

let reset = function Interp_sim sim -> Sim.reset sim | Compiled_sim c -> Csim.reset c

let mem_contents t name =
  match t with
  | Interp_sim sim -> Sim.mem_contents sim name
  | Compiled_sim c -> Csim.mem_contents c name

(* Compiled-tape statistics, when that backend is live. *)
let stats = function Interp_sim _ -> None | Compiled_sim c -> Some (Csim.stats c)
