(** AXI-Stream protocol checker.

    Fed one observation per cycle for a single channel direction, it checks
    the two rules a compliant master must honour:
    - once TVALID is asserted it must stay asserted until the handshake;
    - TDATA must be stable while TVALID is high and TREADY is low.

    The platform wraps every RTL accelerator output with one checker, so a
    code-generation bug in the FSMD's stall logic surfaces as a protocol
    violation instead of silent data corruption. *)

type violation =
  | Valid_dropped of { channel : string; cycle : int }
  | Data_changed of { channel : string; cycle : int; before : int; after : int }

let pp_violation fmt = function
  | Valid_dropped { channel; cycle } ->
    Format.fprintf fmt "%s: TVALID deasserted before handshake at cycle %d" channel cycle
  | Data_changed { channel; cycle; before; after } ->
    Format.fprintf fmt "%s: TDATA changed %d -> %d while stalled at cycle %d" channel before
      after cycle

type t = {
  channel : string;
  mutable pending : int option; (* data offered but not yet accepted *)
  mutable cycle : int;
  mutable violations : violation list;
  mutable handshakes : int;
}

let create channel = { channel; pending = None; cycle = 0; violations = []; handshakes = 0 }

let observe t ~tvalid ~tdata ~tready =
  (match (t.pending, tvalid) with
  | Some prev, true ->
    if tdata <> prev then
      t.violations <-
        Data_changed { channel = t.channel; cycle = t.cycle; before = prev; after = tdata }
        :: t.violations
  | Some _, false ->
    t.violations <- Valid_dropped { channel = t.channel; cycle = t.cycle } :: t.violations
  | None, _ -> ());
  if tvalid && tready then begin
    t.handshakes <- t.handshakes + 1;
    t.pending <- None
  end
  else if tvalid then t.pending <- Some tdata
  else t.pending <- None;
  t.cycle <- t.cycle + 1

(* [k] cycles of an idle channel (TVALID low, nothing pending): only the
   cycle count moves. *)
let skip t k = t.cycle <- t.cycle + k

let violations t = List.rev t.violations
let handshakes t = t.handshakes

let to_diag = function
  | Valid_dropped { channel; cycle } ->
    Soc_util.Diag.error ~code:"RUN301" ~subject:channel
      (Printf.sprintf "TVALID deasserted before TREADY at cycle %d" cycle)
  | Data_changed { channel; cycle; before; after } ->
    Soc_util.Diag.error ~code:"RUN302" ~subject:channel
      (Printf.sprintf
         "TDATA changed while stalled at cycle %d (0x%x -> 0x%x)" cycle
         before after)
