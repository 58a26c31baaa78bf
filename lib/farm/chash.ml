(* Structural content hashes: a canonical byte serialization of the HLS
   job input, digested with 64-bit FNV-1a. The serialization is explicit
   (no Marshal, no Hashtbl.hash) so it is stable across OCaml versions,
   word sizes and runs — a requirement for the on-disk cache layer. *)

module Ast = Soc_kernel.Ast
module Ty = Soc_kernel.Ty

type t = string

let to_hex t = t
let of_hex s = s

(* Bump on any change to the canonical serialization below AND on any
   layout change to a record marshalled into a cache entry
   ([Soc_hls.Engine.accel] and everything it contains). [.accel] payloads
   are [Marshal] bytes: loading one written with another layout as the
   current type is undefined behaviour (a crash, or a wrong accelerator
   that verifies as "ok"). The version is part of every key and of every
   entry header, so old entries become misses and read as IO402 stale. *)
let format_version = "soc-farm-chash-v2"

(* ------------------------------------------------------------------ *)
(* Canonical serialization                                             *)
(* ------------------------------------------------------------------ *)

(* Every constructor gets a distinct tag byte; every variable-length field
   is length-prefixed, so the encoding is injective. *)

let emit_int buf n =
  (* decimal with terminator: canonical and word-size independent *)
  Buffer.add_string buf (string_of_int n);
  Buffer.add_char buf ';'

let emit_str buf s =
  emit_int buf (String.length s);
  Buffer.add_string buf s

let emit_ty buf (ty : Ty.t) =
  Buffer.add_char buf
    (match ty with U1 -> 'a' | U8 -> 'b' | U16 -> 'c' | U32 -> 'd' | I32 -> 'e')

let binop_tag (op : Ast.binop) =
  match op with
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Rem -> 4
  | Udiv -> 5 | Urem -> 6 | Band -> 7 | Bor -> 8 | Bxor -> 9
  | Shl -> 10 | Shr -> 11 | Ashr -> 12 | Eq -> 13 | Ne -> 14
  | Lt -> 15 | Le -> 16 | Gt -> 17 | Ge -> 18
  | Ult -> 19 | Ule -> 20 | Ugt -> 21 | Uge -> 22

let unop_tag (op : Ast.unop) = match op with Neg -> 0 | Bnot -> 1 | Lnot -> 2

let rec emit_expr buf (e : Ast.expr) =
  match e with
  | Int n ->
    Buffer.add_char buf 'I';
    emit_int buf n
  | Var v ->
    Buffer.add_char buf 'V';
    emit_str buf v
  | Load (a, ix) ->
    Buffer.add_char buf 'L';
    emit_str buf a;
    emit_expr buf ix
  | Bin (op, a, b) ->
    Buffer.add_char buf 'B';
    emit_int buf (binop_tag op);
    emit_expr buf a;
    emit_expr buf b
  | Un (op, a) ->
    Buffer.add_char buf 'U';
    emit_int buf (unop_tag op);
    emit_expr buf a

let rec emit_stmt buf (s : Ast.stmt) =
  match s with
  | Assign (v, e) ->
    Buffer.add_char buf '=';
    emit_str buf v;
    emit_expr buf e
  | Store (a, ix, e) ->
    Buffer.add_char buf 'S';
    emit_str buf a;
    emit_expr buf ix;
    emit_expr buf e
  | If (c, t, e) ->
    Buffer.add_char buf '?';
    emit_expr buf c;
    emit_stmts buf t;
    emit_stmts buf e
  | While (c, body) ->
    Buffer.add_char buf 'W';
    emit_expr buf c;
    emit_stmts buf body
  | For (v, lo, hi, body) ->
    Buffer.add_char buf 'F';
    emit_str buf v;
    emit_expr buf lo;
    emit_expr buf hi;
    emit_stmts buf body
  | Pop (v, stream) ->
    Buffer.add_char buf '<';
    emit_str buf v;
    emit_str buf stream
  | Push (stream, e) ->
    Buffer.add_char buf '>';
    emit_str buf stream;
    emit_expr buf e

and emit_stmts buf ss =
  emit_int buf (List.length ss);
  List.iter (emit_stmt buf) ss

let emit_port buf (p : Ast.port) =
  (match p with
  | Scalar { pname; ty; dir } ->
    Buffer.add_char buf 's';
    emit_str buf pname;
    emit_ty buf ty;
    Buffer.add_char buf (match dir with In -> 'i' | Out -> 'o')
  | Stream { pname; ty; dir } ->
    Buffer.add_char buf 'x';
    emit_str buf pname;
    emit_ty buf ty;
    Buffer.add_char buf (match dir with In -> 'i' | Out -> 'o'));
  ()

let emit_array buf (a : Ast.array_decl) =
  emit_str buf a.aname;
  emit_ty buf a.elt;
  emit_int buf a.size;
  match a.init with
  | None -> Buffer.add_char buf 'n'
  | Some vs ->
    Buffer.add_char buf 'y';
    emit_int buf (Array.length vs);
    Array.iter (emit_int buf) vs

let emit_config buf (c : Soc_hls.Engine.config) =
  Buffer.add_char buf (match c.strategy with Soc_hls.Schedule.Asap -> 'A' | List_scheduling -> 'L');
  emit_int buf c.resources.Soc_hls.Schedule.alus_per_op;
  emit_int buf c.resources.Soc_hls.Schedule.multipliers;
  emit_int buf c.resources.Soc_hls.Schedule.dividers;
  Buffer.add_char buf (if c.optimize then '1' else '0')

let emit_kernel buf (k : Ast.kernel) =
  emit_str buf k.kname;
  emit_int buf (List.length k.ports);
  List.iter (emit_port buf) k.ports;
  emit_int buf (List.length k.locals);
  List.iter
    (fun (n, ty) ->
      emit_str buf n;
      emit_ty buf ty)
    k.locals;
  emit_int buf (List.length k.arrays);
  List.iter (emit_array buf) k.arrays;
  emit_stmts buf k.body

(* ------------------------------------------------------------------ *)
(* FNV-1a                                                              *)
(* ------------------------------------------------------------------ *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let digest (s : string) : t =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  Printf.sprintf "%016Lx" !h

let kernel ~config k =
  let buf = Buffer.create 512 in
  emit_str buf format_version;
  emit_config buf config;
  emit_kernel buf k;
  digest (Buffer.contents buf)

let combine label hashes =
  let buf = Buffer.create 64 in
  emit_str buf format_version;
  emit_str buf label;
  List.iter (emit_str buf) hashes;
  digest (Buffer.contents buf)
