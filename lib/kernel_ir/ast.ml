(** Abstract syntax of accelerator kernels.

    A kernel is the unit handed to HLS: a function body with typed ports.
    Scalar ports become AXI-Lite registers; stream ports become AXI-Stream
    interfaces; arrays are accelerator-local BRAMs. *)

type binop =
  | Add | Sub | Mul
  | Div | Rem (* signed division, like C's / and % on int *)
  | Udiv | Urem
  | Band | Bor | Bxor
  | Shl | Shr (* logical right shift *)
  | Ashr
  | Eq | Ne
  | Lt | Le | Gt | Ge (* signed comparisons *)
  | Ult | Ule | Ugt | Uge

type unop = Neg | Bnot | Lnot (* logical not: 0 -> 1, nonzero -> 0 *)

type expr =
  | Int of int
  | Var of string
  | Load of string * expr (* array element *)
  | Bin of binop * expr * expr
  | Un of unop * expr

type stmt =
  | Assign of string * expr
  | Store of string * expr * expr (* array, index, value *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of string * expr * expr * stmt list (* for (v = lo; v < hi; v++) body *)
  | Pop of string * string (* var <- stream.read() ; blocking *)
  | Push of string * expr (* stream.write(e) ; blocking *)

type dir = In | Out

type port =
  | Scalar of { pname : string; ty : Ty.t; dir : dir }
  | Stream of { pname : string; ty : Ty.t; dir : dir }

type array_decl = { aname : string; elt : Ty.t; size : int; init : int array option }

type kernel = {
  kname : string;
  ports : port list;
  locals : (string * Ty.t) list;
  arrays : array_decl list;
  body : stmt list;
}

let port_name = function Scalar { pname; _ } | Stream { pname; _ } -> pname
let port_dir = function Scalar { dir; _ } | Stream { dir; _ } -> dir
let is_stream = function Stream _ -> true | Scalar _ -> false

let stream_ports k = List.filter is_stream k.ports

let stream_inputs k =
  List.filter (fun p -> is_stream p && port_dir p = In) k.ports
let stream_outputs k =
  List.filter (fun p -> is_stream p && port_dir p = Out) k.ports

(* ------------------------------------------------------------------ *)
(* Convenience constructors: kernels read naturally at the call site.  *)
(* ------------------------------------------------------------------ *)

module Build = struct
  let int n = Int n
  let v name = Var name
  let ( +: ) a b = Bin (Add, a, b)
  let ( -: ) a b = Bin (Sub, a, b)
  let ( *: ) a b = Bin (Mul, a, b)
  let ( /: ) a b = Bin (Div, a, b)
  let ( %: ) a b = Bin (Rem, a, b)
  let ( <: ) a b = Bin (Lt, a, b)
  let ( <=: ) a b = Bin (Le, a, b)
  let ( >: ) a b = Bin (Gt, a, b)
  let ( >=: ) a b = Bin (Ge, a, b)
  let ( =: ) a b = Bin (Eq, a, b)
  let ( <>: ) a b = Bin (Ne, a, b)
  let ( &: ) a b = Bin (Band, a, b)
  let ( |: ) a b = Bin (Bor, a, b)
  let ( ^: ) a b = Bin (Bxor, a, b)
  let ( <<: ) a b = Bin (Shl, a, b)
  let ( >>: ) a b = Bin (Shr, a, b)
  let load a i = Load (a, i)
  let set name e = Assign (name, e)
  let store a i e = Store (a, i, e)
  let if_ c t e = If (c, t, e)
  let while_ c b = While (c, b)
  let for_ var ~from ~below body = For (var, from, below, body)
  let pop var stream = Pop (var, stream)
  let push stream e = Push (stream, e)
  let in_scalar name ty = Scalar { pname = name; ty; dir = In }
  let out_scalar name ty = Scalar { pname = name; ty; dir = Out }
  let in_stream name ty = Stream { pname = name; ty; dir = In }
  let out_stream name ty = Stream { pname = name; ty; dir = Out }
  let array ?init name elt size = { aname = name; elt; size; init }
end

(* ------------------------------------------------------------------ *)
(* Pretty-printing as pseudo-C (the "synthesizable source" artifact).  *)
(* ------------------------------------------------------------------ *)

let binop_symbol = function
  | Add -> "+" | Sub -> "-" | Mul -> "*"
  | Div -> "/" | Rem -> "%"
  | Udiv -> "/u" | Urem -> "%u"
  | Band -> "&" | Bor -> "|" | Bxor -> "^"
  | Shl -> "<<" | Shr -> ">>" | Ashr -> ">>a"
  | Eq -> "==" | Ne -> "!="
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Ult -> "<u" | Ule -> "<=u" | Ugt -> ">u" | Uge -> ">=u"

let rec expr_to_string = function
  | Int n -> string_of_int n
  | Var x -> x
  | Load (a, i) -> Printf.sprintf "%s[%s]" a (expr_to_string i)
  | Bin (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr_to_string a) (binop_symbol op) (expr_to_string b)
  | Un (Neg, e) -> Printf.sprintf "(-%s)" (expr_to_string e)
  | Un (Bnot, e) -> Printf.sprintf "(~%s)" (expr_to_string e)
  | Un (Lnot, e) -> Printf.sprintf "(!%s)" (expr_to_string e)

let rec stmt_lines indent s =
  let pad = String.make indent ' ' in
  match s with
  | Assign (x, e) -> [ Printf.sprintf "%s%s = %s;" pad x (expr_to_string e) ]
  | Store (a, i, e) ->
    [ Printf.sprintf "%s%s[%s] = %s;" pad a (expr_to_string i) (expr_to_string e) ]
  | Pop (x, s) -> [ Printf.sprintf "%s%s = %s.read();" pad x s ]
  | Push (s, e) -> [ Printf.sprintf "%s%s.write(%s);" pad s (expr_to_string e) ]
  | If (c, t, []) ->
    (Printf.sprintf "%sif (%s) {" pad (expr_to_string c))
    :: List.concat_map (stmt_lines (indent + 2)) t
    @ [ pad ^ "}" ]
  | If (c, t, e) ->
    (Printf.sprintf "%sif (%s) {" pad (expr_to_string c))
    :: List.concat_map (stmt_lines (indent + 2)) t
    @ [ pad ^ "} else {" ]
    @ List.concat_map (stmt_lines (indent + 2)) e
    @ [ pad ^ "}" ]
  | While (c, b) ->
    (Printf.sprintf "%swhile (%s) {" pad (expr_to_string c))
    :: List.concat_map (stmt_lines (indent + 2)) b
    @ [ pad ^ "}" ]
  | For (x, lo, hi, b) ->
    (Printf.sprintf "%sfor (%s = %s; %s < %s; %s++) {" pad x (expr_to_string lo) x
       (expr_to_string hi) x)
    :: List.concat_map (stmt_lines (indent + 2)) b
    @ [ pad ^ "}" ]

let to_c kernel =
  let port_decl = function
    | Scalar { pname; ty; dir } ->
      Printf.sprintf "%s%s %s" (Ty.to_string ty) (if dir = Out then " *" else "") pname
    | Stream { pname; ty; dir = _ } ->
      Printf.sprintf "hls::stream<%s> &%s" (Ty.to_string ty) pname
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "void %s(%s) {\n" kernel.kname
       (String.concat ", " (List.map port_decl kernel.ports)));
  List.iter
    (fun (x, ty) -> Buffer.add_string buf (Printf.sprintf "  %s %s;\n" (Ty.to_string ty) x))
    kernel.locals;
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "  %s %s[%d]%s;\n" (Ty.to_string a.elt) a.aname a.size
           (match a.init with None -> "" | Some _ -> " /* initialized */")))
    kernel.arrays;
  List.iter
    (fun s -> List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) (stmt_lines 2 s))
    kernel.body;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Static operation count of a statement list: used by the tool-runtime cost
   model to make HLS time proportional to kernel complexity, as in Fig. 9. *)
let rec expr_ops = function
  | Int _ | Var _ -> 0
  | Load (_, i) -> 1 + expr_ops i
  | Bin (_, a, b) -> 1 + expr_ops a + expr_ops b
  | Un (_, e) -> 1 + expr_ops e

let rec stmt_ops = function
  | Assign (_, e) -> 1 + expr_ops e
  | Store (_, i, e) -> 1 + expr_ops i + expr_ops e
  | Pop _ | Push _ -> 1
  | If (c, t, e) -> expr_ops c + stmts_ops t + stmts_ops e
  | While (c, b) -> expr_ops c + stmts_ops b
  | For (_, lo, hi, b) -> 2 + expr_ops lo + expr_ops hi + stmts_ops b

and stmts_ops l = List.fold_left (fun acc s -> acc + stmt_ops s) 0 l

let complexity k = stmts_ops k.body + (4 * List.length k.arrays) + List.length k.ports
