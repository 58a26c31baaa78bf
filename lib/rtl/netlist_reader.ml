(** Reader for the textual [.ntl] netlist format used by the RTL lint
    corpus ([examples/broken/*.ntl]) and [socdsl check --rtl FILE.ntl].

    The format is deliberately small — one declaration per statement,
    expressions as prefix s-expressions:

    {v
    # comment to end of line
    module NAME
    input  NAME WIDTH
    output NAME WIDTH
    wire   NAME WIDTH
    assign NAME EXPR
    reg    NAME WIDTH reset INT enable EXPR next EXPR
    mem    NAME SIZE WIDTH rdata NAME raddr EXPR wen EXPR waddr EXPR wdata EXPR
    v}

    where [EXPR] is [(const V W)], [(ref NAME)], a bare [NAME]
    (shorthand for [ref]), [(mux SEL A B)], [(OP A B)] for binary
    operators ([add sub mul div rem udiv urem and or xor shl shr ashr
    eq ne lt le gt ge ult ule ugt uge]) or [(OP A)] for unary ones
    ([neg bnot lnot]).

    Widths (of signals, memories and constants) are 1..32 and memory
    sizes at least 1. Signals are declared up front (two-pass), so
    expressions may reference signals declared later in the file; memory
    read-data signals exist from the [mem] statement's position onward.
    Errors raise {!Parse_error} with a line number — the CLI maps them to
    the analyzer's [SOC000] like any other unreadable source. *)

exception Parse_error of string

let fail line fmt =
  Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "line %d: %s" line m))) fmt

type token = Atom of string * int (* with source line *) | Lparen of int | Rparen of int

let tokenize src =
  let toks = ref [] in
  let buf = Buffer.create 16 in
  let line = ref 1 in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := Atom (Buffer.contents buf, !line) :: !toks;
      Buffer.clear buf
    end
  in
  let in_comment = ref false in
  String.iter
    (fun c ->
      match c with
      | '\n' ->
        flush ();
        in_comment := false;
        incr line
      | _ when !in_comment -> ()
      | '#' ->
        flush ();
        in_comment := true
      | ' ' | '\t' | '\r' -> flush ()
      | '(' -> flush (); toks := Lparen !line :: !toks
      | ')' -> flush (); toks := Rparen !line :: !toks
      | c -> Buffer.add_char buf c)
    src;
  flush ();
  List.rev !toks

(* Untyped s-expression layer over the token stream. *)
type sexp = A of string * int | L of sexp list * int

let parse_sexps toks =
  let rec one = function
    | [] -> None
    | Atom (a, ln) :: rest -> Some (A (a, ln), rest)
    | Lparen ln :: rest ->
      let rec items acc rest =
        match rest with
        | Rparen _ :: rest -> (L (List.rev acc, ln), rest)
        | [] -> fail ln "unclosed '('"
        | _ -> (
          match one rest with
          | Some (s, rest) -> items (s :: acc) rest
          | None -> fail ln "unclosed '('")
      in
      let l, rest = items [] rest in
      Some (l, rest)
    | Rparen ln :: _ -> fail ln "unexpected ')'"
  in
  let rec all acc toks =
    match one toks with None -> List.rev acc | Some (s, rest) -> all (s :: acc) rest
  in
  all [] toks

let binops =
  [ ("add", Soc_kernel.Ast.Add); ("sub", Sub); ("mul", Mul); ("div", Div); ("rem", Rem);
    ("udiv", Udiv); ("urem", Urem); ("and", Band); ("or", Bor); ("xor", Bxor);
    ("shl", Shl); ("shr", Shr); ("ashr", Ashr); ("eq", Eq); ("ne", Ne); ("lt", Lt);
    ("le", Le); ("gt", Gt); ("ge", Ge); ("ult", Ult); ("ule", Ule); ("ugt", Ugt);
    ("uge", Uge) ]

let unops = [ ("neg", Soc_kernel.Ast.Neg); ("bnot", Bnot); ("lnot", Lnot) ]

let parse src =
  let sexps = parse_sexps (tokenize src) in
  (* Statements are flat: keyword atom followed by its operands, with
     expression operands already grouped by the s-expression layer. *)
  let int_of ln s =
    match int_of_string_opt s with Some n -> n | None -> fail ln "expected integer, got %S" s
  in
  (* The reader checks what Netlist's constructors would otherwise reject
     with Invalid_argument (or, for memory sizes, not at all). *)
  let width_of ln s =
    let w = int_of ln s in
    if w < 1 || w > 32 then fail ln "width %d outside 1..32" w;
    w
  in
  let atom = function A (a, ln) -> (a, ln) | L (_, ln) -> fail ln "expected a name" in
  (* Pass 1: split the stream into statements and declare every signal. *)
  let rec stmts acc = function
    | [] -> List.rev acc
    | A (kw, ln) :: rest -> (
      let take n rest =
        let rec go i acc rest =
          if i = 0 then (List.rev acc, rest)
          else
            match rest with
            | [] -> fail ln "%s: truncated statement" kw
            | s :: rest -> go (i - 1) (s :: acc) rest
        in
        go n [] rest
      in
      match kw with
      | "module" ->
        let args, rest = take 1 rest in
        stmts ((kw, ln, args) :: acc) rest
      | "input" | "output" | "wire" ->
        let args, rest = take 2 rest in
        stmts ((kw, ln, args) :: acc) rest
      | "assign" ->
        let args, rest = take 2 rest in
        stmts ((kw, ln, args) :: acc) rest
      | "reg" ->
        (* reg NAME WIDTH reset INT enable EXPR next EXPR *)
        let args, rest = take 8 rest in
        stmts ((kw, ln, args) :: acc) rest
      | "mem" ->
        (* mem NAME SIZE WIDTH rdata NAME raddr E wen E waddr E wdata E *)
        let args, rest = take 13 rest in
        stmts ((kw, ln, args) :: acc) rest
      | kw -> fail ln "unknown statement %S" kw)
    | L (_, ln) :: _ -> fail ln "expected a statement keyword"
  in
  let statements = stmts [] sexps in
  let mod_name =
    match List.find_opt (fun (kw, _, _) -> kw = "module") statements with
    | Some (_, _, [ name ]) -> fst (atom name)
    | _ -> raise (Parse_error "missing 'module NAME' statement")
  in
  let net = Netlist.create mod_name in
  let by_name : (string, Netlist.signal) Hashtbl.t = Hashtbl.create 32 in
  let declare ln name s =
    if Hashtbl.mem by_name name then fail ln "signal %S declared twice" name;
    Hashtbl.replace by_name name s
  in
  (* Registers are declared with [register_forward] so their next/enable
     expressions (parsed in pass 2) may reference any signal. *)
  let setters : (string, enable:Netlist.expr -> next:Netlist.expr -> unit) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (kw, ln, args) ->
      match (kw, args) with
      | "input", [ n; w ] ->
        let name, _ = atom n and width = width_of ln (fst (atom w)) in
        declare ln name (Netlist.input net ~name ~width)
      | "output", [ n; w ] ->
        let name, _ = atom n and width = width_of ln (fst (atom w)) in
        declare ln name (Netlist.output net ~name ~width)
      | "wire", [ n; w ] ->
        let name, _ = atom n and width = width_of ln (fst (atom w)) in
        declare ln name (Netlist.fresh net ~name ~width)
      | "reg", n :: w :: A ("reset", _) :: rv :: _ ->
        let name, _ = atom n and width = width_of ln (fst (atom w)) in
        let reset_value = int_of ln (fst (atom rv)) in
        let q, set = Netlist.register_forward net ~reset_value ~name ~width () in
        declare ln name q;
        Hashtbl.replace setters name set
      | _ -> ())
    statements;
  let rec expr (s : sexp) : Netlist.expr =
    match s with
    | A (name, ln) -> (
      match Hashtbl.find_opt by_name name with
      | Some s -> Netlist.Ref s
      | None -> fail ln "unknown signal %S" name)
    | L (A ("const", _) :: args, ln) -> (
      match args with
      | [ v; w ] -> Netlist.Const (int_of ln (fst (atom v)), width_of ln (fst (atom w)))
      | _ -> fail ln "const takes a value and a width")
    | L (A ("ref", _) :: args, ln) -> (
      match args with
      | [ n ] -> expr (A (fst (atom n), ln))
      | _ -> fail ln "ref takes one signal name")
    | L (A ("mux", _) :: args, ln) -> (
      match args with
      | [ s; a; b ] -> Netlist.Mux (expr s, expr a, expr b)
      | _ -> fail ln "mux takes a selector and two arms")
    | L (A (op, _) :: args, ln) -> (
      match (List.assoc_opt op binops, List.assoc_opt op unops, args) with
      | Some bop, _, [ a; b ] -> Netlist.Bin (bop, expr a, expr b)
      | Some _, _, _ -> fail ln "%s takes two operands" op
      | None, Some uop, [ a ] -> Netlist.Un (uop, expr a)
      | None, Some _, _ -> fail ln "%s takes one operand" op
      | None, None, _ -> fail ln "unknown operator %S" op)
    | L (_, ln) -> fail ln "malformed expression"
  in
  (* Pass 2: attach expressions in file order. *)
  List.iter
    (fun (kw, ln, args) ->
      match (kw, args) with
      | "assign", [ n; e ] -> (
        let name, _ = atom n in
        match Hashtbl.find_opt by_name name with
        | Some s -> Netlist.assign net s (expr e)
        | None -> fail ln "assign to undeclared signal %S" name)
      | ( "reg",
          [ n; _; A ("reset", _); _; A ("enable", _); en; A ("next", _); nx ] ) ->
        let name, _ = atom n in
        (Hashtbl.find setters name) ~enable:(expr en) ~next:(expr nx)
      | "reg", _ -> fail ln "reg NAME WIDTH reset INT enable EXPR next EXPR"
      | ( "mem",
          [ n; sz; w; A ("rdata", _); rd; A ("raddr", _); ra; A ("wen", _); we;
            A ("waddr", _); wa; A ("wdata", _); wd ] ) ->
        let name, _ = atom n in
        let size = int_of ln (fst (atom sz)) and width = width_of ln (fst (atom w)) in
        if size < 1 then fail ln "memory size %d below 1" size;
        let rdata =
          Netlist.add_mem net ~name ~size ~width ~raddr:(expr ra) ~wen:(expr we)
            ~waddr:(expr wa) ~wdata:(expr wd) ()
        in
        declare ln (fst (atom rd)) rdata
      | "mem", _ ->
        fail ln "mem NAME SIZE WIDTH rdata NAME raddr EXPR wen EXPR waddr EXPR wdata EXPR"
      | _ -> ())
    statements;
  net

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))
