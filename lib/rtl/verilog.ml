(** Verilog-2001 emission of a {!Netlist} module.

    The emitted text is the artifact a real flow would hand to logic
    synthesis; here it is rendered on demand (it is not part of a
    synthesized accelerator) for inspection and golden tests. Signed
    operators are emitted with $signed casts. *)

let sanitize name =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
      then c
      else '_')
    name

let sig_ref (s : Netlist.signal) = Printf.sprintf "s%d_%s" s.sid (sanitize s.sname)

let rec expr_to_v (e : Netlist.expr) =
  let open Soc_kernel.Ast in
  match e with
  | Netlist.Const (v, w) -> Printf.sprintf "%d'd%d" w v
  | Netlist.Ref s -> sig_ref s
  | Netlist.Bin (op, a, b) ->
    let sa = expr_to_v a and sb = expr_to_v b in
    let signed fmt = Printf.sprintf fmt ("$signed(" ^ sa ^ ")") ("$signed(" ^ sb ^ ")") in
    (match op with
    | Add -> Printf.sprintf "(%s + %s)" sa sb
    | Sub -> Printf.sprintf "(%s - %s)" sa sb
    | Mul -> Printf.sprintf "(%s * %s)" sa sb
    | Div -> signed "(%s / %s)"
    | Rem -> signed "(%s %% %s)"
    | Udiv -> Printf.sprintf "(%s / %s)" sa sb
    | Urem -> Printf.sprintf "(%s %% %s)" sa sb
    | Band -> Printf.sprintf "(%s & %s)" sa sb
    | Bor -> Printf.sprintf "(%s | %s)" sa sb
    | Bxor -> Printf.sprintf "(%s ^ %s)" sa sb
    | Shl -> Printf.sprintf "(%s << %s)" sa sb
    | Shr -> Printf.sprintf "(%s >> %s)" sa sb
    | Ashr -> Printf.sprintf "($signed(%s) >>> %s)" sa sb
    | Eq -> Printf.sprintf "(%s == %s)" sa sb
    | Ne -> Printf.sprintf "(%s != %s)" sa sb
    | Lt -> signed "(%s < %s)"
    | Le -> signed "(%s <= %s)"
    | Gt -> signed "(%s > %s)"
    | Ge -> signed "(%s >= %s)"
    | Ult -> Printf.sprintf "(%s < %s)" sa sb
    | Ule -> Printf.sprintf "(%s <= %s)" sa sb
    | Ugt -> Printf.sprintf "(%s > %s)" sa sb
    | Uge -> Printf.sprintf "(%s >= %s)" sa sb)
  | Netlist.Un (Neg, a) -> Printf.sprintf "(-%s)" (expr_to_v a)
  | Netlist.Un (Bnot, a) -> Printf.sprintf "(~%s)" (expr_to_v a)
  | Netlist.Un (Lnot, a) -> Printf.sprintf "(%s == 0)" (expr_to_v a)
  | Netlist.Mux (s, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (expr_to_v s) (expr_to_v a) (expr_to_v b)

let width_decl w = if w = 1 then "" else Printf.sprintf "[%d:0] " (w - 1)

let emit (net : Netlist.t) =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let ports =
    "clk" :: "rst"
    :: List.rev_map sig_ref net.inputs
    @ List.rev_map sig_ref net.outputs
  in
  add "module %s (" (sanitize net.mod_name);
  add "  %s" (String.concat ",\n  " ports);
  add ");";
  add "  input wire clk;";
  add "  input wire rst;";
  List.iter
    (fun (s : Netlist.signal) -> add "  input wire %s%s;" (width_decl s.width) (sig_ref s))
    (List.rev net.inputs);
  List.iter
    (fun (s : Netlist.signal) -> add "  output wire %s%s;" (width_decl s.width) (sig_ref s))
    (List.rev net.outputs);
  (* Internal declarations. *)
  let declared = Hashtbl.create 64 in
  List.iter (fun (s : Netlist.signal) -> Hashtbl.replace declared s.sid `Port) net.inputs;
  List.iter (fun (s : Netlist.signal) -> Hashtbl.replace declared s.sid `Port) net.outputs;
  List.iter
    (fun (r : Netlist.reg) ->
      if not (Hashtbl.mem declared r.q.sid) then begin
        add "  reg %s%s;" (width_decl r.q.width) (sig_ref r.q);
        Hashtbl.replace declared r.q.sid `Reg
      end)
    net.regs;
  List.iter
    (fun ((s : Netlist.signal), _) ->
      if not (Hashtbl.mem declared s.sid) then begin
        add "  wire %s%s;" (width_decl s.width) (sig_ref s);
        Hashtbl.replace declared s.sid `Wire
      end)
    net.combs;
  List.iter
    (fun (m : Netlist.mem) ->
      add "  reg %s%s [0:%d];" (width_decl m.mem_width) (sanitize m.mem_name) (m.size - 1);
      add "  reg %s%s;" (width_decl m.mem_width) (sig_ref m.rdata))
    net.mems;
  (* Continuous assignments. *)
  List.iter
    (fun ((s : Netlist.signal), e) -> add "  assign %s = %s;" (sig_ref s) (expr_to_v e))
    (List.rev net.combs);
  (* Registers. *)
  if net.regs <> [] then begin
    add "  always @(posedge clk) begin";
    add "    if (rst) begin";
    List.iter
      (fun (r : Netlist.reg) -> add "      %s <= %d'd%d;" (sig_ref r.q) r.q.width r.reset_value)
      (List.rev net.regs);
    add "    end else begin";
    List.iter
      (fun (r : Netlist.reg) ->
        match r.enable with
        | Netlist.Const (1, 1) -> add "      %s <= %s;" (sig_ref r.q) (expr_to_v r.next)
        | en -> add "      if (%s) %s <= %s;" (expr_to_v en) (sig_ref r.q) (expr_to_v r.next))
      (List.rev net.regs);
    add "    end";
    add "  end"
  end;
  (* Memories. *)
  List.iter
    (fun (m : Netlist.mem) ->
      add "  always @(posedge clk) begin";
      add "    %s <= %s[%s];" (sig_ref m.rdata) (sanitize m.mem_name) (expr_to_v m.raddr);
      add "    if (%s) %s[%s] <= %s;" (expr_to_v m.wen) (sanitize m.mem_name)
        (expr_to_v m.waddr) (expr_to_v m.wdata);
      add "  end")
    net.mems;
  add "endmodule";
  Buffer.contents buf
