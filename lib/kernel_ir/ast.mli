(** Abstract syntax of accelerator kernels — the unit handed to HLS.
    Scalar ports become AXI-Lite registers; stream ports become AXI-Stream
    interfaces; arrays are accelerator-local BRAMs. *)

type binop =
  | Add | Sub | Mul
  | Div | Rem  (** signed, truncating toward zero (C semantics) *)
  | Udiv | Urem
  | Band | Bor | Bxor
  | Shl | Shr  (** logical right shift *)
  | Ashr
  | Eq | Ne
  | Lt | Le | Gt | Ge  (** signed comparisons *)
  | Ult | Ule | Ugt | Uge

type unop = Neg | Bnot | Lnot

type expr =
  | Int of int
  | Var of string
  | Load of string * expr
  | Bin of binop * expr * expr
  | Un of unop * expr

type stmt =
  | Assign of string * expr
  | Store of string * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of string * expr * expr * stmt list
      (** [For (v, lo, hi, body)] is [for (v = lo; v < hi; v++) body]. *)
  | Pop of string * string  (** blocking [var <- stream.read ()] *)
  | Push of string * expr  (** blocking [stream.write e] *)

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

val port_name : port -> string
val port_dir : port -> dir
val is_stream : port -> bool
val stream_ports : kernel -> port list
val stream_inputs : kernel -> port list
val stream_outputs : kernel -> port list

(** Concise constructors; kernels read naturally at the call site. *)
module Build : sig
  val int : int -> expr
  val v : string -> expr
  val ( +: ) : expr -> expr -> expr
  val ( -: ) : expr -> expr -> expr
  val ( *: ) : expr -> expr -> expr
  val ( /: ) : expr -> expr -> expr
  val ( %: ) : expr -> expr -> expr
  val ( <: ) : expr -> expr -> expr
  val ( <=: ) : expr -> expr -> expr
  val ( >: ) : expr -> expr -> expr
  val ( >=: ) : expr -> expr -> expr
  val ( =: ) : expr -> expr -> expr
  val ( <>: ) : expr -> expr -> expr
  val ( &: ) : expr -> expr -> expr
  val ( |: ) : expr -> expr -> expr
  val ( ^: ) : expr -> expr -> expr
  val ( <<: ) : expr -> expr -> expr
  val ( >>: ) : expr -> expr -> expr
  val load : string -> expr -> expr
  val set : string -> expr -> stmt
  val store : string -> expr -> expr -> stmt
  val if_ : expr -> stmt list -> stmt list -> stmt
  val while_ : expr -> stmt list -> stmt
  val for_ : string -> from:expr -> below:expr -> stmt list -> stmt
  val pop : string -> string -> stmt
  val push : string -> expr -> stmt
  val in_scalar : string -> Ty.t -> port
  val out_scalar : string -> Ty.t -> port
  val in_stream : string -> Ty.t -> port
  val out_stream : string -> Ty.t -> port
  val array : ?init:int array -> string -> Ty.t -> int -> array_decl
end

val binop_symbol : binop -> string

val to_c : kernel -> string
(** Pseudo-C rendering: the "synthesizable source" artifact of the flow. *)

val complexity : kernel -> int
(** Static operation count; drives the HLS-runtime cost model (Fig. 9). *)
