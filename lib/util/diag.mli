(** Unified diagnostics for static analysis and runtime health reports.

    Every finding — from the whole-design static analyzer, from
    [System.validate], from stream-protocol monitors or from the chaos
    runner — is a [Diag.t]: a stable machine-readable code, a severity,
    the design element it concerns, a human message and (when the design
    came from DSL source) a line/column span.

    Codes are stable across releases and grouped by family:
    - [SOC0xx] — task-graph / system-integration checks
    - [KRN1xx] — kernel IR type errors
    - [RES2xx] — address-map and resource-budget checks
    - [RUN3xx] — runtime findings (stream protocol, chaos campaigns) *)

type severity = Error | Warning | Info

type span = { line : int; col : int }

type t = {
  code : string;  (** stable diagnostic code, e.g. ["SOC031"] *)
  severity : severity;
  subject : string;  (** the design element concerned, e.g. ["HIST.pix"] *)
  message : string;
  span : span option;  (** DSL source position, when known *)
}

val error : ?span:span -> code:string -> subject:string -> string -> t
val warning : ?span:span -> code:string -> subject:string -> string -> t
val info : ?span:span -> code:string -> subject:string -> string -> t

val severity_label : severity -> string
(** ["error"], ["warning"] or ["info"]. *)

val compare : t -> t -> int
(** Orders by severity (errors first), then code, then subject, then
    message — a stable presentation order independent of check order. *)

val sort : t list -> t list

val has_errors : t list -> bool

val error_count : t list -> int

val warning_count : t list -> int

val promote_warnings : t list -> t list
(** [--Werror]: every [Warning] becomes an [Error]; [Info] is untouched. *)

val suppress : codes:string list -> t list -> t list
(** Drops diagnostics whose code appears in [codes]. *)

val to_string : ?file:string -> t -> string
(** [file:line:col: severity[CODE] subject: message]; omits the position
    prefix when there is no span, and the file when [file] is absent. *)

val to_json : ?file:string -> t -> string
(** One JSON object with fields [code], [severity], [subject], [message]
    and optionally [file], [line], [col]. *)


val pp : Format.formatter -> t -> unit
