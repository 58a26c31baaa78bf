(** JSON string escaping shared by every hand-written JSON emitter
    (protocol codec, diagnostics, farm traces, frontier reports, CLI). *)

val add_escaped : Buffer.t -> string -> unit
(** Append [s] as the body of a JSON string literal, without the quotes.
    Double quote, backslash, newline, carriage return and tab are escaped
    by name, other control bytes as [\u00XX]; everything else (UTF-8
    included) is copied verbatim. *)

val escape : string -> string
(** {!add_escaped} into a fresh string. *)
