(** Minimal JSON parser for the telemetry tooling ([bin/mbac_report]
    reads back the traces and series that {!Json} renders).

    Self-contained on purpose: the repository ships no JSON library
    dependency, and the subset here (RFC 8259 values, numbers as
    [float], [\u] escapes decoded to UTF-8) is exactly what the
    deterministic renderer produces plus enough slack to read
    hand-edited files. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace is an error.
    Errors carry a byte offset and a description. *)

(** Accessors return [None] on a kind mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option
(** [Null] maps to [nan]: the renderer writes non-finite floats as
    [null], so reading them back as [nan] round-trips. *)

val to_int : t -> int option
(** Only for numbers with integral values. *)

val to_string : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option

val to_json : t -> string
(** Render a value back with {!Json}'s rules.  A document {!Json}
    rendered round-trips byte for byte through [parse] and [to_json]:
    numbers print as [%.12g] when that reads back exactly, else as an
    integer or [%.17g]. *)
