(** Aligned ASCII tables for benchmark and example output. *)

type align = Left | Right

type t

val create : (string * align) list -> t
(** [create columns] starts a table with the given headers. *)

val add_row : t -> string list -> unit
(** Append a row; must have exactly as many cells as there are columns. *)

val render : t -> string
(** Render with a header rule, columns padded to the widest cell. *)

val print : t -> unit
(** [render] to stdout. *)

val fmt_pct : float -> string
(** Fraction as percent with two decimals, e.g. [0.977 -> "97.70%"]. *)

val fmt_ppm : float -> string
(** Fraction as ppm with one decimal, e.g. [1e-4 -> "100.0 ppm"]. *)
