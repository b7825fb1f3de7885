(** Static CMOS standard cells described at transistor level.

    Every cell is a complementary network: a PMOS pull-up between VDD and
    the output and a dual NMOS pull-down between GND and the output
    (possibly through internal nodes for series stacks, and through
    sub-stages for compound cells like AND = NAND + INV).  This is the
    netlist the switch-level simulator and the layout generator consume. *)

type channel = Nmos | Pmos

type term =
  | Vdd
  | Gnd
  | Port of string  (** An input port or the output port. *)
  | Net of string   (** Cell-internal node (series stack midpoints, buffered
                        sub-stage outputs). *)

type transistor = {
  channel : channel;
  gate : term;    (** Controlling terminal. *)
  source : term;
  drain : term;
}

type t = private {
  name : string;            (** E.g. ["NAND3"]. *)
  inputs : string list;     (** Ordered input port names, e.g. ["a"; "b"]. *)
  output : string;          (** Output port name (always ["o"]). *)
  internal : string list;   (** Internal net names. *)
  transistors : transistor list;
}

val for_gate : Dl_netlist.Gate.kind -> arity:int -> t
(** The cell implementing a logic gate of the given kind and fan-in.
    Raises [Invalid_argument] for unsupported combinations ([Input], or
    XOR/XNOR with arity <> 2 — wide XORs must be decomposed first). *)

val transistor_count : t -> int

val validate : t -> unit
(** Structural checks: every transistor terminal is declared, the output is
    reachable from both rails through channel terminals, gates of
    transistors are inputs or internal nets.  Raises [Invalid_argument] on
    violation. *)

val eval : t -> (string -> bool) -> bool
(** [eval cell lookup] computes the cell's Boolean function by path
    analysis on the transistor graph (conducting pull-up => 1, conducting
    pull-down => 0).  Raises [Invalid_argument] if neither or both networks
    conduct — a malformed complementary cell.  Used for library
    verification against {!Dl_netlist.Gate.eval}. *)

val all_kinds : (Dl_netlist.Gate.kind * int) list
(** Every (kind, arity) combination the library provides. *)
