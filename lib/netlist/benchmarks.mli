(** Built-in benchmark circuits.

    [c17] is the exact ISCAS-85 c17 netlist.  [c432s] is the deterministic
    c432-scale synthetic circuit standing in for the paper's c432 layout
    (same 36-PI/7-PO interface and ISCAS-85 gate-mix profile; see DESIGN.md
    §4 for the substitution rationale). *)

val c17 : unit -> Circuit.t
(** 5 inputs, 2 outputs, 6 NAND gates — the smallest ISCAS-85 circuit. *)

val c432s : unit -> Circuit.t
(** 36 inputs, 7 outputs, ~160 gates with the published c432 gate mix
    (NAND-dominated with NOT, NOR, XOR, AND).  Deterministic. *)

val c432s_small : unit -> Circuit.t
(** A ~40-gate circuit with the same mix, for fast integration tests. *)

val c499s : unit -> Circuit.t
(** The c499-interface 32-bit single-error-correcting circuit (41 inputs,
    32 outputs): Hamming-style syndrome extraction plus per-bit correction,
    reconstructed from the published high-level model.  Built as [.bench]
    text and parsed with {!Bench_format.parse_string}. *)

val c880s : unit -> Circuit.t
(** The c880-interface 8-bit ALU (60 inputs, 26 outputs): operand select,
    ripple-carry add, logic unit, function select, output mask, comparator,
    parity and a priority encoder.  Built as [.bench] text and parsed with
    {!Bench_format.parse_string}. *)

val c1355s : unit -> Circuit.t
(** The c1355-interface 32-bit SEC circuit (41 inputs, 32 outputs):
    functionally identical to {!c499s} — ISCAS-85 c1355 is c499 with every
    XOR expanded — with each XOR emitted as the canonical 4-NAND macro, so
    the netlist is NAND-dominated at roughly c1355 scale. *)

val c1908s : unit -> Circuit.t
(** The c1908-interface 16-bit SEC/DED circuit (33 inputs, 25 outputs):
    test-inject bus, 5-bit Hamming syndrome plus overall parity,
    single-error correction and double-error detection, with XORs as
    4-NAND macros. *)

val c2670s : unit -> Circuit.t
(** The c2670-interface 12-bit ALU and controller (233 inputs, 140
    outputs): ripple-carry adder, sum/operand comparator, two mask
    arrays, a control decoder keyed into the slice parities, an equality
    bank and flags, with XORs as 4-NAND macros. *)

val c3540s : unit -> Circuit.t
(** The c3540-interface 8-bit binary/BCD ALU (50 inputs, 22 outputs):
    two-level operand selection, ripple-carry adder with a BCD
    decimal-adjust stage, logic unit, bidirectional 1-bit shifter,
    masked result bus, comparator, flags, a 5-line priority encoder and
    enable-gated condition outputs. *)

val by_name : string -> Circuit.t option
(** Lookup by benchmark name. *)

val all : (string * (unit -> Circuit.t)) list
(** Name/constructor pairs for every built-in benchmark. *)
