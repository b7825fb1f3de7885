(** Combinational gate primitives of the ISCAS-85 benchmark suite.

    [Input] marks primary-input nodes; all other kinds are logic gates.
    Gates are n-ary where the function allows it ([Not]/[Buf] are unary). *)

type kind =
  | Input
  | Buf
  | Not
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor

val all_logic : kind list
(** Every kind except [Input]. *)

val to_string : kind -> string
(** Upper-case ISCAS name, e.g. [Nand -> "NAND"]. *)

val of_string : string -> kind option
(** Case-insensitive parse of the ISCAS name ([Input] is not parseable this
    way; the bench format declares inputs separately). *)

val arity_ok : kind -> int -> bool
(** Whether a gate of this kind may have the given number of inputs. *)

val eval : kind -> bool array -> bool
(** Evaluate on concrete inputs.  Raises [Invalid_argument] when applied to
    [Input].  Arity is {e not} validated here: gates inside a finalized
    {!Circuit.t} were checked once at construction ([Builder.finalize]), so
    the simulation hot paths skip the per-call check.  Use {!eval_checked}
    for fanin arrays of unknown provenance. *)

val eval_checked : kind -> bool array -> bool
(** {!eval} preceded by an arity check; raises [Invalid_argument] on
    violations (e.g. [Not] with two inputs). *)

val eval_word : kind -> int64 array -> int64
(** Bitwise 64-way parallel evaluation: bit [i] of the result is the gate
    evaluated on bit [i] of each input word.  Arity is not validated (see
    {!eval}). *)

val controlling_value : kind -> bool option
(** The input value that forces the output regardless of other inputs
    (e.g. [Some false] for AND/NAND); [None] for XOR/XNOR/BUF/NOT. *)

val controlled_response : kind -> bool
(** Output when some input is at the controlling value.  Meaningful only
    when {!controlling_value} is [Some _]. *)

val inversion : kind -> bool
(** Whether the gate inverts ([Not], [Nand], [Nor], [Xnor]). *)

(** {2 Integer opcodes}

    Dense int codes for flat circuit representations ({!Kernel}): a kernel
    stores one opcode per node and dispatches on plain integer compares,
    avoiding variant pattern-matching and enabling tight unboxed loops. *)

val op_and : int
val op_nand : int
val op_or : int
val op_nor : int
val op_xor : int
val op_xnor : int
val op_buf : int
val op_not : int
val op_input : int

val opcode : kind -> int
(** Injective mapping [kind -> 0..8]. *)

val kind_of_opcode : int -> kind
(** Inverse of {!opcode}; raises [Invalid_argument] on out-of-range codes. *)

val op_inverts : int -> bool
(** Opcode-level {!inversion}: true for NAND/NOR/XNOR/NOT.  A unary n-ary
    gate (e.g. a 1-input NOR) reduces to [if op_inverts op then lognot x
    else x], which is what the kernels' unary fast path relies on. *)
