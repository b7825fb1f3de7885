(** Structural netlist transformations. *)

val decompose_for_cells : ?max_stack:int -> Circuit.t -> Circuit.t
(** Rewrite a circuit so every gate fits a standard-cell library:
    XOR/XNOR become trees of 2-input gates, and AND/OR/NAND/NOR wider than
    [max_stack] (default 4, the longest practical CMOS series stack) are
    split into trees, and one-input gates of those kinds become buffers or
    inverters.  Signal names of original nodes are preserved, so
    fault sites and coverage results remain comparable; helper nodes get a
    ["_dx"] suffix. *)

val is_cell_mappable : ?max_stack:int -> Circuit.t -> bool
(** Whether every gate already fits the cell library. *)

(** {2 Shrinker hooks}

    Structural surgery used by {!Dl_check}'s counterexample minimizer: both
    functions rebuild the circuit and return, alongside it, a map from old
    node ids to surviving new ids ([None] for removed nodes), so fault
    sites can be carried across the transformation.  Primary inputs are
    always kept (vector width and PI order are stable), and signal names
    of surviving nodes are preserved. *)

val eliminate_node : Circuit.t -> int -> Circuit.t * int option array
(** [eliminate_node c id] removes the non-input node [id] by wiring every
    reader through its first fanin (and promoting that fanin to a primary
    output wherever [id] was one).  The result computes a different
    function but is always well-formed — exactly what a shrinker needs to
    delete one gate at a time.  @raise Invalid_argument on a primary input
    or out-of-range id. *)

val prune_dead : Circuit.t -> Circuit.t * int option array
(** Remove every node from which no primary output is reachable (primary
    inputs are kept even when dead, preserving the PI interface). *)
