(** Technology mapping and flattening: from a gate-level circuit to a single
    whole-chip transistor network with global node numbering.

    Node id conventions: node 0 is GND, node 1 is VDD; every circuit signal
    (including primary inputs) gets one network node; every cell instance
    contributes its internal nodes.  The switch-level simulator and the
    layout generator both consume this structure. *)

open Dl_netlist

type transistor = {
  channel : Cell.channel;
  gate : int;    (** Network node controlling the channel. *)
  source : int;
  drain : int;
  instance : int;  (** Index into {!network.instances}, or -1 (unused). *)
}

type instance = {
  gate_id : int;            (** Circuit node this cell implements. *)
  cell : Cell.t;
  input_nodes : int array;  (** Network nodes, in cell input-port order. *)
  output_node : int;
  internal_nodes : int array;  (** Parallel to [cell.internal]. *)
  first_transistor : int;   (** Offset of this instance's transistors. *)
}

type network = {
  circuit : Circuit.t;
  gnd : int;
  vdd : int;
  node_count : int;
  node_names : string array;   (** Indexed by network node id. *)
  signal_node : int array;     (** Circuit node id -> network node id. *)
  transistors : transistor array;
  instances : instance array;  (** One per logic gate, topological order. *)
}

exception Unmappable of string
(** Raised when a gate has no cell (decompose first with
    {!Dl_netlist.Transform.decompose_for_cells}). *)

val flatten : Circuit.t -> network
(** @raise Unmappable on gates outside the cell library. *)

val transistor_count : network -> int

val instance_of_gate : network -> int -> instance option
(** The cell instance implementing the given circuit node (None for PIs). *)

val pp_summary : Format.formatter -> network -> unit
