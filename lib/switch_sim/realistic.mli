(** Realistic (defect-induced) fault models at transistor/interconnect
    level: the fault population the paper extracts from layout and weights
    by occurrence probability (shorts and opens "with different topologies
    and weights"). *)

type float_policy =
  | Floats_low      (** Disconnected input leaks to GND: behaves stuck-0. *)
  | Floats_high     (** Leaks to VDD: behaves stuck-1. *)
  | Floats_unknown  (** Intermediate voltage: logically X, but both
                        transistor networks of the reading cell conduct, so
                        the defect is IDDQ-observable. *)

type kind =
  | Bridge of { node_a : int; node_b : int }
      (** Short between two network nodes (routing-to-routing,
          intra-cell, or to a supply rail). *)
  | Transistor_stuck_open of int
      (** Network transistor index: channel never conducts (charge
          retention makes these two-pattern faults). *)
  | Transistor_stuck_on of int
      (** Channel always conducts (gate-oxide short): creates rail fights
          for some inputs. *)
  | Input_open of { gate : int; pin : int; policy : float_policy }
      (** Interconnect break at one fanout branch: circuit node [gate]'s
          input [pin] floats. *)
  | Stem_open of { node : int; policy : float_policy }
      (** Break near the driver: the whole net floats for all readers. *)

type t = {
  kind : kind;
  weight : float;
      (** w_j = A_j * D_j (eq. 4): average number of defects inducing this
          fault; occurrence probability is p_j = 1 - exp (-w_j). *)
  label : string;  (** Human-readable site description. *)
}

val probability : t -> float
(** p_j = 1 - exp (-w_j). *)

val weight_of_probability : float -> float
(** Inverse of {!probability}: w = -ln (1 - p) (eq. 4). *)

val is_short : t -> bool
(** Bridges and stuck-ons (the defect classes CMOS defect statistics make
    dominant). *)

val describe : t -> string
