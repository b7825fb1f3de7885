type float_policy = Floats_low | Floats_high | Floats_unknown

type kind =
  | Bridge of { node_a : int; node_b : int }
  | Transistor_stuck_open of int
  | Transistor_stuck_on of int
  | Input_open of { gate : int; pin : int; policy : float_policy }
  | Stem_open of { node : int; policy : float_policy }

type t = { kind : kind; weight : float; label : string }

let probability f = -.Float.expm1 (-.f.weight)

let weight_of_probability p =
  if p < 0.0 || p >= 1.0 then
    invalid_arg "Realistic.weight_of_probability: need 0 <= p < 1";
  -.Float.log1p (-.p)

let is_short f =
  match f.kind with
  | Bridge _ | Transistor_stuck_on _ -> true
  | Transistor_stuck_open _ | Input_open _ | Stem_open _ -> false

let kind_name = function
  | Bridge _ -> "bridge"
  | Transistor_stuck_open _ -> "ts-open"
  | Transistor_stuck_on _ -> "ts-on"
  | Input_open _ -> "input-open"
  | Stem_open _ -> "stem-open"

let describe f = Printf.sprintf "%s %s (w=%.3e)" (kind_name f.kind) f.label f.weight
