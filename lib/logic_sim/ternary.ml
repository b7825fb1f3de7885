type t = V0 | V1 | VX

let of_bool b = if b then V1 else V0
let to_bool = function V0 -> Some false | V1 -> Some true | VX -> None

let to_char = function V0 -> '0' | V1 -> '1' | VX -> 'X'

let equal a b = a = b

let inv = function V0 -> V1 | V1 -> V0 | VX -> VX

let band a b =
  match (a, b) with
  | V0, _ | _, V0 -> V0
  | V1, V1 -> V1
  | _ -> VX

let bor a b =
  match (a, b) with
  | V1, _ | _, V1 -> V1
  | V0, V0 -> V0
  | _ -> VX

let bxor a b =
  match (a, b) with
  | VX, _ | _, VX -> VX
  | V0, V0 | V1, V1 -> V0
  | V0, V1 | V1, V0 -> V1

(* Like [Gate.eval], arity is trusted: gates in a finalized [Circuit.t] were
   validated once by [Builder.finalize].  [eval_checked] re-validates. *)
let eval kind inputs =
  let open Dl_netlist in
  match kind with
  | Gate.Input -> invalid_arg "Ternary.eval: Input has no function"
  | Gate.Buf -> inputs.(0)
  | Gate.Not -> inv inputs.(0)
  | Gate.And -> Array.fold_left band V1 inputs
  | Gate.Nand -> inv (Array.fold_left band V1 inputs)
  | Gate.Or -> Array.fold_left bor V0 inputs
  | Gate.Nor -> inv (Array.fold_left bor V0 inputs)
  | Gate.Xor -> Array.fold_left bxor V0 inputs
  | Gate.Xnor -> inv (Array.fold_left bxor V0 inputs)
