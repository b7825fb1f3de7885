module Ternary = Dl_logic.Ternary
module Cone = Dl_logic.Propagate.Cone
module Mapping = Dl_cell.Mapping

type detection = { voltage : int option; iddq : int option }

(* One compiled solve per vector from unknown charge, with the good
   machine's values at the region's inputs (no feedback iteration). *)
let detect ?(resistance = 0.0) net ~node_a ~node_b ~vectors =
  let m = Network.mapping net in
  let c = m.Mapping.circuit in
  let instances =
    List.sort_uniq compare
      (List.filter_map (fun g -> Network.owner_instance net g) [ node_a; node_b ])
  in
  let region =
    Solver.compile
      (Solver.make net ~instances
         ~modifications:[ Solver.Resistive_bridge { node_a; node_b; resistance } ])
  in
  let signal g = match Swift.signal_of m g with Some cn -> cn | None -> -1 in
  let ext_signal = Array.map signal (Solver.external_nodes region) in
  let out_signal = Array.map signal (Solver.solved_nodes region) in
  let ext = Array.make (Array.length ext_signal) Ternary.VX in
  let charge = Array.make (Array.length out_signal) Ternary.VX in
  let out = Array.make (Array.length out_signal) Ternary.VX in
  let scratch = Solver.scratch () and cone = Cone.create c in
  let goods = Swift.good_values net vectors in
  let voltage = ref None and iddq = ref None in
  (try
     Array.iteri
       (fun k good ->
         Array.iteri
           (fun j cn -> ext.(j) <- (if cn < 0 then Ternary.VX else Ternary.of_bool good.(cn)))
           ext_signal;
         let fight = Solver.solve_compiled region scratch ~ext ~charge ~out in
         if !iddq = None && fight then iddq := Some k;
         Cone.start cone good;
         Array.iteri (fun i cn -> if cn >= 0 then Cone.seed cone cn out.(i)) out_signal;
         Cone.propagate cone;
         if !voltage = None && Cone.po_detects cone then voltage := Some k;
         if !voltage <> None && !iddq <> None then raise Exit)
       goods
   with Exit -> ());
  { voltage = !voltage; iddq = !iddq }

let critical_resistance ?(r_max = 64.0) ?(tolerance = 0.05) net ~node_a ~node_b
    ~vectors =
  let detected r = (detect ~resistance:r net ~node_a ~node_b ~vectors).voltage <> None in
  if not (detected 0.0) then None
  else if detected r_max then Some r_max
  else begin
    (* Detection is monotone in resistance under the strength model:
       bisection finds the threshold. *)
    let rec bisect lo hi =
      if hi -. lo <= tolerance then lo
      else begin
        let mid = 0.5 *. (lo +. hi) in
        if detected mid then bisect mid hi else bisect lo mid
      end
    in
    Some (bisect 0.0 r_max)
  end

let coverage_vs_resistance net ~bridges ~vectors ~resistances =
  Array.map
    (fun r ->
      let hit =
        Array.fold_left
          (fun acc (a, b) ->
            if (detect ~resistance:r net ~node_a:a ~node_b:b ~vectors).voltage <> None
            then acc + 1
            else acc)
          0 bridges
      in
      (r, float_of_int hit /. float_of_int (max 1 (Array.length bridges))))
    resistances
