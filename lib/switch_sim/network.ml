open Dl_cell

type t = {
  mapping : Mapping.network;
  channel_edges : int list array;  (* node -> transistor indices *)
  gated_by : int list array;       (* node -> transistor indices *)
  owner : int array;               (* node -> instance index or -1 *)
  primary_input : bool array;      (* node -> is a PI signal node *)
}

let build (m : Mapping.network) =
  let n = m.node_count in
  let channel_edges = Array.make n [] in
  let gated_by = Array.make n [] in
  Array.iteri
    (fun ti (tr : Mapping.transistor) ->
      channel_edges.(tr.source) <- ti :: channel_edges.(tr.source);
      channel_edges.(tr.drain) <- ti :: channel_edges.(tr.drain);
      gated_by.(tr.gate) <- ti :: gated_by.(tr.gate))
    m.transistors;
  let owner = Array.make n (-1) in
  Array.iteri
    (fun ii (inst : Mapping.instance) ->
      owner.(inst.output_node) <- ii;
      Array.iter (fun nd -> owner.(nd) <- ii) inst.internal_nodes)
    m.instances;
  let primary_input = Array.make n false in
  Array.iter
    (fun pi -> primary_input.(m.signal_node.(pi)) <- true)
    m.circuit.inputs;
  (* Reverse adjacency lists so they run in ascending transistor order. *)
  Array.iteri (fun i l -> channel_edges.(i) <- List.rev l) channel_edges;
  Array.iteri (fun i l -> gated_by.(i) <- List.rev l) gated_by;
  { mapping = m; channel_edges; gated_by; owner; primary_input }

let mapping t = t.mapping
let channel_edges t node = t.channel_edges.(node)
let gated_by t node = t.gated_by.(node)

let owner_instance t node = if t.owner.(node) < 0 then None else Some t.owner.(node)

let is_rail t node = node = t.mapping.gnd || node = t.mapping.vdd
let is_primary_input t node = t.primary_input.(node)
