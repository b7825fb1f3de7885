let fits ~max_stack (nd : Circuit.node) =
  let arity = Array.length nd.fanin in
  match nd.kind with
  | Gate.Input | Gate.Buf | Gate.Not -> true
  | Gate.Xor | Gate.Xnor -> arity = 2
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor -> arity >= 2 && arity <= max_stack

let is_cell_mappable ?(max_stack = 4) (c : Circuit.t) =
  Array.for_all (fits ~max_stack) c.nodes

let decompose_for_cells ?(max_stack = 4) (c : Circuit.t) =
  if max_stack < 2 then invalid_arg "Transform.decompose_for_cells: max_stack < 2";
  let b = Circuit.Builder.create ~title:c.title in
  let counter = ref 0 in
  let helper base =
    incr counter;
    Printf.sprintf "%s_dx%d" base !counter
  in
  (* Reduce [names] to at most [width] signals by folding groups of [width]
     through [inner] gates; used for wide AND/OR/XOR trees. *)
  let rec reduce_tree base inner width names =
    if List.length names <= width then names
    else begin
      let rec group acc current = function
        | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
        | x :: rest ->
            if List.length current = width then
              group (List.rev current :: acc) [ x ] rest
            else group acc (x :: current) rest
      in
      let folded =
        List.map
          (fun grp ->
            match grp with
            | [ single ] -> single
            | _ ->
                let nm = helper base in
                Circuit.Builder.add_gate b nm inner grp;
                nm)
          (group [] [] names)
      in
      reduce_tree base inner width folded
    end
  in
  Array.iter
    (fun id ->
      let nd = c.nodes.(id) in
      let name = nd.name in
      let fanin_names = Array.to_list (Array.map (Circuit.name c) nd.fanin) in
      if nd.kind = Gate.Input then Circuit.Builder.add_input b name
      else if fits ~max_stack nd then Circuit.Builder.add_gate b name nd.kind fanin_names
      else begin
        match nd.kind with
        | (Gate.And | Gate.Or | Gate.Xor) when Array.length nd.fanin = 1 ->
            (* The library has no one-input cells of these kinds. *)
            Circuit.Builder.add_gate b name Gate.Buf fanin_names
        | (Gate.Nand | Gate.Nor | Gate.Xnor) when Array.length nd.fanin = 1 ->
            Circuit.Builder.add_gate b name Gate.Not fanin_names
        | Gate.And | Gate.Nand ->
            (* Fold with AND trees, keep the final (possibly inverting)
               stage at the original name. *)
            let reduced = reduce_tree name Gate.And max_stack fanin_names in
            Circuit.Builder.add_gate b name nd.kind reduced
        | Gate.Or | Gate.Nor ->
            let reduced = reduce_tree name Gate.Or max_stack fanin_names in
            Circuit.Builder.add_gate b name nd.kind reduced
        | Gate.Xor | Gate.Xnor ->
            let reduced = reduce_tree name Gate.Xor 2 fanin_names in
            Circuit.Builder.add_gate b name nd.kind reduced
        | Gate.Input | Gate.Buf | Gate.Not ->
            (* [fits] accepts these kinds at any arity, so a finalized
               circuit cannot reach here; a node that does is structurally
               corrupt and deserves a diagnosis, not an assert. *)
            invalid_arg
              (Printf.sprintf
                 "Transform.decompose_for_cells: %s node %S (arity %d) \
                  cannot exceed the cell stack limit"
                 (Gate.to_string nd.kind) name
                 (Array.length nd.fanin))
      end)
    c.topo_order;
  Array.iter (fun o -> Circuit.Builder.add_output b (Circuit.name c o)) c.outputs;
  Circuit.Builder.finalize b

(* Rebuild [c] keeping the nodes for which [keep] holds, substituting the
   name of [replace id] for any fanin/output reference to a dropped node.
   Shared by the two shrinker hooks below.  Returns the new circuit plus
   the old-id -> new-id map (computed by name, which both hooks preserve). *)
let rebuild (c : Circuit.t) ~keep ~replace =
  let b = Circuit.Builder.create ~title:c.title in
  (* Resolve a reference through dropped nodes to a kept representative;
     chains terminate because [replace] always points at a lower id that is
     a fanin of the dropped node (the DAG ensures strict decrease). *)
  let rec resolve id = if keep.(id) then id else resolve (replace id) in
  Array.iter
    (fun id -> Circuit.Builder.add_input b (Circuit.name c id))
    c.inputs;
  Array.iter
    (fun id ->
      let nd = c.nodes.(id) in
      if keep.(id) && nd.Circuit.kind <> Gate.Input then
        Circuit.Builder.add_gate b nd.Circuit.name nd.Circuit.kind
          (Array.to_list
             (Array.map (fun src -> Circuit.name c (resolve src)) nd.Circuit.fanin)))
    c.topo_order;
  (* Outputs: substitute dropped nodes, drop duplicates (a substitution can
     alias two output positions onto one surviving node). *)
  let seen_out = Hashtbl.create 8 in
  Array.iter
    (fun o ->
      let o = resolve o in
      if not (Hashtbl.mem seen_out o) then begin
        Hashtbl.add seen_out o ();
        Circuit.Builder.add_output b (Circuit.name c o)
      end)
    c.outputs;
  let c' = Circuit.Builder.finalize b in
  let map =
    Array.init (Circuit.node_count c) (fun id ->
        if keep.(id) then Circuit.find_opt c' (Circuit.name c id) else None)
  in
  (c', map)

let eliminate_node (c : Circuit.t) id =
  if id < 0 || id >= Circuit.node_count c then
    invalid_arg
      (Printf.sprintf "Transform.eliminate_node: node id %d out of range" id);
  let nd = c.nodes.(id) in
  if nd.Circuit.kind = Gate.Input then
    invalid_arg
      (Printf.sprintf
         "Transform.eliminate_node: %S is a primary input" nd.Circuit.name);
  let keep = Array.make (Circuit.node_count c) true in
  keep.(id) <- false;
  rebuild c ~keep ~replace:(fun _ -> nd.Circuit.fanin.(0))

let prune_dead (c : Circuit.t) =
  let n = Circuit.node_count c in
  let keep = Array.make n false in
  (* Backward reachability from the primary outputs. *)
  let rec mark id =
    if not keep.(id) then begin
      keep.(id) <- true;
      Array.iter mark c.nodes.(id).Circuit.fanin
    end
  in
  Array.iter mark c.outputs;
  Array.iter (fun id -> keep.(id) <- true) c.inputs;
  (* No reference to a dropped node can remain (readers of a dropped node
     are themselves dropped), so [replace] is never consulted. *)
  rebuild c ~keep ~replace:(fun id ->
      invalid_arg
        (Printf.sprintf
           "Transform.prune_dead: dangling reference to dead node %d" id))
