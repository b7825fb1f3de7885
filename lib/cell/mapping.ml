open Dl_netlist

type transistor = {
  channel : Cell.channel;
  gate : int;
  source : int;
  drain : int;
  instance : int;
}

type instance = {
  gate_id : int;
  cell : Cell.t;
  input_nodes : int array;
  output_node : int;
  internal_nodes : int array;
  first_transistor : int;
}

type network = {
  circuit : Circuit.t;
  gnd : int;
  vdd : int;
  node_count : int;
  node_names : string array;
  signal_node : int array;
  transistors : transistor array;
  instances : instance array;
}

exception Unmappable of string

let flatten (c : Circuit.t) =
  let n_signals = Circuit.node_count c in
  let names = ref [ "VDD"; "GND" ] (* reversed *) in
  let next_node = ref 2 in
  let fresh name =
    let id = !next_node in
    incr next_node;
    names := name :: !names;
    id
  in
  let signal_node = Array.init n_signals (fun id -> 2 + id) in
  Array.iter (fun (nd : Circuit.node) -> ignore (fresh nd.name)) c.nodes;
  let transistors = ref [] (* reversed *) in
  let n_transistors = ref 0 in
  let instances = ref [] (* reversed *) in
  let n_instances = ref 0 in
  Array.iter
    (fun id ->
      let nd = c.nodes.(id) in
      if nd.kind <> Gate.Input then begin
        let arity = Array.length nd.fanin in
        let cell =
          try Cell.for_gate nd.kind ~arity
          with Invalid_argument msg ->
            raise
              (Unmappable
                 (Printf.sprintf "gate %S (%s/%d): %s" nd.name
                    (Gate.to_string nd.kind) arity msg))
        in
        let input_nodes = Array.map (fun src -> signal_node.(src)) nd.fanin in
        let output_node = signal_node.(id) in
        let internal_nodes =
          Array.of_list
            (List.map
               (fun net -> fresh (Printf.sprintf "%s/%s" nd.name net))
               cell.internal)
        in
        let resolve term =
          match term with
          | Cell.Gnd -> 0
          | Cell.Vdd -> 1
          | Cell.Port p ->
              if p = cell.output then output_node
              else begin
                let rec find i = function
                  | [] -> raise (Unmappable ("unknown port " ^ p))
                  | q :: _ when q = p -> input_nodes.(i)
                  | _ :: rest -> find (i + 1) rest
                in
                find 0 cell.inputs
              end
          | Cell.Net net ->
              let rec find i = function
                | [] -> raise (Unmappable ("unknown net " ^ net))
                | q :: _ when q = net -> internal_nodes.(i)
                | _ :: rest -> find (i + 1) rest
              in
              find 0 cell.internal
        in
        let first_transistor = !n_transistors in
        List.iter
          (fun (tr : Cell.transistor) ->
            transistors :=
              {
                channel = tr.channel;
                gate = resolve tr.gate;
                source = resolve tr.source;
                drain = resolve tr.drain;
                instance = !n_instances;
              }
              :: !transistors;
            incr n_transistors)
          cell.transistors;
        instances :=
          { gate_id = id; cell; input_nodes; output_node; internal_nodes; first_transistor }
          :: !instances;
        incr n_instances
      end)
    c.topo_order;
  {
    circuit = c;
    gnd = 0;
    vdd = 1;
    node_count = !next_node;
    node_names = Array.of_list (List.rev !names);
    signal_node;
    transistors = Array.of_list (List.rev !transistors);
    instances = Array.of_list (List.rev !instances);
  }

let transistor_count net = Array.length net.transistors

let instance_of_gate net gate_id =
  Array.find_opt (fun inst -> inst.gate_id = gate_id) net.instances

let pp_summary ppf net =
  Format.fprintf ppf "%s: %d network nodes, %d transistors, %d cell instances"
    net.circuit.title net.node_count (transistor_count net)
    (Array.length net.instances)
