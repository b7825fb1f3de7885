module Gate = Dl_netlist.Gate

type channel = Nmos | Pmos

type term = Vdd | Gnd | Port of string | Net of string

type transistor = {
  channel : channel;
  gate : term;
  source : term;
  drain : term;
}

type t = {
  name : string;
  inputs : string list;
  output : string;
  internal : string list;
  transistors : transistor list;
}

let out = "o"

let port_names n = List.init n (fun i -> Printf.sprintf "%c" (Char.chr (Char.code 'a' + i)))

let nmos gate source drain = { channel = Nmos; gate; source; drain }
let pmos gate source drain = { channel = Pmos; gate; source; drain }

(* An inverter stage driving [target] from [input]. *)
let inverter_stage input target =
  [ nmos input Gnd target; pmos input Vdd target ]

(* Series stack of [channel] transistors from [rail] to [target], gated by
   [gates]; returns the transistors plus the internal midpoint nets. *)
let series channel ~rail ~target ~gates ~net_prefix =
  let n = List.length gates in
  let mids = List.init (n - 1) (fun i -> Printf.sprintf "%s%d" net_prefix (i + 1)) in
  let points = (rail :: List.map (fun m -> Net m) mids) @ [ target ] in
  let make i g =
    let src = List.nth points i and dst = List.nth points (i + 1) in
    { channel; gate = g; source = src; drain = dst }
  in
  (List.mapi make gates, mids)

let parallel channel ~rail ~target ~gates =
  List.map (fun g -> { channel; gate = g; source = rail; drain = target }) gates

let nand_stage ~inputs ~target ~net_prefix =
  let gates = List.map (fun p -> Port p) inputs in
  let pdn, mids = series Nmos ~rail:Gnd ~target ~gates ~net_prefix in
  let pun = parallel Pmos ~rail:Vdd ~target ~gates in
  (pdn @ pun, mids)

let nor_stage ~inputs ~target ~net_prefix =
  let gates = List.map (fun p -> Port p) inputs in
  let pun, mids = series Pmos ~rail:Vdd ~target ~gates ~net_prefix in
  let pdn = parallel Nmos ~rail:Gnd ~target ~gates in
  (pdn @ pun, mids)

let max_stack = 4

let check_arity kind arity =
  let ok =
    Gate.arity_ok kind arity
    &&
    match kind with
    | Gate.And | Gate.Nand | Gate.Or | Gate.Nor -> arity <= max_stack
    | Gate.Input | Gate.Buf | Gate.Not | Gate.Xor | Gate.Xnor -> true
  in
  if not ok then
    invalid_arg
      (Printf.sprintf "Cell.for_gate: %s with %d inputs" (Gate.to_string kind) arity)

let for_gate kind ~arity =
  check_arity kind arity;
  let inputs = port_names arity in
  let name k = Printf.sprintf "%s%d" k arity in
  match kind with
  | Gate.Input -> invalid_arg "Cell.for_gate: Input is not a cell"
  | Gate.Not ->
      {
        name = "INV";
        inputs;
        output = out;
        internal = [];
        transistors = inverter_stage (Port "a") (Port out);
      }
  | Gate.Buf ->
      {
        name = "BUF";
        inputs;
        output = out;
        internal = [ "m" ];
        transistors =
          inverter_stage (Port "a") (Net "m") @ inverter_stage (Net "m") (Port out);
      }
  | Gate.Nand ->
      let ts, mids = nand_stage ~inputs ~target:(Port out) ~net_prefix:"n" in
      { name = name "NAND"; inputs; output = out; internal = mids; transistors = ts }
  | Gate.Nor ->
      let ts, mids = nor_stage ~inputs ~target:(Port out) ~net_prefix:"n" in
      { name = name "NOR"; inputs; output = out; internal = mids; transistors = ts }
  | Gate.And ->
      let ts, mids = nand_stage ~inputs ~target:(Net "m") ~net_prefix:"n" in
      {
        name = name "AND";
        inputs;
        output = out;
        internal = "m" :: mids;
        transistors = ts @ inverter_stage (Net "m") (Port out);
      }
  | Gate.Or ->
      let ts, mids = nor_stage ~inputs ~target:(Net "m") ~net_prefix:"n" in
      {
        name = name "OR";
        inputs;
        output = out;
        internal = "m" :: mids;
        transistors = ts @ inverter_stage (Net "m") (Port out);
      }
  | Gate.Xor ->
      if arity <> 2 then
        invalid_arg "Cell.for_gate: XOR cells are 2-input; decompose wider XORs";
      (* o = not (a b + not a not b); complementary 12-transistor form with
         internal input complements na, nb. *)
      {
        name = "XOR2";
        inputs;
        output = out;
        internal = [ "na"; "nb"; "x1"; "x2"; "y1"; "y2" ];
        transistors =
          inverter_stage (Port "a") (Net "na")
          @ inverter_stage (Port "b") (Net "nb")
          @ [
              (* pull-down: (a,b) and (na,nb) series pairs *)
              nmos (Port "a") Gnd (Net "x1");
              nmos (Port "b") (Net "x1") (Port out);
              nmos (Net "na") Gnd (Net "x2");
              nmos (Net "nb") (Net "x2") (Port out);
              (* pull-up: (a,nb) and (na,b) series pairs *)
              pmos (Port "a") Vdd (Net "y1");
              pmos (Net "nb") (Net "y1") (Port out);
              pmos (Net "na") Vdd (Net "y2");
              pmos (Port "b") (Net "y2") (Port out);
            ];
      }
  | Gate.Xnor ->
      if arity <> 2 then
        invalid_arg "Cell.for_gate: XNOR cells are 2-input; decompose wider XNORs";
      {
        name = "XNOR2";
        inputs;
        output = out;
        internal = [ "na"; "nb"; "x1"; "x2"; "y1"; "y2" ];
        transistors =
          inverter_stage (Port "a") (Net "na")
          @ inverter_stage (Port "b") (Net "nb")
          @ [
              (* pull-down: (a,nb) and (na,b) *)
              nmos (Port "a") Gnd (Net "x1");
              nmos (Net "nb") (Net "x1") (Port out);
              nmos (Net "na") Gnd (Net "x2");
              nmos (Port "b") (Net "x2") (Port out);
              (* pull-up: (na,nb) and (a,b) *)
              pmos (Net "na") Vdd (Net "y1");
              pmos (Net "nb") (Net "y1") (Port out);
              pmos (Port "a") Vdd (Net "y2");
              pmos (Port "b") (Net "y2") (Port out);
            ];
      }

let transistor_count c = List.length c.transistors

let term_declared c = function
  | Vdd | Gnd -> true
  | Port p -> p = c.output || List.mem p c.inputs
  | Net n -> List.mem n c.internal

let validate c =
  List.iter
    (fun tr ->
      List.iter
        (fun term ->
          if not (term_declared c term) then
            invalid_arg (Printf.sprintf "Cell.validate(%s): undeclared terminal" c.name))
        [ tr.gate; tr.source; tr.drain ];
      (match tr.gate with
      | Vdd | Gnd -> invalid_arg "Cell.validate: rail used as transistor gate"
      | Port p when p = c.output ->
          invalid_arg "Cell.validate: output used as transistor gate"
      | Port _ | Net _ -> ()))
    c.transistors;
  (* The output must touch at least one channel terminal. *)
  let touches term =
    List.exists (fun tr -> tr.source = term || tr.drain = term) c.transistors
  in
  if not (touches (Port c.output)) then
    invalid_arg (Printf.sprintf "Cell.validate(%s): output not driven" c.name)

(* Fixpoint evaluation by path analysis: resolves internal sub-stage nets
   (inverter outputs) round by round. *)
let eval c lookup =
  let known : (term, bool) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.replace known Vdd true;
  Hashtbl.replace known Gnd false;
  List.iter (fun p -> Hashtbl.replace known (Port p) (lookup p)) c.inputs;
  let value term = Hashtbl.find_opt known term in
  let conducting tr =
    match value tr.gate with
    | Some g -> (match tr.channel with Nmos -> g | Pmos -> not g)
    | None -> false
  in
  (* Does [target] connect to [rail] through conducting channels? *)
  let reaches target rail =
    let visited = Hashtbl.create 8 in
    let rec dfs node =
      if node = rail then true
      else if Hashtbl.mem visited node then false
      else begin
        Hashtbl.replace visited node ();
        List.exists
          (fun tr ->
            conducting tr
            && ((tr.source = node && dfs tr.drain)
               || (tr.drain = node && dfs tr.source)))
          c.transistors
      end
    in
    dfs target
  in
  let targets =
    Port c.output :: List.map (fun n -> Net n) c.internal
  in
  let rounds = List.length targets + 2 in
  for _ = 1 to rounds do
    List.iter
      (fun target ->
        if value target = None then begin
          let up = reaches target Vdd and down = reaches target Gnd in
          match (up, down) with
          | true, false -> Hashtbl.replace known target true
          | false, true -> Hashtbl.replace known target false
          | true, true ->
              invalid_arg
                (Printf.sprintf "Cell.eval(%s): rail fight at internal node" c.name)
          | false, false -> ()
        end)
      targets
  done;
  match value (Port c.output) with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Cell.eval(%s): floating output" c.name)

let all_kinds =
  [
    (Gate.Not, 1);
    (Gate.Buf, 1);
    (Gate.Nand, 2);
    (Gate.Nand, 3);
    (Gate.Nand, 4);
    (Gate.Nor, 2);
    (Gate.Nor, 3);
    (Gate.Nor, 4);
    (Gate.And, 2);
    (Gate.And, 3);
    (Gate.And, 4);
    (Gate.Or, 2);
    (Gate.Or, 3);
    (Gate.Or, 4);
    (Gate.Xor, 2);
    (Gate.Xnor, 2);
  ]
