open Dl_logic
module Mapping = Dl_cell.Mapping
module Cell = Dl_cell.Cell

type modification =
  | Remove_transistor of int
  | Short_transistor of int
  | Bridge_nodes of { node_a : int; node_b : int }

(* Relative series resistances of the strength model.  The NMOS/PMOS ratio
   reflects electron/hole mobility, and deliberately breaks ties so that a
   hard bridge between opposing drivers resolves like the classical
   wired-AND CMOS bridging model (pull-down usually wins); a bridge is a
   hard short (zero resistance). *)
let r_nmos = 1.0
let r_pmos = 2.5
let r_bridge = 0.0

(* External pad drivers are much stronger than cell pulls but not perfectly
   matched to each other: when two bridged inputs fight, the (arbitrarily,
   deterministically) stronger pad wins, as on silicon.  Both strengths stay
   far below every cell-path resistance. *)
let r_driver node = 0.2 +. (0.001 *. float_of_int (node mod 97))
let infinite = infinity

type gating = Always_on | Gated of int * Cell.channel

type edge = { endpoint_a : int; endpoint_b : int; resistance : float; gating : gating }

type t = {
  network : Network.t;
  globals : int array;          (* local -> global node id (floats < 0 are synthetic) *)
  local_of : (int, int) Hashtbl.t;
  edges : edge array;
  gnd : int;                    (* local ids *)
  vdd : int;
  pi_nodes : (int * int) list;  (* (local, global) nodes with external pad drivers *)
  resolved : int list;          (* local ids whose values the region determines *)
}

let observable_nodes t =
  List.map (fun l -> t.globals.(l)) t.resolved
  @ List.map (fun (_, g) -> g) t.pi_nodes

let make (net : Network.t) ~instances ~modifications =
  let m = Network.mapping net in
  let removed = Hashtbl.create 4 in
  let shorted = Hashtbl.create 4 in
  List.iter
    (function
      | Remove_transistor ti -> Hashtbl.replace removed ti ()
      | Short_transistor ti -> Hashtbl.replace shorted ti ()
      | Bridge_nodes _ -> ())
    modifications;
  let local_of = Hashtbl.create 32 in
  let globals = ref [] in
  let count = ref 0 in
  let intern global =
    match Hashtbl.find_opt local_of global with
    | Some l -> l
    | None ->
        let l = !count in
        incr count;
        Hashtbl.replace local_of global l;
        globals := global :: !globals;
        l
  in
  let gnd = intern m.Mapping.gnd in
  let vdd = intern m.Mapping.vdd in
  let resolved = ref [] in
  List.iter
    (fun ii ->
      let inst = m.Mapping.instances.(ii) in
      resolved := intern inst.output_node :: !resolved;
      Array.iter (fun nd -> resolved := intern nd :: !resolved) inst.internal_nodes)
    instances;
  (* Channel edges from the instances' transistors. *)
  let edges = ref [] in
  List.iter
    (fun ii ->
      let inst = m.Mapping.instances.(ii) in
      let n_ts = List.length inst.cell.Cell.transistors in
      for k = 0 to n_ts - 1 do
        let ti = inst.first_transistor + k in
        if not (Hashtbl.mem removed ti) then begin
          let tr = m.Mapping.transistors.(ti) in
          let a = intern tr.source and b = intern tr.drain in
          let gating, resistance =
            if Hashtbl.mem shorted ti then (Always_on, r_nmos)
            else
              ( Gated (tr.gate, tr.channel),
                match tr.channel with Cell.Nmos -> r_nmos | Cell.Pmos -> r_pmos )
          in
          edges := { endpoint_a = a; endpoint_b = b; resistance; gating } :: !edges
        end
      done)
    instances;
  let pi_nodes = ref [] in
  let add_bridge node_a node_b =
    let a = intern node_a and b = intern node_b in
    edges :=
      { endpoint_a = a; endpoint_b = b; resistance = r_bridge; gating = Always_on }
      :: !edges;
    List.iter
      (fun (g, l) ->
        if Network.is_primary_input net g then pi_nodes := (l, g) :: !pi_nodes
        else resolved := l :: !resolved)
      [ (node_a, a); (node_b, b) ]
  in
  List.iter
    (function
      | Bridge_nodes { node_a; node_b } -> add_bridge node_a node_b
      | Remove_transistor _ | Short_transistor _ -> ())
    modifications;
  (* De-duplicate resolved list, drop rails. *)
  let seen = Hashtbl.create 16 in
  let resolved =
    List.filter
      (fun l ->
        if l = gnd || l = vdd || Hashtbl.mem seen l then false
        else begin
          Hashtbl.replace seen l ();
          true
        end)
      (List.rev !resolved)
  in
  let globals_arr = Array.make !count (-1) in
  List.iteri
    (fun i g ->
      (* globals list is reversed relative to allocation order. *)
      globals_arr.(!count - 1 - i) <- g)
    !globals;
  {
    network = net;
    globals = globals_arr;
    local_of;
    edges = Array.of_list (List.rev !edges);
    gnd;
    vdd;
    pi_nodes = !pi_nodes;
    resolved;
  }

type outcome = { values : (int * Ternary.t) list; fight : bool }

type conduction = On | Off | Maybe

let solve t ~external_value ~charge =
  let n = Array.length t.globals in
  let values = Array.make n Ternary.VX in
  values.(t.gnd) <- Ternary.V0;
  values.(t.vdd) <- Ternary.V1;
  let pi_value = List.map (fun (l, g) -> (l, external_value g)) t.pi_nodes in
  List.iter (fun (l, v) -> values.(l) <- v) pi_value;
  let solved_locals = t.resolved @ List.map fst t.pi_nodes in
  let gate_value gnode =
    match Hashtbl.find_opt t.local_of gnode with
    | Some l when List.mem l solved_locals -> values.(l)
    | Some l when l = t.gnd -> Ternary.V0
    | Some l when l = t.vdd -> Ternary.V1
    | _ -> external_value gnode
  in
  let conduction e =
    match e.gating with
    | Always_on -> On
    | Gated (gnode, channel) -> (
        match (gate_value gnode, channel) with
        | Ternary.V1, Cell.Nmos | Ternary.V0, Cell.Pmos -> On
        | Ternary.V0, Cell.Nmos | Ternary.V1, Cell.Pmos -> Off
        | Ternary.VX, _ -> Maybe)
  in
  (* Single-source shortest path from a rail through edges whose conduction
     is in [accept]; O(V^2) Dijkstra is ample for these tiny graphs. *)
  let distances source accept =
    let dist = Array.make n infinite in
    dist.(source) <- 0.0;
    (* Pad drivers: a PI node with a matching value extends the rail. *)
    List.iter
      (fun (l, v) ->
        let matches =
          match (v, source = t.vdd) with
          | Ternary.V1, true | Ternary.V0, false -> true
          | Ternary.VX, _ -> accept Maybe
          | _ -> false
        in
        let r = r_driver t.globals.(l) in
        if matches && r < dist.(l) then dist.(l) <- r)
      pi_value;
    let visited = Array.make n false in
    let rec loop () =
      let best = ref (-1) in
      for i = 0 to n - 1 do
        if (not visited.(i)) && dist.(i) < infinite then
          if !best < 0 || dist.(i) < dist.(!best) then best := i
      done;
      if !best >= 0 then begin
        let u = !best in
        visited.(u) <- true;
        (* Rails are sources, never conduits: a path entering the opposite
           rail must not continue out of it. *)
        let blocked = (u = t.gnd || u = t.vdd) && u <> source in
        if not blocked then
        Array.iter
          (fun e ->
            if accept (conduction e) then begin
              let relax a b =
                if a = u && dist.(u) +. e.resistance < dist.(b) then
                  dist.(b) <- dist.(u) +. e.resistance
              in
              relax e.endpoint_a e.endpoint_b;
              relax e.endpoint_b e.endpoint_a
            end)
          t.edges;
        loop ()
      end
    in
    loop ();
    dist
  in
  let fight = ref false in
  let stable = ref false in
  let rounds = ref 0 in
  let max_rounds = 4 * (n + 2) in
  while (not !stable) && !rounds < max_rounds do
    incr rounds;
    let def_dn = distances t.gnd (fun c -> c = On) in
    let def_up = distances t.vdd (fun c -> c = On) in
    let pos_dn = distances t.gnd (fun c -> c <> Off) in
    let pos_up = distances t.vdd (fun c -> c <> Off) in
    stable := true;
    List.iter
      (fun l ->
        let du = def_up.(l) and dd = def_dn.(l) in
        let pu = pos_up.(l) and pd = pos_dn.(l) in
        let v =
          if du < infinite && dd < infinite then begin
            fight := true;
            (* Stronger (lower-resistance) side wins the fight. *)
            if du < dd then Ternary.V1
            else if dd < du then Ternary.V0
            else Ternary.VX
          end
          else if du < infinite then (if pd < infinite then Ternary.VX else Ternary.V1)
          else if dd < infinite then (if pu < infinite then Ternary.VX else Ternary.V0)
          else if pu < infinite || pd < infinite then Ternary.VX
          else charge t.globals.(l)
        in
        if v <> values.(l) then begin
          values.(l) <- v;
          stable := false
        end)
      solved_locals;
    (* A pad driver opposed by a definite rail path is also a fight. *)
    List.iter
      (fun (l, v) ->
        match v with
        | Ternary.V1 -> if def_dn.(l) < infinite then fight := true
        | Ternary.V0 -> if def_up.(l) < infinite then fight := true
        | Ternary.VX -> ())
      pi_value
  done;
  let report =
    List.map (fun l -> (t.globals.(l), values.(l))) t.resolved
    @ List.map (fun (l, _) -> (t.globals.(l), values.(l))) t.pi_nodes
  in
  { values = report; fight = !fight }

(* --- compiled regions ---------------------------------------------------- *)

(* A region lowered into arrays: everything a compiled solve reads, and
   nothing else.  Locals keep [make]'s numbering, so the exact Dijkstra
   below scans nodes in the reference's order and breaks ties the same
   way.  Self loops, which can never relax, are dropped.  Each gate
   terminal is resolved to a local (a solved node, or a rail whose scratch
   value never changes) or to an external slot.  A region has at most
   [max_locals] locals and [max_edges] kept edges, so a set of either is
   one native int.

   Regions that lower to equal arrays are one [shape], interned per
   {!lowering}: a solve of a shape is a function of the external slot
   values and the charge alone, so every fault of a shape can share its
   solves.  The kept edges, solved nodes and pads decide the shape; the
   masks are derived from them. *)
type shape = {
  id : int;  (* dense index in the lowering that interned it *)
  n : int;
  c_gnd : int;
  c_vdd : int;
  e_a : int array;  (* per kept edge: endpoints (ascending) and resistance *)
  e_b : int array;
  e_r : float array;
  e_chan : int array;  (* per edge: 0 always on, 1 NMOS, 2 PMOS *)
  e_gate : int array;  (* gate operand: local >= 0, or -1 - external slot *)
  solved : int array;  (* resolved locals, then pad-driven locals *)
  n_resolved : int;
  n_ext : int;
  pad_local : int array;
  pad_slot : int array;
  pad_r : float array;
  solved_mask : int;  (* bit per solved local *)
  operand_mask : int;  (* bit per local that gates some kept transistor edge *)
  incident : int array;  (* per local: bit per kept edge at it *)
}

(* A set of locals, or of edges, is one native int. *)
let max_locals = 62
let max_edges = 62

type compiled = {
  shape : shape;
  solved_global : int array;
  ext_global : int array;  (* external slot -> global node *)
}

(* Growable arrays; [len] is the live prefix. *)
type 'a buf = { mutable data : 'a array; mutable len : int }

let buf x = { data = Array.make 16 x; len = 0 }

let grow b =
  let data = Array.make (2 * b.len) b.data.(0) in
  Array.blit b.data 0 data 0 b.len;
  b.data <- data

(* Monomorphic, so that the stores are not generic array accesses, and
   inlined: lowering a region pushes a few hundred values. *)
let[@inline] push (b : int buf) x =
  if b.len = Array.length b.data then grow b;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let[@inline] push_float (b : float buf) x =
  if b.len = Array.length b.data then grow b;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len

(* Per-run lowering state.  Global ids map to locals and external slots
   through arrays stamped per region, and the region's parts are built in
   reusable buffers, so lowering a region allocates only its two global
   maps and, when its shape is new, the shape. *)
type lowering = {
  network : Network.t;
  mutable stamp : int;
  local_mark : int array;  (* global -> stamp of [local_id] *)
  local_id : int array;
  solved_mark : int array;  (* global -> stamp when its local is solved *)
  slot_mark : int array;  (* global -> stamp of [slot_id] *)
  slot_id : int array;
  removed : int array;  (* transistor -> stamp when removed *)
  shorted : int array;  (* transistor -> stamp when shorted *)
  globals : int buf;  (* local -> global *)
  resolved : int buf;  (* [make]'s resolved list, in order, with repeats *)
  pi_local : int buf;  (* pads in the order they were met *)
  pi_global : int buf;
  gate_node : int buf;  (* per kept edge: the gate's global node *)
  ext : int buf;  (* external slot -> global *)
  e_a : int buf;
  e_b : int buf;
  e_r : float buf;
  e_chan : int buf;
  e_gate : int buf;
  solved : int buf;
  pad_local : int buf;
  pad_slot : int buf;
  pad_r : float buf;
  mutable gnd : int;  (* the rails' locals in the region being lowered *)
  mutable vdd : int;
  shapes : (int, shape) Hashtbl.t;  (* by hash; colliding shapes coexist *)
  mutable shape_count : int;
}

let lowering net =
  let m = Network.mapping net in
  let nodes = m.Mapping.node_count in
  let transistors = Array.length m.Mapping.transistors in
  {
    network = net;
    stamp = 0;
    local_mark = Array.make nodes 0;
    local_id = Array.make nodes 0;
    solved_mark = Array.make nodes 0;
    slot_mark = Array.make nodes 0;
    slot_id = Array.make nodes 0;
    removed = Array.make transistors 0;
    shorted = Array.make transistors 0;
    globals = buf 0;
    resolved = buf 0;
    pi_local = buf 0;
    pi_global = buf 0;
    gate_node = buf 0;
    ext = buf 0;
    e_a = buf 0;
    e_b = buf 0;
    e_r = buf 0.0;
    e_chan = buf 0;
    e_gate = buf 0;
    solved = buf 0;
    pad_local = buf 0;
    pad_slot = buf 0;
    pad_r = buf 0.0;
    gnd = 0;
    vdd = 0;
    shapes = Hashtbl.create 64;
    shape_count = 0;
  }

let shape_count lw = lw.shape_count

(* The functions below are top level and take their state as arguments,
   so that lowering a region allocates no closure. *)

let[@inline] intern_local lw g =
  if lw.local_mark.(g) = lw.stamp then lw.local_id.(g)
  else begin
    let l = lw.globals.len in
    lw.local_mark.(g) <- lw.stamp;
    lw.local_id.(g) <- l;
    push lw.globals g;
    l
  end

let rec resolve_instances lw (m : Mapping.network) = function
  | [] -> ()
  | ii :: rest ->
      let inst = m.instances.(ii) in
      push lw.resolved (intern_local lw inst.output_node);
      for k = 0 to Array.length inst.internal_nodes - 1 do
        push lw.resolved (intern_local lw inst.internal_nodes.(k))
      done;
      resolve_instances lw m rest

(* The adjacency does not see which end is which, so neither does the
   shape. *)
let[@inline] add_edge lw a b r chan gate =
  if a <> b then begin
    push lw.e_a (Int.min a b);
    push lw.e_b (Int.max a b);
    push_float lw.e_r r;
    push lw.e_chan chan;
    push lw.gate_node gate
  end

let rec mark_devices lw = function
  | [] -> ()
  | Remove_transistor ti :: rest ->
      lw.removed.(ti) <- lw.stamp;
      mark_devices lw rest
  | Short_transistor ti :: rest ->
      lw.shorted.(ti) <- lw.stamp;
      mark_devices lw rest
  | Bridge_nodes _ :: rest -> mark_devices lw rest

let rec channel_edges lw (m : Mapping.network) = function
  | [] -> ()
  | ii :: rest ->
      let inst = m.instances.(ii) in
      for k = 0 to List.length inst.cell.Cell.transistors - 1 do
        let ti = inst.first_transistor + k in
        if lw.removed.(ti) <> lw.stamp then begin
          let tr = m.transistors.(ti) in
          let a = intern_local lw tr.source in
          let b = intern_local lw tr.drain in
          if lw.shorted.(ti) = lw.stamp then add_edge lw a b r_nmos 0 (-1)
          else
            match tr.channel with
            | Cell.Nmos -> add_edge lw a b r_nmos 1 tr.gate
            | Cell.Pmos -> add_edge lw a b r_pmos 2 tr.gate
        end
      done;
      channel_edges lw m rest

let bridge_endpoint lw g l =
  if Network.is_primary_input lw.network g then begin
    push lw.pi_local l;
    push lw.pi_global g
  end
  else push lw.resolved l

let rec bridges lw = function
  | [] -> ()
  | Bridge_nodes { node_a; node_b } :: rest ->
      let a = intern_local lw node_a in
      let b = intern_local lw node_b in
      add_edge lw a b r_bridge 0 (-1);
      bridge_endpoint lw node_a a;
      bridge_endpoint lw node_b b;
      bridges lw rest
  | (Remove_transistor _ | Short_transistor _) :: rest -> bridges lw rest

(* [make]'s numbering, edge order, resolved list and pad list into the
   buffers, keeping only the edges that can relax, and the rails'
   locals. *)
let collect lw ~instances ~modifications =
  let m = Network.mapping lw.network in
  lw.stamp <- lw.stamp + 1;
  lw.globals.len <- 0;
  lw.resolved.len <- 0;
  lw.pi_local.len <- 0;
  lw.pi_global.len <- 0;
  lw.gate_node.len <- 0;
  lw.e_a.len <- 0;
  lw.e_b.len <- 0;
  lw.e_r.len <- 0;
  lw.e_chan.len <- 0;
  lw.gnd <- intern_local lw m.gnd;
  lw.vdd <- intern_local lw m.vdd;
  resolve_instances lw m instances;
  mark_devices lw modifications;
  channel_edges lw m instances;
  bridges lw modifications

let slot lw g =
  if lw.slot_mark.(g) = lw.stamp then lw.slot_id.(g)
  else begin
    let s = lw.ext.len in
    lw.slot_mark.(g) <- lw.stamp;
    lw.slot_id.(g) <- s;
    push lw.ext g;
    s
  end

(* The solved locals (the de-duplicated resolved list without rails, then
   the pads in [make]'s reversed order), the pads, the external slots (pads
   first, then gate operands in edge order) and the gate operands. *)
let resolve lw =
  let stamp = lw.stamp and gnd = lw.gnd and vdd = lw.vdd in
  lw.ext.len <- 0;
  lw.e_gate.len <- 0;
  lw.solved.len <- 0;
  lw.pad_local.len <- 0;
  lw.pad_slot.len <- 0;
  lw.pad_r.len <- 0;
  for i = 0 to lw.resolved.len - 1 do
    let l = lw.resolved.data.(i) in
    let g = lw.globals.data.(l) in
    if l <> gnd && l <> vdd && lw.solved_mark.(g) <> stamp then begin
      lw.solved_mark.(g) <- stamp;
      push lw.solved l
    end
  done;
  let n_resolved = lw.solved.len in
  for p = lw.pi_local.len - 1 downto 0 do
    let l = lw.pi_local.data.(p) and g = lw.pi_global.data.(p) in
    lw.solved_mark.(g) <- stamp;
    push lw.solved l;
    push lw.pad_local l;
    push lw.pad_slot (slot lw g);
    push_float lw.pad_r (r_driver g)
  done;
  for e = 0 to lw.e_a.len - 1 do
    let g = lw.gate_node.data.(e) in
    push lw.e_gate
      (if lw.e_chan.data.(e) = 0 then 0
       else if
         lw.local_mark.(g) = stamp
         && (lw.solved_mark.(g) = stamp || lw.local_id.(g) = gnd || lw.local_id.(g) = vdd)
       then lw.local_id.(g)
       else -1 - slot lw g)
  done;
  n_resolved

let mask_of locals =
  Array.fold_left (fun acc l -> acc lor (1 lsl l)) 0 locals

(* A new shape: the buffers' contents plus the derived masks. *)
let new_shape lw ~id ~n_resolved =
  let n = lw.globals.len in
  let m = lw.e_a.len in
  if n > max_locals || m > max_edges then
    invalid_arg
      (Printf.sprintf "Solver.lower: a region of %d locals and %d edges (at most %d and %d)"
         n m max_locals max_edges);
  let e_chan = contents lw.e_chan and e_gate = contents lw.e_gate in
  let operand_mask = ref 0 in
  for e = 0 to Array.length e_chan - 1 do
    if e_chan.(e) <> 0 && e_gate.(e) >= 0 then
      operand_mask := !operand_mask lor (1 lsl e_gate.(e))
  done;
  let solved = contents lw.solved in
  let incident = Array.make n 0 in
  for e = 0 to m - 1 do
    let a = lw.e_a.data.(e) and b = lw.e_b.data.(e) in
    incident.(a) <- incident.(a) lor (1 lsl e);
    incident.(b) <- incident.(b) lor (1 lsl e)
  done;
  {
    id;
    n;
    c_gnd = lw.gnd;
    c_vdd = lw.vdd;
    e_a = contents lw.e_a;
    e_b = contents lw.e_b;
    e_r = contents lw.e_r;
    e_chan;
    e_gate;
    solved;
    n_resolved;
    n_ext = lw.ext.len;
    pad_local = contents lw.pad_local;
    pad_slot = contents lw.pad_slot;
    pad_r = contents lw.pad_r;
    solved_mask = mask_of solved;
    operand_mask = !operand_mask;
    incident;
  }

(* Shapes are compared field by field, floats by their bits. *)
let same_ints (b : int buf) a =
  b.len = Array.length a
  &&
  let rec go i = i >= b.len || (b.data.(i) = a.(i) && go (i + 1)) in
  go 0

let same_floats (b : float buf) a =
  b.len = Array.length a
  &&
  let rec go i =
    i >= b.len
    || (Int64.bits_of_float b.data.(i) = Int64.bits_of_float a.(i) && go (i + 1))
  in
  go 0

(* The buffers hold [s]'s deciding fields. *)
let lowered_is lw n_resolved (s : shape) =
  s.n = lw.globals.len && s.c_gnd = lw.gnd && s.c_vdd = lw.vdd
  && s.n_resolved = n_resolved && s.n_ext = lw.ext.len
  && same_ints lw.e_a s.e_a && same_ints lw.e_b s.e_b && same_floats lw.e_r s.e_r
  && same_ints lw.e_chan s.e_chan && same_ints lw.e_gate s.e_gate
  && same_ints lw.solved s.solved && same_ints lw.pad_local s.pad_local
  && same_ints lw.pad_slot s.pad_slot && same_floats lw.pad_r s.pad_r

let hash_ints h (b : int buf) =
  let h = ref ((h * 31) + b.len) in
  for i = 0 to b.len - 1 do
    h := (!h * 31) + b.data.(i)
  done;
  !h

let hash_floats h (b : float buf) =
  let h = ref ((h * 31) + b.len) in
  for i = 0 to b.len - 1 do
    h := (!h * 31) + Int64.to_int (Int64.bits_of_float b.data.(i))
  done;
  !h

(* The first of [shapes] that the buffers hold. *)
let rec find_lowered lw n_resolved = function
  | [] -> None
  | s :: rest -> if lowered_is lw n_resolved s then Some s else find_lowered lw n_resolved rest

let lower lw ~instances ~modifications =
  collect lw ~instances ~modifications;
  let n_resolved = resolve lw in
  let hash = (((lw.globals.len * 31) + n_resolved) * 31) + lw.ext.len in
  let hash = hash_ints (hash_ints (hash_ints hash lw.e_a) lw.e_b) lw.e_gate in
  let hash = hash_ints (hash_ints hash lw.solved) lw.pad_slot in
  let hash = hash_floats (hash_floats hash lw.e_r) lw.pad_r in
  let shape =
    match find_lowered lw n_resolved (Hashtbl.find_all lw.shapes hash) with
    | Some s -> s
    | None ->
        let s = new_shape lw ~id:lw.shape_count ~n_resolved in
        Hashtbl.add lw.shapes hash s;
        lw.shape_count <- lw.shape_count + 1;
        s
  in
  let solved_global = Array.make (Array.length shape.solved) 0 in
  for i = 0 to Array.length solved_global - 1 do
    solved_global.(i) <- lw.globals.data.(shape.solved.(i))
  done;
  { shape; solved_global; ext_global = contents lw.ext }

let shape cr = cr.shape
let shape_id (s : shape) = s.id
let external_nodes cr = cr.ext_global
let solved_nodes cr = cr.solved_global
let charged_count (s : shape) = s.n_resolved
let solved_count (s : shape) = Array.length s.solved
let external_count (s : shape) = s.n_ext

type scratch = {
  mutable values : Ternary.t array;
  mutable adj_on : int array;  (* per local: its neighbours over [on] edges *)
  mutable adj_any : int array;  (* ... over [on] or [maybe] edges *)
  mutable dist_dn : float array;
  mutable dist_up : float array;
  mutable on_edges : int;  (* the edges [on] this round *)
  mutable read_charge : bool;  (* the last solve read [charge] *)
  mutable rounds : int;  (* relaxation rounds of every solve so far *)
  mutable capped : int;  (* solves stopped by the round cap, unsettled *)
}

let scratch () =
  { values = [||]; adj_on = [||]; adj_any = [||]; dist_dn = [||]; dist_up = [||];
    on_edges = 0; read_charge = false; rounds = 0; capped = 0 }

let ensure s (cr : shape) =
  let n = cr.n in
  if Array.length s.values < n then begin
    s.values <- Array.make n Ternary.VX;
    s.adj_on <- Array.make n 0;
    s.adj_any <- Array.make n 0;
    s.dist_dn <- Array.make n infinite;
    s.dist_up <- Array.make n infinite
  end

let off = 0
let on = 1
let maybe = 2

let is_rail (cr : shape) u = u = cr.c_gnd || u = cr.c_vdd

(* Whether a pad driving [v] extends the rail of this pass (the matching
   rule of [solve]'s [distances]). *)
let pad_matches v ~up ~definite =
  match v with Ternary.V1 -> up | Ternary.V0 -> not up | Ternary.VX -> not definite

(* The index of the lowest set bit of [x <> 0], for a bit below 62: a de
   Bruijn multiply.  0x03f79d71b4cb0a89 is a 64-bit de Bruijn sequence, so
   the six bits at 58 of [b * c] name [b]'s position; with 63-bit ints the
   six bits at 57, the window of the next position, do the same for every
   bit below 63. *)
let debruijn = 0x03f79d71b4cb0a89

let bit_index =
  let t = Array.make 64 0 in
  for k = 0 to 61 do
    t.(((1 lsl k) * debruijn) lsr 57 land 63) <- k
  done;
  t

let[@inline] lowest_bit x = bit_index.(((x land -x) * debruijn) lsr 57 land 63)

(* The set of locals [solve]'s [distances] leaves at a finite distance:
   Dijkstra's frontier rules without the distances.  Every edge here has
   finite resistance, so a relaxation from a reached node always lowers an
   infinite distance.  The other rail is reached but conducts no further. *)
let reach_set (cr : shape) s ~ext ~source ~definite =
  let adj = if definite then s.adj_on else s.adj_any in
  let up = source = cr.c_vdd in
  let seed = ref (1 lsl source) in
  for p = 0 to Array.length cr.pad_local - 1 do
    if pad_matches ext.(cr.pad_slot.(p)) ~up ~definite then
      seed := !seed lor (1 lsl cr.pad_local.(p))
  done;
  let stop = 1 lsl if up then cr.c_gnd else cr.c_vdd in
  let reach = ref !seed and todo = ref (!seed land lnot stop) in
  while !todo <> 0 do
    let u = lowest_bit !todo in
    todo := !todo land (!todo - 1);
    let fresh = adj.(u) land lnot !reach in
    reach := !reach lor fresh;
    todo := !todo lor (fresh land lnot stop)
  done;
  !reach

(* [solve]'s [distances] for a definite pass, bit for bit: same seeding,
   same scan for the nearest unvisited node with the lowest-index
   tie-break, same [dist.(u) +. r] sums (a node's final distance is the
   least of them, whatever the order of its relaxations).  The scan visits
   only the nodes at a finite distance, in index order, and a visited node
   relaxes the [on] edges at it. *)
let shortest (cr : shape) s ~ext ~source dist =
  Array.fill dist 0 cr.n infinite;
  dist.(source) <- 0.0;
  let up = source = cr.c_vdd in
  let open_ = ref (1 lsl source) in
  for p = 0 to Array.length cr.pad_local - 1 do
    let l = cr.pad_local.(p) and r = cr.pad_r.(p) in
    if pad_matches ext.(cr.pad_slot.(p)) ~up ~definite:true && r < dist.(l) then begin
      dist.(l) <- r;
      open_ := !open_ lor (1 lsl l)
    end
  done;
  while !open_ <> 0 do
    let best = ref (-1) and rest = ref !open_ in
    while !rest <> 0 do
      let i = lowest_bit !rest in
      rest := !rest land (!rest - 1);
      if !best < 0 || dist.(i) < dist.(!best) then best := i
    done;
    let u = !best in
    open_ := !open_ land lnot (1 lsl u);
    if not (is_rail cr u && u <> source) then begin
      let edges = ref (cr.incident.(u) land s.on_edges) in
      while !edges <> 0 do
        let e = lowest_bit !edges in
        edges := !edges land (!edges - 1);
        let v = if cr.e_a.(e) = u then cr.e_b.(e) else cr.e_a.(e) in
        let d = dist.(u) +. cr.e_r.(e) in
        if d < dist.(v) then begin
          (* A visited node is never improved: its distance is at most
             [dist.(u)] and resistances are non-negative. *)
          if dist.(v) = infinite then open_ := !open_ lor (1 lsl v);
          dist.(v) <- d
        end
      done
    end
  done

(* Each edge's conduction under the current values, and the neighbour
   masks it gives. *)
let conduction (cr : shape) s ~ext values =
  let adj_on = s.adj_on and adj_any = s.adj_any in
  Array.fill adj_on 0 cr.n 0;
  Array.fill adj_any 0 cr.n 0;
  s.on_edges <- 0;
  for e = 0 to Array.length cr.e_chan - 1 do
    let chan = cr.e_chan.(e) in
    let c =
      if chan = 0 then on
      else
        let g = cr.e_gate.(e) in
        match if g >= 0 then values.(g) else ext.(-1 - g) with
        | Ternary.VX -> maybe
        | Ternary.V1 -> if chan = 1 then on else off
        | Ternary.V0 -> if chan = 1 then off else on
    in
    if c <> off then begin
      let a = cr.e_a.(e) and b = cr.e_b.(e) in
      adj_any.(a) <- adj_any.(a) lor (1 lsl b);
      adj_any.(b) <- adj_any.(b) lor (1 lsl a);
      if c = on then begin
        s.on_edges <- s.on_edges lor (1 lsl e);
        adj_on.(a) <- adj_on.(a) lor (1 lsl b);
        adj_on.(b) <- adj_on.(b) lor (1 lsl a)
      end
    end
  done

let read_charge s = s.read_charge
let rounds s = s.rounds
let capped s = s.capped

(* Each relaxation round decides the four rail passes as reach sets; when
   some solved node is definitely driven from both rails, it also runs the
   exact definite distances, which decide who wins the fight. *)
let solve_compiled (cr : shape) s ~ext ~charge ~out =
  ensure s cr;
  s.read_charge <- false;
  let values = s.values in
  Array.fill values 0 cr.n Ternary.VX;
  values.(cr.c_gnd) <- Ternary.V0;
  values.(cr.c_vdd) <- Ternary.V1;
  for p = 0 to Array.length cr.pad_local - 1 do
    values.(cr.pad_local.(p)) <- ext.(cr.pad_slot.(p))
  done;
  let fight = ref false in
  let stable = ref false in
  let rounds = ref 0 in
  let max_rounds = 4 * (cr.n + 2) in
  while (not !stable) && !rounds < max_rounds do
    incr rounds;
    conduction cr s ~ext values;
    let def_dn = reach_set cr s ~ext ~source:cr.c_gnd ~definite:true in
    let def_up = reach_set cr s ~ext ~source:cr.c_vdd ~definite:true in
    let pos_dn = reach_set cr s ~ext ~source:cr.c_gnd ~definite:false in
    let pos_up = reach_set cr s ~ext ~source:cr.c_vdd ~definite:false in
    if def_dn land def_up land cr.solved_mask <> 0 then begin
      shortest cr s ~ext ~source:cr.c_gnd s.dist_dn;
      shortest cr s ~ext ~source:cr.c_vdd s.dist_up
    end;
    stable := true;
    for i = 0 to Array.length cr.solved - 1 do
      let l = cr.solved.(i) in
      let bit = 1 lsl l in
      let du = def_up land bit <> 0 and dd = def_dn land bit <> 0 in
      let pu = pos_up land bit <> 0 and pd = pos_dn land bit <> 0 in
      let v =
        if du && dd then begin
          fight := true;
          let up = s.dist_up.(l) and dn = s.dist_dn.(l) in
          if up < dn then Ternary.V1 else if dn < up then Ternary.V0 else Ternary.VX
        end
        else if du then if pd then Ternary.VX else Ternary.V1
        else if dd then if pu then Ternary.VX else Ternary.V0
        else if pu || pd then Ternary.VX
        else begin
          s.read_charge <- true;
          charge.(i)
        end
      in
      (* Ternary values are immediates: physical equality is equality.
         Only a changed gate operand changes the next round's conduction;
         without one, that round would recompute these values and fights. *)
      if v != values.(l) then begin
        values.(l) <- v;
        if cr.operand_mask land bit <> 0 then stable := false
      end
    done;
    for p = 0 to Array.length cr.pad_local - 1 do
      let bit = 1 lsl cr.pad_local.(p) in
      match ext.(cr.pad_slot.(p)) with
      | Ternary.V1 -> if def_dn land bit <> 0 then fight := true
      | Ternary.V0 -> if def_up land bit <> 0 then fight := true
      | Ternary.VX -> ()
    done
  done;
  for i = 0 to Array.length cr.solved - 1 do
    out.(i) <- values.(cr.solved.(i))
  done;
  s.rounds <- s.rounds + !rounds;
  if not !stable then s.capped <- s.capped + 1;
  !fight
