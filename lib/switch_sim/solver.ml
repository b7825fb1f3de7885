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

let nodes t = List.map (fun l -> t.globals.(l)) t.resolved

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
  let debug = Sys.getenv_opt "DL_SOLVER_DEBUG" <> None in
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
    if debug then begin
      Printf.eprintf "round %d:\n" !rounds;
      List.iter (fun l ->
        Printf.eprintf "  node g%d l%d du=%.2f dd=%.2f pu=%.2f pd=%.2f val=%c\n"
          t.globals.(l) l def_up.(l) def_dn.(l) pos_up.(l) pos_dn.(l)
          (Ternary.to_char values.(l))) t.resolved;
      Array.iteri (fun ei e ->
        Printf.eprintf "  edge %d l%d-l%d r=%.2f cond=%s\n" ei e.endpoint_a e.endpoint_b e.resistance
          (match conduction e with On -> "on" | Off -> "off" | Maybe -> "maybe")) t.edges
    end;
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
   value never changes) or to an external slot.

   Regions that lower to equal arrays are one [shape], interned per
   {!lowering}: a solve of a shape is a function of the external slot
   values and the charge alone, so every fault of a shape can share its
   solves.  The kept edges, solved nodes and pads decide the shape; the
   CSR adjacency is derived from them. *)
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
  adj_start : int array;  (* CSR adjacency over locals *)
  adj_edge : int array;
  adj_other : int array;
  adj_r : float array;
  solved : int array;  (* resolved locals, then pad-driven locals *)
  n_resolved : int;
  n_ext : int;
  pad_local : int array;
  pad_slot : int array;
  pad_r : float array;
  operand : bool array;  (* per local: gates some kept transistor edge *)
}

type compiled = {
  shape : shape;
  solved_global : int array;
  ext_global : int array;  (* external slot -> global node *)
}

(* Growable arrays; [len] is the live prefix. *)
type 'a buf = { mutable data : 'a array; mutable len : int }

let buf x = { data = Array.make 16 x; len = 0 }

let grow b =
  if b.len = Array.length b.data then begin
    let data = Array.make (2 * b.len) b.data.(0) in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end

(* Monomorphic, so that the stores are not generic array accesses. *)
let push (b : int buf) x =
  grow b;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let push_float (b : float buf) x =
  grow b;
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
    shapes = Hashtbl.create 64;
    shape_count = 0;
  }

let shape_count lw = lw.shape_count

(* [make]'s numbering, edge order, resolved list and pad list into the
   buffers, keeping only the edges that can relax.  Returns the rails'
   locals. *)
let collect lw ~instances ~modifications =
  let m = Network.mapping lw.network in
  lw.stamp <- lw.stamp + 1;
  let stamp = lw.stamp in
  List.iter
    (fun b -> b.len <- 0)
    [ lw.globals; lw.resolved; lw.pi_local; lw.pi_global; lw.gate_node; lw.e_a;
      lw.e_b; lw.e_chan ];
  lw.e_r.len <- 0;
  let intern g =
    if lw.local_mark.(g) = stamp then lw.local_id.(g)
    else begin
      let l = lw.globals.len in
      lw.local_mark.(g) <- stamp;
      lw.local_id.(g) <- l;
      push lw.globals g;
      l
    end
  in
  let gnd = intern m.Mapping.gnd in
  let vdd = intern m.Mapping.vdd in
  List.iter
    (fun ii ->
      let inst = m.Mapping.instances.(ii) in
      push lw.resolved (intern inst.output_node);
      Array.iter (fun nd -> push lw.resolved (intern nd)) inst.internal_nodes)
    instances;
  (* The adjacency does not see which end is which, so neither does the
     shape. *)
  let edge a b r chan gate =
    if a <> b then begin
      push lw.e_a (Int.min a b);
      push lw.e_b (Int.max a b);
      push_float lw.e_r r;
      push lw.e_chan chan;
      push lw.gate_node gate
    end
  in
  List.iter
    (function
      | Remove_transistor ti -> lw.removed.(ti) <- stamp
      | Short_transistor ti -> lw.shorted.(ti) <- stamp
      | Bridge_nodes _ -> ())
    modifications;
  List.iter
    (fun ii ->
      let inst = m.Mapping.instances.(ii) in
      let n_ts = List.length inst.cell.Cell.transistors in
      for k = 0 to n_ts - 1 do
        let ti = inst.first_transistor + k in
        if lw.removed.(ti) <> stamp then begin
          let tr = m.Mapping.transistors.(ti) in
          let a = intern tr.source in
          let b = intern tr.drain in
          if lw.shorted.(ti) = stamp then edge a b r_nmos 0 (-1)
          else
            match tr.channel with
            | Cell.Nmos -> edge a b r_nmos 1 tr.gate
            | Cell.Pmos -> edge a b r_pmos 2 tr.gate
        end
      done)
    instances;
  let endpoint g l =
    if Network.is_primary_input lw.network g then begin
      push lw.pi_local l;
      push lw.pi_global g
    end
    else push lw.resolved l
  in
  let bridge node_a node_b =
    let a = intern node_a in
    let b = intern node_b in
    edge a b r_bridge 0 (-1);
    endpoint node_a a;
    endpoint node_b b
  in
  List.iter
    (function
      | Bridge_nodes { node_a; node_b } -> bridge node_a node_b
      | Remove_transistor _ | Short_transistor _ -> ())
    modifications;
  (gnd, vdd)

(* The solved locals (the de-duplicated resolved list without rails, then
   the pads in [make]'s reversed order), the pads, the external slots (pads
   first, then gate operands in edge order) and the gate operands. *)
let resolve lw ~gnd ~vdd =
  let stamp = lw.stamp in
  List.iter (fun b -> b.len <- 0) [ lw.ext; lw.e_gate; lw.solved; lw.pad_local; lw.pad_slot ];
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
  let slot g =
    if lw.slot_mark.(g) = stamp then lw.slot_id.(g)
    else begin
      let s = lw.ext.len in
      lw.slot_mark.(g) <- stamp;
      lw.slot_id.(g) <- s;
      push lw.ext g;
      s
    end
  in
  for p = lw.pi_local.len - 1 downto 0 do
    let l = lw.pi_local.data.(p) and g = lw.pi_global.data.(p) in
    lw.solved_mark.(g) <- stamp;
    push lw.solved l;
    push lw.pad_local l;
    push lw.pad_slot (slot g);
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
       else -1 - slot g)
  done;
  n_resolved

(* A new shape: the buffers' contents plus the derived CSR adjacency. *)
let new_shape lw ~id ~gnd ~vdd ~n_resolved =
  let n = lw.globals.len in
  let e_a = contents lw.e_a and e_b = contents lw.e_b and e_r = contents lw.e_r in
  let m = Array.length e_a in
  let adj_start = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    adj_start.(e_a.(e) + 1) <- adj_start.(e_a.(e) + 1) + 1;
    adj_start.(e_b.(e) + 1) <- adj_start.(e_b.(e) + 1) + 1
  done;
  for l = 1 to n do
    adj_start.(l) <- adj_start.(l) + adj_start.(l - 1)
  done;
  let fill = Array.sub adj_start 0 n in
  let adj_edge = Array.make (2 * m) 0 in
  let adj_other = Array.make (2 * m) 0 in
  let adj_r = Array.make (2 * m) 0.0 in
  let add u other e =
    adj_edge.(fill.(u)) <- e;
    adj_other.(fill.(u)) <- other;
    adj_r.(fill.(u)) <- e_r.(e);
    fill.(u) <- fill.(u) + 1
  in
  for e = 0 to m - 1 do
    add e_a.(e) e_b.(e) e;
    add e_b.(e) e_a.(e) e
  done;
  let e_chan = contents lw.e_chan and e_gate = contents lw.e_gate in
  let operand = Array.make n false in
  for e = 0 to m - 1 do
    if e_chan.(e) <> 0 && e_gate.(e) >= 0 then operand.(e_gate.(e)) <- true
  done;
  {
    id;
    n;
    c_gnd = gnd;
    c_vdd = vdd;
    e_a;
    e_b;
    e_r;
    e_chan;
    e_gate;
    adj_start;
    adj_edge;
    adj_other;
    adj_r;
    solved = contents lw.solved;
    n_resolved;
    n_ext = lw.ext.len;
    pad_local = contents lw.pad_local;
    pad_slot = contents lw.pad_slot;
    pad_r = contents lw.pad_r;
    operand;
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

let lower lw ~instances ~modifications =
  let gnd, vdd = collect lw ~instances ~modifications in
  let n_resolved = resolve lw ~gnd ~vdd in
  let same (s : shape) =
    s.n = lw.globals.len && s.c_gnd = gnd && s.c_vdd = vdd
    && s.n_resolved = n_resolved && s.n_ext = lw.ext.len
    && same_ints lw.e_a s.e_a && same_ints lw.e_b s.e_b && same_floats lw.e_r s.e_r
    && same_ints lw.e_chan s.e_chan && same_ints lw.e_gate s.e_gate
    && same_ints lw.solved s.solved && same_ints lw.pad_local s.pad_local
    && same_ints lw.pad_slot s.pad_slot && same_floats lw.pad_r s.pad_r
  in
  let hash = (((lw.globals.len * 31) + n_resolved) * 31) + lw.ext.len in
  let hash = hash_ints (hash_ints (hash_ints hash lw.e_a) lw.e_b) lw.e_gate in
  let hash = hash_ints (hash_ints hash lw.solved) lw.pad_slot in
  let hash = hash_floats (hash_floats hash lw.e_r) lw.pad_r in
  let shape =
    match List.find_opt same (Hashtbl.find_all lw.shapes hash) with
    | Some s -> s
    | None ->
        let s = new_shape lw ~id:lw.shape_count ~gnd ~vdd ~n_resolved in
        Hashtbl.add lw.shapes hash s;
        lw.shape_count <- lw.shape_count + 1;
        s
  in
  {
    shape;
    solved_global = Array.map (fun l -> lw.globals.data.(l)) shape.solved;
    ext_global = contents lw.ext;
  }

let shape cr = cr.shape
let shape_id (s : shape) = s.id
let external_nodes cr = cr.ext_global
let solved_nodes cr = cr.solved_global
let charged_count (s : shape) = s.n_resolved
let solved_count (s : shape) = Array.length s.solved
let external_count (s : shape) = s.n_ext

type scratch = {
  mutable values : Ternary.t array;
  mutable reach : int array;  (* per local: one bit per pass below *)
  mutable queue : int array;
  mutable dist_dn : float array;
  mutable dist_up : float array;
  mutable visited : bool array;
  mutable cond : int array;  (* per edge: [off], [on] or [maybe] *)
  mutable read_charge : bool;  (* the last solve read [charge] *)
  mutable rounds : int;  (* relaxation rounds of every solve so far *)
  mutable capped : int;  (* solves stopped by the round cap, unsettled *)
}

let scratch () =
  { values = [||]; reach = [||]; queue = [||]; dist_dn = [||]; dist_up = [||];
    visited = [||]; cond = [||]; read_charge = false; rounds = 0; capped = 0 }

let ensure s (cr : shape) =
  let n = cr.n in
  if Array.length s.values < n then begin
    s.values <- Array.make n Ternary.VX;
    s.reach <- Array.make n 0;
    s.queue <- Array.make n 0;
    s.dist_dn <- Array.make n infinite;
    s.dist_up <- Array.make n infinite;
    s.visited <- Array.make n false
  end;
  let m = Array.length cr.e_chan in
  if Array.length s.cond < m then s.cond <- Array.make m 0

let off = 0
let on = 1
let maybe = 2
let def_dn = 1
let def_up = 2
let pos_dn = 4
let pos_up = 8

let is_rail (cr : shape) u = u = cr.c_gnd || u = cr.c_vdd

(* Whether a pad driving [v] extends the rail of this pass (the matching
   rule of [solve]'s [distances]). *)
let pad_matches v ~up ~definite =
  match v with Ternary.V1 -> up | Ternary.V0 -> not up | Ternary.VX -> not definite

let accepts c ~definite = c = on || ((not definite) && c = maybe)

(* The set of nodes [solve]'s [distances] leaves at a finite distance:
   Dijkstra's frontier rules without the distances.  Every edge here has
   finite resistance, so a relaxation from a reached node always lowers an
   infinite distance. *)
let reach_pass (cr : shape) s ~ext ~source ~definite bit =
  let reach = s.reach and queue = s.queue in
  reach.(source) <- reach.(source) lor bit;
  queue.(0) <- source;
  let tail = ref 1 in
  let up = source = cr.c_vdd in
  for p = 0 to Array.length cr.pad_local - 1 do
    let l = cr.pad_local.(p) in
    if pad_matches ext.(cr.pad_slot.(p)) ~up ~definite && reach.(l) land bit = 0
    then begin
      reach.(l) <- reach.(l) lor bit;
      queue.(!tail) <- l;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    if not (is_rail cr u && u <> source) then
      for k = cr.adj_start.(u) to cr.adj_start.(u + 1) - 1 do
        let v = cr.adj_other.(k) in
        if accepts s.cond.(cr.adj_edge.(k)) ~definite && reach.(v) land bit = 0
        then begin
          reach.(v) <- reach.(v) lor bit;
          queue.(!tail) <- v;
          incr tail
        end
      done
  done

(* [solve]'s [distances], bit for bit: same seeding, same O(V^2) scan with
   the lowest-index tie-break, same [dist.(u) +. r] sums. *)
let shortest (cr : shape) s ~ext ~source ~definite dist =
  let n = cr.n in
  Array.fill dist 0 n infinite;
  dist.(source) <- 0.0;
  let up = source = cr.c_vdd in
  for p = 0 to Array.length cr.pad_local - 1 do
    let l = cr.pad_local.(p) and r = cr.pad_r.(p) in
    if pad_matches ext.(cr.pad_slot.(p)) ~up ~definite && r < dist.(l) then
      dist.(l) <- r
  done;
  let visited = s.visited in
  Array.fill visited 0 n false;
  let continue = ref true in
  while !continue do
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if (not visited.(i)) && dist.(i) < infinite then
        if !best < 0 || dist.(i) < dist.(!best) then best := i
    done;
    if !best < 0 then continue := false
    else begin
      let u = !best in
      visited.(u) <- true;
      if not (is_rail cr u && u <> source) then
        for k = cr.adj_start.(u) to cr.adj_start.(u + 1) - 1 do
          if accepts s.cond.(cr.adj_edge.(k)) ~definite then begin
            let v = cr.adj_other.(k) in
            let d = dist.(u) +. cr.adj_r.(k) in
            if d < dist.(v) then dist.(v) <- d
          end
        done
    end
  done

(* One relaxation round's four rail passes into [s.reach]; when some solved
   node is definitely driven from both rails, also the exact definite
   distances, which decide who wins the fight. *)
let rail_passes (cr : shape) s ~ext =
  Array.fill s.reach 0 cr.n 0;
  reach_pass cr s ~ext ~source:cr.c_gnd ~definite:true def_dn;
  reach_pass cr s ~ext ~source:cr.c_vdd ~definite:true def_up;
  reach_pass cr s ~ext ~source:cr.c_gnd ~definite:false pos_dn;
  reach_pass cr s ~ext ~source:cr.c_vdd ~definite:false pos_up;
  let both = ref false in
  for i = 0 to Array.length cr.solved - 1 do
    if s.reach.(cr.solved.(i)) land (def_dn lor def_up) = def_dn lor def_up then
      both := true
  done;
  if !both then begin
    shortest cr s ~ext ~source:cr.c_gnd ~definite:true s.dist_dn;
    shortest cr s ~ext ~source:cr.c_vdd ~definite:true s.dist_up
  end

let read_charge s = s.read_charge
let rounds s = s.rounds
let capped s = s.capped

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
    for e = 0 to Array.length cr.e_chan - 1 do
      let chan = cr.e_chan.(e) in
      s.cond.(e) <-
        (if chan = 0 then on
         else
           let g = cr.e_gate.(e) in
           match if g >= 0 then values.(g) else ext.(-1 - g) with
           | Ternary.VX -> maybe
           | Ternary.V1 -> if chan = 1 then on else off
           | Ternary.V0 -> if chan = 1 then off else on)
    done;
    rail_passes cr s ~ext;
    let reach = s.reach in
    stable := true;
    for i = 0 to Array.length cr.solved - 1 do
      let l = cr.solved.(i) in
      let r = reach.(l) in
      let du = r land def_up <> 0 and dd = r land def_dn <> 0 in
      let pu = r land pos_up <> 0 and pd = r land pos_dn <> 0 in
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
        if cr.operand.(l) then stable := false
      end
    done;
    for p = 0 to Array.length cr.pad_local - 1 do
      let r = reach.(cr.pad_local.(p)) in
      match ext.(cr.pad_slot.(p)) with
      | Ternary.V1 -> if r land def_dn <> 0 then fight := true
      | Ternary.V0 -> if r land def_up <> 0 then fight := true
      | Ternary.VX -> ()
    done
  done;
  for i = 0 to Array.length cr.solved - 1 do
    out.(i) <- values.(cr.solved.(i))
  done;
  s.rounds <- s.rounds + !rounds;
  if not !stable then s.capped <- s.capped + 1;
  !fight
