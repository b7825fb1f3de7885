open Dl_logic
module Mapping = Dl_cell.Mapping
module Cell = Dl_cell.Cell

type modification =
  | Remove_transistor of int
  | Short_transistor of int
  | Bridge_nodes of { node_a : int; node_b : int }
  | Resistive_bridge of { node_a : int; node_b : int; resistance : float }

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
      | Bridge_nodes _ | Resistive_bridge _ -> ())
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
  let add_bridge node_a node_b resistance =
    let a = intern node_a and b = intern node_b in
    edges :=
      { endpoint_a = a; endpoint_b = b; resistance; gating = Always_on } :: !edges;
    List.iter
      (fun (g, l) ->
        if Network.is_primary_input net g then pi_nodes := (l, g) :: !pi_nodes
        else resolved := l :: !resolved)
      [ (node_a, a); (node_b, b) ]
  in
  List.iter
    (function
      | Bridge_nodes { node_a; node_b } -> add_bridge node_a node_b r_bridge
      | Resistive_bridge { node_a; node_b; resistance } ->
          if Float.is_nan resistance || resistance < 0.0 then
            invalid_arg "Solver: bridge resistance must be non-negative";
          add_bridge node_a node_b resistance
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

(* A region lowered once into arrays.  Locals keep [make]'s numbering, so
   the exact Dijkstra below scans nodes in the reference's order and breaks
   ties the same way.  Edges that can never relax (self loops, infinite
   resistance) are dropped.  Each gate terminal is resolved to a local
   (a solved node, or a rail whose scratch value never changes) or to an
   external slot. *)
type compiled = {
  n : int;
  c_gnd : int;
  c_vdd : int;
  e_chan : int array;  (* per edge: 0 always on, 1 NMOS, 2 PMOS *)
  e_gate : int array;  (* gate operand: local >= 0, or -1 - external slot *)
  adj_start : int array;  (* CSR adjacency over locals *)
  adj_edge : int array;
  adj_other : int array;
  adj_r : float array;
  solved : int array;  (* resolved locals, then pad-driven locals *)
  n_resolved : int;
  solved_global : int array;
  pad_local : int array;
  pad_slot : int array;
  pad_r : float array;
  ext_global : int array;  (* external slot -> global node *)
  exact_only : bool;  (* a path sum might overflow: always run Dijkstra *)
}

let compile t =
  let n = Array.length t.globals in
  let slots = Hashtbl.create 8 in
  let ext = ref [] and n_ext = ref 0 in
  let slot g =
    match Hashtbl.find_opt slots g with
    | Some s -> s
    | None ->
        let s = !n_ext in
        incr n_ext;
        Hashtbl.replace slots g s;
        ext := g :: !ext;
        s
  in
  let solved = Array.of_list (t.resolved @ List.map fst t.pi_nodes) in
  let is_solved = Array.make n false in
  Array.iter (fun l -> is_solved.(l) <- true) solved;
  let pads = Array.of_list t.pi_nodes in
  let pad_slot = Array.map (fun (_, g) -> slot g) pads in
  let operand gnode =
    match Hashtbl.find_opt t.local_of gnode with
    | Some l when is_solved.(l) || l = t.gnd || l = t.vdd -> l
    | _ -> -1 - slot gnode
  in
  let edges =
    List.filter
      (fun e -> e.endpoint_a <> e.endpoint_b && e.resistance < infinite)
      (Array.to_list t.edges)
    |> Array.of_list
  in
  let e_chan = Array.make (Array.length edges) 0 in
  let e_gate = Array.make (Array.length edges) 0 in
  Array.iteri
    (fun i e ->
      match e.gating with
      | Always_on -> ()
      | Gated (g, channel) ->
          e_chan.(i) <- (match channel with Cell.Nmos -> 1 | Cell.Pmos -> 2);
          e_gate.(i) <- operand g)
    edges;
  let adj_start = Array.make (n + 1) 0 in
  Array.iter
    (fun e ->
      adj_start.(e.endpoint_a + 1) <- adj_start.(e.endpoint_a + 1) + 1;
      adj_start.(e.endpoint_b + 1) <- adj_start.(e.endpoint_b + 1) + 1)
    edges;
  for l = 1 to n do
    adj_start.(l) <- adj_start.(l) + adj_start.(l - 1)
  done;
  let fill = Array.sub adj_start 0 n in
  let adj_edge = Array.make adj_start.(n) 0 in
  let adj_other = Array.make adj_start.(n) 0 in
  let adj_r = Array.make adj_start.(n) 0.0 in
  let add u other i r =
    adj_edge.(fill.(u)) <- i;
    adj_other.(fill.(u)) <- other;
    adj_r.(fill.(u)) <- r;
    fill.(u) <- fill.(u) + 1
  in
  Array.iteri
    (fun i e ->
      add e.endpoint_a e.endpoint_b i e.resistance;
      add e.endpoint_b e.endpoint_a i e.resistance)
    edges;
  (* No path is longer than a pad driver (< 1) plus every edge in series;
     while that stays far below [max_float], no distance sum overflows. *)
  let total = Array.fold_left (fun acc e -> acc +. e.resistance) 1.0 edges in
  {
    n;
    c_gnd = t.gnd;
    c_vdd = t.vdd;
    e_chan;
    e_gate;
    adj_start;
    adj_edge;
    adj_other;
    adj_r;
    solved;
    n_resolved = List.length t.resolved;
    solved_global = Array.map (fun l -> t.globals.(l)) solved;
    pad_local = Array.map fst pads;
    pad_slot;
    pad_r = Array.map (fun (l, _) -> r_driver t.globals.(l)) pads;
    ext_global = Array.of_list (List.rev !ext);
    exact_only = not (total < 1e300);
  }

let external_nodes cr = Array.copy cr.ext_global
let solved_nodes cr = Array.copy cr.solved_global
let charged_count cr = cr.n_resolved

type scratch = {
  mutable values : Ternary.t array;
  mutable reach : int array;  (* per local: one bit per pass below *)
  mutable queue : int array;
  mutable dist_dn : float array;
  mutable dist_up : float array;
  mutable visited : bool array;
  mutable cond : int array;  (* per edge: [off], [on] or [maybe] *)
}

let scratch () =
  { values = [||]; reach = [||]; queue = [||]; dist_dn = [||]; dist_up = [||];
    visited = [||]; cond = [||] }

let ensure s cr =
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

let is_rail cr u = u = cr.c_gnd || u = cr.c_vdd

(* Whether a pad driving [v] extends the rail of this pass (the matching
   rule of [solve]'s [distances]). *)
let pad_matches v ~up ~definite =
  match v with Ternary.V1 -> up | Ternary.V0 -> not up | Ternary.VX -> not definite

let accepts c ~definite = c = on || ((not definite) && c = maybe)

(* The set of nodes [solve]'s [distances] leaves at a finite distance:
   Dijkstra's frontier rules without the distances.  Every edge here has
   finite resistance, so a relaxation from a reached node always lowers an
   infinite distance. *)
let reach_pass cr s ~ext ~source ~definite bit =
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
let shortest cr s ~ext ~source ~definite dist =
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

let mark_finite cr s dist bit =
  for l = 0 to cr.n - 1 do
    if dist.(l) < infinite then s.reach.(l) <- s.reach.(l) lor bit
  done

(* One relaxation round's four rail passes into [s.reach]; when some solved
   node is definitely driven from both rails, also the exact definite
   distances, which decide who wins the fight. *)
let rail_passes cr s ~ext =
  Array.fill s.reach 0 cr.n 0;
  if cr.exact_only then begin
    shortest cr s ~ext ~source:cr.c_gnd ~definite:false s.dist_dn;
    mark_finite cr s s.dist_dn pos_dn;
    shortest cr s ~ext ~source:cr.c_vdd ~definite:false s.dist_dn;
    mark_finite cr s s.dist_dn pos_up;
    shortest cr s ~ext ~source:cr.c_gnd ~definite:true s.dist_dn;
    mark_finite cr s s.dist_dn def_dn;
    shortest cr s ~ext ~source:cr.c_vdd ~definite:true s.dist_up;
    mark_finite cr s s.dist_up def_up
  end
  else begin
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
  end

let solve_compiled cr s ~ext ~charge ~out =
  ensure s cr;
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
        else charge.(i)
      in
      (* Ternary values are immediates: physical equality is equality. *)
      if v != values.(l) then begin
        values.(l) <- v;
        stable := false
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
  !fight
