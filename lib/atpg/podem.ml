open Dl_netlist
module Ternary = Dl_logic.Ternary
module Sim3 = Dl_logic.Sim3
module Stuck_at = Dl_fault.Stuck_at

type outcome = Test of bool array | Untestable | Aborted

(* --- reference engine ------------------------------------------------------ *)

(* The original engine, kept verbatim as the oracle of [run]: two full
   [Sim3] passes and a fresh D-frontier list per decision. *)
module Reference = struct
  type state = {
    circuit : Circuit.t;
    scoap : Scoap.t;
    fault : Stuck_at.t;
    fault_line : int; (* node whose good value must be the fault complement *)
    stuck : bool;
    pi_values : Ternary.t array;
    pi_position : (int, int) Hashtbl.t; (* node id -> PI position *)
    rng : Dl_util.Rng.t option;
        (* randomized tie-breaking for restart diversification *)
    mutable good : Ternary.t array;
    mutable bad : Ternary.t array;
  }

  (* With a restart rng, occasionally take a non-greedy choice so successive
     attempts explore different regions of the decision tree. *)
  let diversify st best alternatives =
    match st.rng with
    | None -> best
    | Some rng ->
        if alternatives <> [] && Dl_util.Rng.bernoulli rng 0.3 then
          Dl_util.Rng.choose rng (Array.of_list alternatives)
        else best

  let is_x = function Ternary.VX -> true | Ternary.V0 | Ternary.V1 -> false

  let has_d st id =
    match (st.good.(id), st.bad.(id)) with
    | Ternary.V0, Ternary.V1 | Ternary.V1, Ternary.V0 -> true
    | _ -> false

  let simulate st =
    st.good <- Sim3.run st.circuit st.pi_values;
    st.bad <-
      Sim3.run_with_fault st.circuit
        ~site:(Stuck_at.to_sim3_site st.fault.site)
        ~stuck:st.stuck st.pi_values

  let po_has_d st = Array.exists (fun o -> has_d st o) st.circuit.outputs

  (* For a branch fault the difference is born inside the host gate: once the
     source line carries the fault complement, the host gate belongs to the
     frontier even though no fanin shows a D. *)
  let host_gate_activated st =
    match st.fault.site with
    | Stuck_at.Branch { gate; _ } ->
        if Ternary.to_bool st.good.(st.fault_line) = Some (not st.stuck) then Some gate
        else None
    | Stuck_at.Stem _ -> None

  let d_frontier st =
    let c = st.circuit in
    let frontier = ref [] in
    Array.iter
      (fun (nd : Circuit.node) ->
        if
          nd.kind <> Gate.Input
          && (not (has_d st nd.id))
          && (is_x st.good.(nd.id) || is_x st.bad.(nd.id))
          && (Array.exists (fun src -> has_d st src) nd.fanin
             || host_gate_activated st = Some nd.id)
        then frontier := nd.id :: !frontier)
      c.nodes;
    (* Prefer gates closest to an output. *)
    List.sort
      (fun a b -> compare (Scoap.observability st.scoap a) (Scoap.observability st.scoap b))
      !frontier

  (* Can a difference still reach a primary output?  Forward search from D
     nodes through X-valued nodes. *)
  let x_path_exists st =
    let c = st.circuit in
    let n = Circuit.node_count c in
    let visited = Array.make n false in
    (* Every node along the path must still be undetermined in at least one
       machine, or the difference cannot travel through it. *)
    let x_ish id = is_x st.good.(id) || is_x st.bad.(id) in
    let rec forward id =
      if visited.(id) || not (x_ish id) then false
      else begin
        visited.(id) <- true;
        if Circuit.is_output c id then true
        else Array.exists forward c.fanouts.(id)
      end
    in
    let from_node id = Array.exists forward c.fanouts.(id) in
    let any = ref false in
    Array.iteri
      (fun id _ ->
        if (not !any) && has_d st id then
          if Circuit.is_output c id || from_node id then any := true)
      c.nodes;
    (* A still-unobserved branch fault can reach out through its host gate. *)
    (match host_gate_activated st with
    | Some gate when not !any ->
        if
          (is_x st.good.(gate) || is_x st.bad.(gate))
          && (Circuit.is_output c gate || forward gate)
        then any := true
    | _ -> ());
    !any

  (* Backtrace an objective (node, value) to an unassigned primary input,
     guided by SCOAP controllabilities. *)
  let backtrace st node value =
    let c = st.circuit in
    let rec walk id v depth =
      if depth > Circuit.node_count c then None
      else begin
        let nd = c.nodes.(id) in
        match nd.kind with
        | Gate.Input -> (
            match Hashtbl.find_opt st.pi_position id with
            | Some pos when is_x st.pi_values.(pos) -> Some (pos, v)
            | _ -> None)
        | Gate.Buf -> walk nd.fanin.(0) v (depth + 1)
        | Gate.Not -> walk nd.fanin.(0) (not v) (depth + 1)
        | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
            let inverts = Gate.inversion nd.kind in
            let core_target = if inverts then not v else v in
            let ctrl =
              match Gate.controlling_value nd.kind with
              | Some b -> b
              | None -> assert false
            in
            let x_pins =
              Array.to_list nd.fanin |> List.filter (fun src -> is_x st.good.(src))
            in
            (match x_pins with
            | [] -> None
            | _ ->
                (* AND core: target 1 needs all inputs non-controlling (pick the
                   hardest X input first); target 0 needs any input controlling
                   (pick the easiest). Same logic covers OR by duality. *)
                let all_needed = core_target <> Gate.controlled_response nd.kind in
                let needed_value = if all_needed then not ctrl else ctrl in
                let cost src = Scoap.cc st.scoap src needed_value in
                let pick =
                  List.fold_left
                    (fun best src ->
                      match best with
                      | None -> Some src
                      | Some cur ->
                          let better =
                            if all_needed then cost src > cost cur
                            else cost src < cost cur
                          in
                          if better then Some src else best)
                    None x_pins
                in
                (match pick with
                | Some src -> walk (diversify st src x_pins) needed_value (depth + 1)
                | None -> None))
        | Gate.Xor | Gate.Xnor ->
            let parity_target = if nd.kind = Gate.Xnor then not v else v in
            let definite_parity =
              Array.fold_left
                (fun acc src ->
                  match st.good.(src) with
                  | Ternary.V1 -> not acc
                  | Ternary.V0 | Ternary.VX -> acc)
                false nd.fanin
            in
            let x_pins =
              Array.to_list nd.fanin |> List.filter (fun src -> is_x st.good.(src))
            in
            (match x_pins with
            | [] -> None
            | src :: _ ->
                (* Aim the chosen input so that parity closes if the remaining
                   X inputs settle at 0. *)
                let v' = parity_target <> definite_parity in
                walk src v' (depth + 1))
      end
    in
    walk node value 0

  let fill_vector st =
    Array.map
      (fun v -> match v with Ternary.V1 -> true | Ternary.V0 | Ternary.VX -> false)
      st.pi_values

  let generate_once ?(backtrack_limit = 10_000) ~scoap ?rng (c : Circuit.t)
      (fault : Stuck_at.t) =
    let fault_line =
      match fault.site with
      | Stuck_at.Stem id -> id
      | Stuck_at.Branch { gate; pin } -> c.nodes.(gate).fanin.(pin)
    in
    let pi_position = Hashtbl.create 16 in
    Array.iteri (fun pos id -> Hashtbl.replace pi_position id pos) c.inputs;
    let st =
      {
        circuit = c;
        scoap;
        fault;
        fault_line;
        stuck = Stuck_at.polarity_bool fault.polarity;
        pi_values = Array.make (Array.length c.inputs) Ternary.VX;
        pi_position;
        rng;
        good = [||];
        bad = [||];
      }
    in
    (* Decision stack: (pi position, current value, already flipped). *)
    let stack = ref [] in
    let backtracks = ref 0 in
    let result = ref None in
    let conflict () =
      let rec unwind () =
        match !stack with
        | [] -> result := Some Untestable
        | (pos, v, flipped) :: rest ->
            if flipped then begin
              st.pi_values.(pos) <- Ternary.VX;
              stack := rest;
              unwind ()
            end
            else begin
              incr backtracks;
              if !backtracks > backtrack_limit then result := Some Aborted
              else begin
                let v' = not v in
                st.pi_values.(pos) <- Ternary.of_bool v';
                stack := (pos, v', true) :: rest
              end
            end
      in
      unwind ()
    in
    while !result = None do
      simulate st;
      if po_has_d st then result := Some (Test (fill_vector st))
      else begin
        let line_good = st.good.(st.fault_line) in
        let excitation_lost =
          match Ternary.to_bool line_good with
          | Some v -> v = st.stuck
          | None -> false
        in
        if excitation_lost then conflict ()
        else if is_x line_good then begin
          (* Activation objective: drive the fault line to the complement. *)
          match backtrace st st.fault_line (not st.stuck) with
          | Some (pos, v) ->
              st.pi_values.(pos) <- Ternary.of_bool v;
              stack := (pos, v, false) :: !stack
          | None -> conflict ()
        end
        else begin
          (* Activated but not yet observed: extend an X-path via the
             D-frontier. *)
          match d_frontier st with
          | [] -> conflict ()
          | frontier ->
              if not (x_path_exists st) then conflict ()
              else begin
                (* Pick the first frontier gate that yields a feasible
                   objective. *)
                let rec try_gates = function
                  | [] -> conflict ()
                  | gate :: rest -> (
                      let nd = c.nodes.(gate) in
                      let objective =
                        match Gate.controlling_value nd.kind with
                        | Some ctrl ->
                            Array.to_list nd.fanin
                            |> List.find_opt (fun src -> is_x st.good.(src))
                            |> Option.map (fun src -> (src, not ctrl))
                        | None ->
                            Array.to_list nd.fanin
                            |> List.find_opt (fun src -> is_x st.good.(src))
                            |> Option.map (fun src -> (src, false))
                      in
                      match objective with
                      | None -> try_gates rest
                      | Some (node, v) -> (
                          match backtrace st node v with
                          | Some (pos, pv) ->
                              st.pi_values.(pos) <- Ternary.of_bool pv;
                              stack := (pos, pv, false) :: !stack
                          | None -> try_gates rest))
                in
                try_gates frontier
              end
        end
      end
    done;
    match !result with
    | Some (Test vector) ->
        (* Defensive verification through an independent oracle. *)
        if Dl_fault.Fault_sim.detects_fault c fault vector then Test vector
        else Aborted
    | Some other -> other
    | None -> Aborted


  (* Chronological backtracking thrashes on heavily reconvergent cones;
     randomized restarts recover most aborts cheaply (the deterministic pass
     runs first, so easy faults are unaffected). *)
  let generate ?(backtrack_limit = 10_000) ?(restarts = 4) ?scoap (c : Circuit.t)
      (fault : Stuck_at.t) =
    let scoap = match scoap with Some s -> s | None -> Scoap.compute c in
    let rec attempt i =
      let rng = if i = 0 then None else Some (Dl_util.Rng.create (i * 7919)) in
      match generate_once ~backtrack_limit ~scoap ?rng c fault with
      | Aborted when i < restarts -> attempt (i + 1)
      | outcome -> outcome
    in
    attempt 0
end

(* --- compiled engine ------------------------------------------------------- *)

(* Node values are ints: 0, 1, or [vx].  A node shows a D (a good/faulty
   difference) iff its two values sum to 1. *)
let vx = 2

let inv v = if v = vx then vx else 1 - v

type ctx = {
  circuit : Circuit.t;
  k : Kernel.t;
  cc0 : int array;
  cc1 : int array;
  obs : int array;
  is_po : bool array;
  pi_pos : int array;  (* node id -> PI position, -1 for non-inputs *)
  pi_values : int array;  (* per PI position *)
  good : int array;
  bad : int array;
  (* The nodes showing a D, as an unordered set: [d_nodes.(0 .. n_d - 1)],
     with [d_slot.(id)] the position of [id] or -1. *)
  d_nodes : int array;
  d_slot : int array;
  mutable n_d : int;
  (* The fault's fanout cone, stamped with [cone_stamp]: outside it the
     faulty machine equals the good one. *)
  in_cone : int array;
  mutable cone_stamp : int;
  (* Level-bucketed event queue, one bucket per level sized from
     [level_off]; a node is queued at most once per implication. *)
  queued : bool array;
  bucket : int array;
  level_fill : int array;
  mutable lo : int;
  mutable hi : int;
  (* Visited stamps (one stamp per search), the X-path DFS stack and the
     D-frontier buffer. *)
  visited : int array;
  mutable stamp : int;
  stack : int array;
  frontier : int array;
  mutable n_frontier : int;
  (* Decision stack, at most one entry per PI. *)
  dec_pos : int array;
  dec_val : int array;
  dec_flipped : bool array;
  mutable depth : int;
  (* The fault under test: a stem override on [stem], or a pin override on
     fanin slot [branch_slot] of the host gate [branch_gate] (-1 when
     absent); [fault_line] must carry the complement of [stuck]. *)
  mutable stem : int;
  mutable branch_gate : int;
  mutable branch_slot : int;
  mutable fault_line : int;
  mutable stuck : int;
  mutable rng : Dl_util.Rng.t option;
}

let compile ~scoap (c : Circuit.t) =
  let k = Kernel.of_circuit c in
  let n = k.n in
  let npi = Array.length k.inputs in
  let is_po = Array.make n false in
  Array.iter (fun o -> is_po.(o) <- true) k.outputs;
  let pi_pos = Array.make n (-1) in
  Array.iteri (fun pos id -> pi_pos.(id) <- pos) k.inputs;
  {
    circuit = c;
    k;
    cc0 = Array.init n (Scoap.cc0 scoap);
    cc1 = Array.init n (Scoap.cc1 scoap);
    obs = Array.init n (Scoap.observability scoap);
    is_po;
    pi_pos;
    pi_values = Array.make npi vx;
    good = Array.make n vx;
    bad = Array.make n vx;
    d_nodes = Array.make (max 1 n) 0;
    d_slot = Array.make n (-1);
    n_d = 0;
    in_cone = Array.make n 0;
    cone_stamp = 0;
    queued = Array.make n false;
    bucket = Array.make (max 1 n) 0;
    level_fill = Array.make k.n_levels 0;
    lo = max_int;
    hi = -1;
    visited = Array.make n 0;
    stamp = 0;
    stack = Array.make (max 1 n) 0;
    frontier = Array.make (max 1 n) 0;
    n_frontier = 0;
    dec_pos = Array.make (max 1 npi) 0;
    dec_val = Array.make (max 1 npi) 0;
    dec_flipped = Array.make (max 1 npi) false;
    depth = 0;
    stem = -1;
    branch_gate = -1;
    branch_slot = -1;
    fault_line = -1;
    stuck = 0;
    rng = None;
  }

let enqueue ctx id =
  if not ctx.queued.(id) then begin
    ctx.queued.(id) <- true;
    let l = ctx.k.level.(id) in
    ctx.bucket.(ctx.k.level_off.(l) + ctx.level_fill.(l)) <- id;
    ctx.level_fill.(l) <- ctx.level_fill.(l) + 1;
    if l < ctx.lo then ctx.lo <- l;
    if l > ctx.hi then ctx.hi <- l
  end

let enqueue_fanouts ctx id =
  let fo = ctx.k.fanout in
  for j = ctx.k.fanout_off.(id) to ctx.k.fanout_off.(id + 1) - 1 do
    enqueue ctx fo.(j)
  done

(* Three-valued evaluation of gate [id] over [vals]; fanin slot [slot]
   (a CSR index, or -1) reads [forced] instead of its source. *)
let eval ctx vals id slot forced =
  let k = ctx.k in
  let fanin = k.fanin in
  let lo = k.fanin_off.(id) and hi = k.fanin_off.(id + 1) in
  let op = k.opcode.(id) in
  if op = Gate.op_and || op = Gate.op_nand || op = Gate.op_or || op = Gate.op_nor
  then begin
    (* AND-like over the controlling value [ctrl]. *)
    let ctrl = if op = Gate.op_and || op = Gate.op_nand then 0 else 1 in
    let r = ref (1 - ctrl) in
    let j = ref lo in
    while !j < hi do
      let v = if !j = slot then forced else vals.(fanin.(!j)) in
      if v = ctrl then begin
        r := ctrl;
        j := hi
      end
      else begin
        if v = vx then r := vx;
        incr j
      end
    done;
    if op = Gate.op_nand || op = Gate.op_nor then inv !r else !r
  end
  else if op = Gate.op_xor || op = Gate.op_xnor then begin
    let r = ref 0 in
    let j = ref lo in
    while !j < hi do
      let v = if !j = slot then forced else vals.(fanin.(!j)) in
      if v = vx then begin
        r := vx;
        j := hi
      end
      else begin
        r := !r lxor v;
        incr j
      end
    done;
    if op = Gate.op_xnor then inv !r else !r
  end
  else
    let v = if lo = slot then forced else vals.(fanin.(lo)) in
    if op = Gate.op_not then inv v else v

let set_values ctx id g b =
  ctx.good.(id) <- g;
  ctx.bad.(id) <- b;
  let slot = ctx.d_slot.(id) in
  if g + b = 1 then begin
    if slot < 0 then begin
      ctx.d_slot.(id) <- ctx.n_d;
      ctx.d_nodes.(ctx.n_d) <- id;
      ctx.n_d <- ctx.n_d + 1
    end
  end
  else if slot >= 0 then begin
    let last = ctx.d_nodes.(ctx.n_d - 1) in
    ctx.d_nodes.(slot) <- last;
    ctx.d_slot.(last) <- slot;
    ctx.d_slot.(id) <- -1;
    ctx.n_d <- ctx.n_d - 1
  end

(* Event-driven implication: re-evaluate both machines over the queued
   fanout cones, level by level, stopping where neither value changed. *)
let implicate ctx =
  let k = ctx.k in
  let good = ctx.good and bad = ctx.bad in
  let l = ref ctx.lo in
  while !l <= ctx.hi do
    let base = k.level_off.(!l) in
    for j = 0 to ctx.level_fill.(!l) - 1 do
      let id = ctx.bucket.(base + j) in
      ctx.queued.(id) <- false;
      let g = eval ctx good id (-1) 0 in
      if ctx.in_cone.(id) <> ctx.cone_stamp then begin
        if g <> good.(id) then begin
          good.(id) <- g;
          bad.(id) <- g;
          enqueue_fanouts ctx id
        end
      end
      else begin
        let b =
          if id = ctx.stem then ctx.stuck
          else if id = ctx.branch_gate then eval ctx bad id ctx.branch_slot ctx.stuck
          else eval ctx bad id (-1) 0
        in
        if g <> good.(id) || b <> bad.(id) then begin
          set_values ctx id g b;
          enqueue_fanouts ctx id
        end
      end
    done;
    ctx.level_fill.(!l) <- 0;
    incr l
  done;
  ctx.lo <- max_int;
  ctx.hi <- -1

let assign ctx pos v =
  ctx.pi_values.(pos) <- v;
  let id = ctx.k.inputs.(pos) in
  let b = if id = ctx.stem then ctx.stuck else v in
  if v <> ctx.good.(id) || b <> ctx.bad.(id) then begin
    set_values ctx id v b;
    enqueue_fanouts ctx id
  end

let has_d ctx id = ctx.good.(id) + ctx.bad.(id) = 1
let x_ish ctx id = ctx.good.(id) = vx || ctx.bad.(id) = vx

(* A branch fault's difference is born inside its host gate: once the
   source line carries the fault complement, the host gate belongs to the
   frontier even though no fanin shows a D.  -1 otherwise. *)
let host_gate ctx =
  if ctx.branch_gate >= 0 && ctx.good.(ctx.fault_line) = 1 - ctx.stuck then
    ctx.branch_gate
  else -1

(* The D-frontier, unordered: the X-valued readers of D nodes, plus an
   activated branch fault's host gate. *)
let d_frontier ctx =
  let k = ctx.k in
  ctx.stamp <- ctx.stamp + 1;
  let stamp = ctx.stamp in
  let nf = ref 0 in
  let add id =
    if ctx.visited.(id) <> stamp && x_ish ctx id then begin
      ctx.visited.(id) <- stamp;
      ctx.frontier.(!nf) <- id;
      incr nf
    end
  in
  for i = 0 to ctx.n_d - 1 do
    let d = ctx.d_nodes.(i) in
    for j = k.fanout_off.(d) to k.fanout_off.(d + 1) - 1 do
      add k.fanout.(j)
    done
  done;
  let host = host_gate ctx in
  if host >= 0 then add host;
  ctx.n_frontier <- !nf

(* Frontier order: ascending SCOAP observability (gates closest to an output
   first), equal observability by descending id, the order the reference's
   stable sort leaves its descending-id list in.  A total order, so the
   buffer's own order does not matter. *)
let precedes ctx a b =
  let oa = ctx.obs.(a) and ob = ctx.obs.(b) in
  oa < ob || (oa = ob && a > b)

(* Move the first gate in frontier order among positions [i ..] to [i]: a
   selection-sort step, since the first gate usually yields an objective. *)
let select_frontier ctx i =
  let fr = ctx.frontier in
  let best = ref i in
  for j = i + 1 to ctx.n_frontier - 1 do
    if precedes ctx fr.(j) fr.(!best) then best := j
  done;
  let g = fr.(!best) in
  fr.(!best) <- fr.(i);
  fr.(i) <- g;
  g

(* Can a difference still reach a primary output?  Reachability from the
   fanouts of every D node (and an activated branch fault's host gate)
   through nodes still X in at least one machine. *)
let x_path_exists ctx =
  let k = ctx.k in
  ctx.stamp <- ctx.stamp + 1;
  let stamp = ctx.stamp in
  let sp = ref 0 in
  let found = ref false in
  let visit id =
    if ctx.visited.(id) <> stamp && x_ish ctx id then begin
      ctx.visited.(id) <- stamp;
      if ctx.is_po.(id) then found := true
      else begin
        ctx.stack.(!sp) <- id;
        incr sp
      end
    end
  in
  let visit_fanouts id =
    for j = k.fanout_off.(id) to k.fanout_off.(id + 1) - 1 do
      visit k.fanout.(j)
    done
  in
  for i = 0 to ctx.n_d - 1 do
    let d = ctx.d_nodes.(i) in
    if ctx.is_po.(d) then found := true else visit_fanouts d
  done;
  let host = host_gate ctx in
  if host >= 0 then visit host;
  while (not !found) && !sp > 0 do
    decr sp;
    visit_fanouts ctx.stack.(!sp)
  done;
  !found

(* Backtrace an objective (node, value) to an unassigned primary input
   guided by SCOAP controllabilities; returns [2 * pos + value], or -1. *)
let backtrace ctx node value =
  let k = ctx.k in
  let good = ctx.good in
  let rec walk id v depth =
    if depth > k.n then -1
    else
      let op = k.opcode.(id) in
      let lo = k.fanin_off.(id) and hi = k.fanin_off.(id + 1) in
      if op = Gate.op_input then
        let pos = ctx.pi_pos.(id) in
        if pos >= 0 && ctx.pi_values.(pos) = vx then (2 * pos) + v else -1
      else if op = Gate.op_buf then walk k.fanin.(lo) v (depth + 1)
      else if op = Gate.op_not then walk k.fanin.(lo) (1 - v) (depth + 1)
      else if op = Gate.op_xor || op = Gate.op_xnor then begin
        let parity_target = if op = Gate.op_xnor then 1 - v else v in
        let parity = ref 0 and first_x = ref (-1) in
        for j = lo to hi - 1 do
          let g = good.(k.fanin.(j)) in
          if g = 1 then parity := 1 - !parity
          else if g = vx && !first_x < 0 then first_x := k.fanin.(j)
        done;
        (* Aim the chosen input so that parity closes if the remaining X
           inputs settle at 0. *)
        if !first_x < 0 then -1
        else walk !first_x (parity_target lxor !parity) (depth + 1)
      end
      else begin
        let ctrl = if op = Gate.op_and || op = Gate.op_nand then 0 else 1 in
        let inverts = op = Gate.op_nand || op = Gate.op_nor in
        let core_target = if inverts then 1 - v else v in
        (* [Gate.controlled_response]: AND 0, NAND 1, OR 1, NOR 0.  The
           comparison with the un-inverted core target is the reference's,
           kept as is (see DESIGN.md). *)
        let response = if inverts then 1 - ctrl else ctrl in
        let all_needed = core_target <> response in
        let needed = if all_needed then 1 - ctrl else ctrl in
        let cost = if needed = 1 then ctx.cc1 else ctx.cc0 in
        (* AND core: target 1 needs all inputs non-controlling (pick the
           hardest X input first); target 0 needs any input controlling
           (pick the easiest).  Same logic covers OR by duality. *)
        let pick = ref (-1) and n_x = ref 0 in
        for j = lo to hi - 1 do
          let src = k.fanin.(j) in
          if good.(src) = vx then begin
            incr n_x;
            if !pick < 0
               || (if all_needed then cost.(src) > cost.(!pick)
                   else cost.(src) < cost.(!pick))
            then pick := src
          end
        done;
        if !n_x = 0 then -1
        else begin
          (* With a restart rng, occasionally take a uniformly drawn X input
             instead, so successive attempts explore different regions. *)
          let src =
            match ctx.rng with
            | Some rng when Dl_util.Rng.bernoulli rng 0.3 ->
                let nth = ref (Dl_util.Rng.int rng !n_x) and chosen = ref (-1) in
                for j = lo to hi - 1 do
                  let s = k.fanin.(j) in
                  if !chosen < 0 && good.(s) = vx then
                    if !nth = 0 then chosen := s else decr nth
                done;
                !chosen
            | Some _ | None -> !pick
          in
          walk src needed (depth + 1)
        end
      end
  in
  walk node value 0

let po_has_d ctx =
  let outs = ctx.k.outputs in
  let hit = ref false in
  for j = 0 to Array.length outs - 1 do
    if has_d ctx outs.(j) then hit := true
  done;
  !hit

let mark_cone ctx root =
  let k = ctx.k in
  ctx.cone_stamp <- ctx.cone_stamp + 1;
  let stamp = ctx.cone_stamp in
  ctx.in_cone.(root) <- stamp;
  ctx.stack.(0) <- root;
  let sp = ref 1 in
  while !sp > 0 do
    decr sp;
    let id = ctx.stack.(!sp) in
    for j = k.fanout_off.(id) to k.fanout_off.(id + 1) - 1 do
      let f = k.fanout.(j) in
      if ctx.in_cone.(f) <> stamp then begin
        ctx.in_cone.(f) <- stamp;
        ctx.stack.(!sp) <- f;
        incr sp
      end
    done
  done

(* Reset both machines to the all-X state of [fault] and queue the fault
   site, so the first implication computes its all-X faulty cone. *)
let start ctx (fault : Stuck_at.t) rng =
  for i = 0 to ctx.n_d - 1 do
    ctx.d_slot.(ctx.d_nodes.(i)) <- -1
  done;
  ctx.n_d <- 0;
  (* Drop the events a finished attempt left queued. *)
  for l = ctx.lo to ctx.hi do
    for j = 0 to ctx.level_fill.(l) - 1 do
      ctx.queued.(ctx.bucket.(ctx.k.level_off.(l) + j)) <- false
    done;
    ctx.level_fill.(l) <- 0
  done;
  ctx.lo <- max_int;
  ctx.hi <- -1;
  Array.fill ctx.pi_values 0 (Array.length ctx.pi_values) vx;
  Array.fill ctx.good 0 ctx.k.n vx;
  Array.fill ctx.bad 0 ctx.k.n vx;
  ctx.depth <- 0;
  ctx.rng <- rng;
  ctx.stuck <- (if Stuck_at.polarity_bool fault.polarity then 1 else 0);
  (match fault.site with
  | Stuck_at.Stem id ->
      ctx.stem <- id;
      ctx.branch_gate <- -1;
      ctx.branch_slot <- -1;
      ctx.fault_line <- id;
      ctx.bad.(id) <- ctx.stuck;
      enqueue_fanouts ctx id
  | Stuck_at.Branch { gate; pin } ->
      ctx.stem <- -1;
      ctx.branch_gate <- gate;
      ctx.branch_slot <- ctx.k.fanin_off.(gate) + pin;
      ctx.fault_line <- ctx.k.fanin.(ctx.branch_slot);
      enqueue ctx gate);
  mark_cone ctx (if ctx.stem >= 0 then ctx.stem else ctx.branch_gate)

let check_site ctx (fault : Stuck_at.t) =
  let n = ctx.k.n in
  match fault.site with
  | Stuck_at.Stem id ->
      if id < 0 || id >= n then invalid_arg "Podem.run: stem id out of range"
  | Stuck_at.Branch { gate; pin } ->
      if gate < 0 || gate >= n then invalid_arg "Podem.run: gate id out of range";
      if pin < 0 || pin >= ctx.k.fanin_off.(gate + 1) - ctx.k.fanin_off.(gate) then
        invalid_arg "Podem.run: pin out of range"

type status = Searching | Found | Done of outcome

let run_once ctx ~backtrack_limit ?rng (fault : Stuck_at.t) =
  start ctx fault rng;
  let k = ctx.k in
  let backtracks = ref 0 in
  let status = ref Searching in
  let decide code =
    let pos = code / 2 and v = code land 1 in
    assign ctx pos v;
    ctx.dec_pos.(ctx.depth) <- pos;
    ctx.dec_val.(ctx.depth) <- v;
    ctx.dec_flipped.(ctx.depth) <- false;
    ctx.depth <- ctx.depth + 1
  in
  let conflict () =
    let unwinding = ref true in
    while !unwinding do
      if ctx.depth = 0 then begin
        status := Done Untestable;
        unwinding := false
      end
      else begin
        let top = ctx.depth - 1 in
        if ctx.dec_flipped.(top) then begin
          assign ctx ctx.dec_pos.(top) vx;
          ctx.depth <- top
        end
        else begin
          unwinding := false;
          incr backtracks;
          if !backtracks > backtrack_limit then status := Done Aborted
          else begin
            let v' = 1 - ctx.dec_val.(top) in
            assign ctx ctx.dec_pos.(top) v';
            ctx.dec_val.(top) <- v';
            ctx.dec_flipped.(top) <- true
          end
        end
      end
    done
  in
  (* Pick the first frontier gate that yields a feasible objective: its
     first X input, at the non-controlling value. *)
  let try_frontier () =
    let i = ref 0 and decided = ref false in
    while (not !decided) && !i < ctx.n_frontier do
      let gate = select_frontier ctx !i in
      let op = k.opcode.(gate) in
      (* Non-controlling value; 0 for gates without one. *)
      let v = if op = Gate.op_and || op = Gate.op_nand then 1 else 0 in
      let src = ref (-1) in
      let j = ref k.fanin_off.(gate) in
      while !src < 0 && !j < k.fanin_off.(gate + 1) do
        if ctx.good.(k.fanin.(!j)) = vx then src := k.fanin.(!j);
        incr j
      done;
      if !src >= 0 then begin
        let code = backtrace ctx !src v in
        if code >= 0 then begin
          decide code;
          decided := true
        end
      end;
      incr i
    done;
    if not !decided then conflict ()
  in
  while !status = Searching do
    implicate ctx;
    if po_has_d ctx then status := Found
    else begin
      let line = ctx.good.(ctx.fault_line) in
      if line = ctx.stuck then conflict ()
      else if line = vx then begin
        (* Activation objective: drive the fault line to the complement. *)
        let code = backtrace ctx ctx.fault_line (1 - ctx.stuck) in
        if code >= 0 then decide code else conflict ()
      end
      else begin
        (* Activated but not yet observed: extend an X-path via the
           D-frontier. *)
        d_frontier ctx;
        if ctx.n_frontier = 0 || not (x_path_exists ctx) then conflict ()
        else try_frontier ()
      end
    end
  done;
  match !status with
  | Found ->
      let vector = Array.map (fun v -> v = 1) ctx.pi_values in
      (* Defensive verification through an independent oracle. *)
      if Dl_fault.Fault_sim.detects_fault ctx.circuit fault vector then Test vector
      else Aborted
  | Done outcome -> outcome
  | Searching -> Aborted

(* Chronological backtracking thrashes on heavily reconvergent cones;
   randomized restarts recover most aborts cheaply (the deterministic pass
   runs first, so easy faults are unaffected). *)
let run ?(backtrack_limit = 10_000) ?(restarts = 4) ctx (fault : Stuck_at.t) =
  check_site ctx fault;
  let rec attempt i =
    let rng = if i = 0 then None else Some (Dl_util.Rng.create (i * 7919)) in
    match run_once ctx ~backtrack_limit ?rng fault with
    | Aborted when i < restarts -> attempt (i + 1)
    | outcome -> outcome
  in
  attempt 0

let generate ?backtrack_limit ?restarts ?scoap (c : Circuit.t) fault =
  let scoap = match scoap with Some s -> s | None -> Scoap.compute c in
  run ?backtrack_limit ?restarts (compile ~scoap c) fault
