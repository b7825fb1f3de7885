open Dl_netlist
module Ternary = Dl_logic.Ternary
module Sim2 = Dl_logic.Sim2
module Cone = Dl_logic.Propagate.Cone
module Mapping = Dl_cell.Mapping
module Parallel = Dl_util.Parallel

type detection = { voltage : int option; iddq : int option }

type result = {
  detection : detection array;
  vectors_applied : int;
  region_solves : int;
}

(* --- shared helpers ------------------------------------------------------- *)

let max_fanin (c : Circuit.t) =
  Array.fold_left (fun acc (nd : Circuit.node) -> max acc (Array.length nd.fanin)) 0 c.nodes

(* The circuit node of a network node, or -1. *)
let signal (m : Mapping.network) g =
  if g >= 2 && g < 2 + Circuit.node_count m.circuit then g - 2 else -1

let signal_of m g =
  let s = signal m g in
  if s < 0 then None else Some s

(* The bridged cells' instances, ascending, each once. *)
let bridge_owners net a b =
  match (Network.owner_instance net a, Network.owner_instance net b) with
  | Some x, Some y -> if x = y then [ x ] else [ Int.min x y; Int.max x y ]
  | Some x, None | None, Some x -> [ x ]
  | None, None -> []

let good_values net vectors =
  let m = Network.mapping net in
  let c = m.Mapping.circuit in
  let n_vectors = Array.length vectors in
  let out = Array.make n_vectors [||] in
  let blocks = (n_vectors + 63) / 64 in
  for blk = 0 to blocks - 1 do
    let base = blk * 64 in
    let count = min 64 (n_vectors - base) in
    let words = Sim2.words_of_patterns c (Array.sub vectors base count) in
    let values = Sim2.run c words in
    for bit = 0 to count - 1 do
      out.(base + bit) <-
        Array.map
          (fun w -> Int64.logand (Int64.shift_right_logical w bit) 1L = 1L)
          values
    done
  done;
  out

let policy_value = function
  | Realistic.Floats_low -> Ternary.V0
  | Realistic.Floats_high -> Ternary.V1
  | Realistic.Floats_unknown -> Ternary.VX

(* --- reference engine ------------------------------------------------------ *)

(* The original engine, kept verbatim as the oracle of [run]: a
   [Solver.solve] per region evaluation and a Hashtbl cone walk per
   propagation. *)
module Reference = struct
  type prepared =
    | Region of {
        region : Solver.t;
        charge : (int, Ternary.t) Hashtbl.t;  (* network node -> last value *)
        output_signals : (int * int) list;    (* (network node, circuit node) *)
        input_signals : int list;             (* circuit nodes read by the region *)
        iddq_candidate : bool;
      }
    | Net_open of {
        seeds : [ `Stem of int | `Pin of int * int ] list;
        policy : Realistic.float_policy;
      }

  let prepare net (f : Realistic.t) =
    let m = Network.mapping net in
    let region_of instances mods ~iddq_candidate =
      let region = Solver.make net ~instances ~modifications:mods in
      let output_signals =
        List.filter_map
          (fun g ->
            match signal_of m g with
            | Some c -> Some (g, c)
            | None -> None)
          (Solver.observable_nodes region)
      in
      let input_signals =
        List.concat_map
          (fun ii ->
            let inst = m.Mapping.instances.(ii) in
            Array.to_list m.circuit.nodes.(inst.gate_id).fanin)
          instances
        |> List.sort_uniq compare
      in
      let charge = Hashtbl.create 16 in
      Region { region; charge; output_signals; input_signals; iddq_candidate }
    in
    match f.kind with
    | Realistic.Bridge { node_a; node_b } ->
        region_of (bridge_owners net node_a node_b)
          [ Solver.Bridge_nodes { node_a; node_b } ]
          ~iddq_candidate:true
    | Realistic.Transistor_stuck_open ti ->
        let inst = m.Mapping.transistors.(ti).instance in
        region_of [ inst ] [ Solver.Remove_transistor ti ] ~iddq_candidate:false
    | Realistic.Transistor_stuck_on ti ->
        let inst = m.Mapping.transistors.(ti).instance in
        region_of [ inst ] [ Solver.Short_transistor ti ] ~iddq_candidate:true
    | Realistic.Input_open { gate; pin; policy } ->
        Net_open { seeds = [ `Pin (gate, pin) ]; policy }
    | Realistic.Stem_open { node; policy } ->
        Net_open { seeds = [ `Stem node ]; policy }

  let propagate = Dl_logic.Propagate.run
  let po_detects = Dl_logic.Propagate.po_detects

  let run ?(drop_when = `Both) ?on_voltage_detect net ~faults ~vectors =
    let m = Network.mapping net in
    let c = m.Mapping.circuit in
    let n_faults = Array.length faults in
    let detection = Array.make n_faults { voltage = None; iddq = None } in
    let prepared = Array.map (prepare net) faults in
    let region_solves = ref 0 in
    let good_per_vector = good_values net vectors in
    let n_vectors = Array.length vectors in
    let live = Array.make n_faults true in
    let update_live fi =
      let d = detection.(fi) in
      let done_ =
        match drop_when with
        | `Voltage -> d.voltage <> None
        | `Both -> d.voltage <> None && d.iddq <> None
        | `Never -> false
      in
      if done_ then live.(fi) <- false
    in
    for k = 0 to n_vectors - 1 do
      let good = good_per_vector.(k) in
      for fi = 0 to n_faults - 1 do
        if live.(fi) then begin
          let voltage_hit = ref false and iddq_hit = ref false in
          (match prepared.(fi) with
          | Net_open { seeds; policy } ->
              let pv = policy_value policy in
              let overrides =
                List.map
                  (function
                    | `Stem node -> (node, pv)
                    | `Pin (gate, pin) ->
                        (* Re-evaluate the reading gate with the floating pin. *)
                        let nd = c.nodes.(gate) in
                        let ins =
                          Array.map (fun s -> Ternary.of_bool good.(s)) nd.fanin
                        in
                        ins.(pin) <- pv;
                        (gate, Ternary.eval nd.kind ins))
                  seeds
              in
              let map = propagate c good overrides in
              if po_detects c good map then voltage_hit := true;
              if policy = Realistic.Floats_unknown then iddq_hit := true
          | Region { region; charge; output_signals; input_signals; iddq_candidate } ->
              let override_map = ref (Hashtbl.create 0) in
              let stable = ref false in
              let iters = ref 0 in
              let last_fight = ref false in
              let final_values = ref [] in
              while (not !stable) && !iters < 8 do
                incr iters;
                let ext g =
                  match signal_of m g with
                  | Some cnode -> (
                      match Hashtbl.find_opt !override_map cnode with
                      | Some v -> v
                      | None -> Ternary.of_bool good.(cnode))
                  | None -> Ternary.VX
                in
                let charge_of g =
                  match Hashtbl.find_opt charge g with Some v -> v | None -> Ternary.VX
                in
                incr region_solves;
                let outcome = Solver.solve region ~external_value:ext ~charge:charge_of in
                last_fight := outcome.fight;
                final_values := outcome.values;
                let seeds =
                  List.filter_map
                    (fun (g, cnode) ->
                      match List.assoc_opt g outcome.values with
                      | Some v -> Some (cnode, v)
                      | None -> None)
                    output_signals
                in
                let map = propagate c good seeds in
                (* Feedback: iterate only if a region input changed. *)
                let input_sig tbl =
                  List.map (fun s -> Hashtbl.find_opt tbl s) input_signals
                in
                if input_sig map = input_sig !override_map then stable := true;
                override_map := map
              done;
              if po_detects c good !override_map then voltage_hit := true;
              if iddq_candidate && !last_fight then iddq_hit := true;
              (* Persist settled charges for the next vector. *)
              List.iter (fun (g, v) -> Hashtbl.replace charge g v) !final_values);
          (match on_voltage_detect with
          | Some callback when !voltage_hit -> callback ~fault_index:fi ~vector_index:k
          | _ -> ());
          let d = detection.(fi) in
          let d =
            if !voltage_hit && d.voltage = None then { d with voltage = Some k } else d
          in
          let d = if !iddq_hit && d.iddq = None then { d with iddq = Some k } else d in
          detection.(fi) <- d;
          update_live fi
        end
      done
    done;
    { detection; vectors_applied = n_vectors; region_solves = !region_solves }
end

(* --- observability -------------------------------------------------------- *)

(* One bit per (node, vector), a row of bytes per node. *)
type observability = { row : int; bits : Bytes.t }

let observability ?pool (c : Circuit.t) ~nodes ~vectors =
  let n_vectors = Array.length vectors in
  let row = (n_vectors + 7) / 8 in
  let bits = Bytes.make (row * Circuit.node_count c) '\000' in
  if Array.length nodes > 0 && n_vectors > 0 then begin
    let module S = Dl_fault.Stuck_at in
    let faults =
      Array.init (2 * Array.length nodes) (fun i ->
          { S.site = S.Stem nodes.(i / 2); polarity = (if i land 1 = 0 then S.Sa0 else S.Sa1) })
    in
    (* Stuck-at-0 fires exactly where the node is 1 and the flip is
       observed, stuck-at-1 where it is 0: either one sets the bit. *)
    let on_detect ~fault_index ~vector_index =
      let i = (nodes.(fault_index / 2) * row) + (vector_index / 8) in
      Bytes.set bits i
        (Char.unsafe_chr (Char.code (Bytes.get bits i) lor (1 lsl (vector_index land 7))))
    in
    let (_ : Dl_fault.Fault_sim.result) =
      Dl_fault.Fault_sim.run_parallel_with ~engine:Dl_fault.Fault_sim.Wide
        ~drop_detected:false ~on_detect ?pool c ~faults ~vectors
    in
    ()
  end;
  { row; bits }

let observable o ~node ~vector =
  Char.code (Bytes.get o.bits ((node * o.row) + (vector / 8))) land (1 lsl (vector land 7))
  <> 0

(* --- compiled engine ------------------------------------------------------- *)

(* Solve memo of one region shape at a time: open addressing from packed
   solve inputs to packed outcomes, both non-negative ints.  A slot is
   live while it holds the current generation, so [clear] is O(1) and the
   arrays are reused from shape to shape. *)
module Memo = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable gens : int array;
    mutable gen : int;
    mutable count : int;
  }

  let create () = { keys = [||]; vals = [||]; gens = [||]; gen = 0; count = 0 }

  let clear t =
    t.gen <- t.gen + 1;
    t.count <- 0

  (* The slot holding [k], or the free slot where it goes. *)
  let slot t k =
    let mask = Array.length t.keys - 1 in
    let h = k * 0x2545F4914F6CDD1D in
    let i = ref ((h lxor (h lsr 29)) land mask) in
    while t.gens.(!i) = t.gen && t.keys.(!i) <> k do
      i := (!i + 1) land mask
    done;
    !i

  let find t k =
    if t.count = 0 then -1
    else
      let i = slot t k in
      if t.gens.(i) = t.gen then t.vals.(i) else -1

  let rec add t k v =
    if 2 * (t.count + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals and gens = t.gens and gen = t.gen in
      let size = max 8 (2 * Array.length keys) in
      t.keys <- Array.make size 0;
      t.vals <- Array.make size 0;
      t.gens <- Array.make size (-1);
      t.gen <- 0;
      t.count <- 0;
      Array.iteri (fun i k -> if gens.(i) = gen then add t k vals.(i)) keys
    end;
    let i = slot t k in
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.gens.(i) <- t.gen;
    t.count <- t.count + 1
end

let code = function Ternary.V0 -> 0 | Ternary.V1 -> 1 | Ternary.VX -> 2
let of_code = function 0 -> Ternary.V0 | 1 -> Ternary.V1 | _ -> Ternary.VX

(* A fault's own state; the solve itself is its shape's. *)
type region = {
  shape : Solver.shape;
  ext_signal : int array;  (* external slot -> circuit node, or -1 (reads X) *)
  out_index : int array;  (* solved index of each signal node the region drives *)
  out_signal : int array;  (* ... and its circuit node *)
  inputs : int array;  (* circuit nodes read by the region's cells *)
  iddq_candidate : bool;
  acyclic : bool;  (* no node of [out_signal] reaches one of [inputs] *)
}

(* An interconnect open: stem [node] floats ([pin < 0]), or input [pin]
   of gate [node] does and the gate is re-evaluated. *)
type net_open = { node : int; pin : int; policy : Realistic.float_policy }

(* [Done] replaces a fault's state once its task has finished it. *)
type prepared = Region of region | Net_open of net_open | Done

(* One pool worker's state, made by the calling domain and reused by every
   task the worker claims, so that a worker allocates only when its memo
   or hit buffer grows. *)
type worker = {
  ext : Ternary.t array;
  out : Ternary.t array;
  charge : Ternary.t array;  (* per solved node: the fault's last settled value *)
  ins : Ternary.t array array;  (* per arity: a gate's inputs, refilled per vector *)
  before : int array;
  scratch : Solver.scratch;
  cone : Cone.t;
  memo : Memo.t;
  mutable hits : int array;  (* voltage hits as [vector * n_faults + fault] *)
  mutable n_hits : int;
  mutable solves : int;
  mutable full_hits : int;
  mutable ext_only_hits : int;
  mutable misses : int;
  mutable feedback_capped : int;
  mutable cone_walks : int;
}

(* Per circuit node, a row of bits: the nodes it reaches ([reachability]). *)
type reach = { words : int; rows : int array }

(* The lowering phase's state: the run's lowering, its reachability and a
   buffer for the inputs of the region being lowered. *)
type lowerer = { lowering : Solver.lowering; reach : reach; fanins : int array }

(* The fanins of the instances' gates (one or two cells), each once, in
   first-read order. *)
let region_inputs lw (m : Mapping.network) instances =
  let n = ref 0 in
  List.iter
    (fun ii ->
      let fanin = m.circuit.nodes.(m.instances.(ii).gate_id).fanin in
      for k = 0 to Array.length fanin - 1 do
        let s = fanin.(k) in
        let j = ref 0 in
        while !j < !n && lw.fanins.(!j) <> s do
          incr j
        done;
        if !j = !n then begin
          lw.fanins.(!n) <- s;
          incr n
        end
      done)
    instances;
  Array.sub lw.fanins 0 !n

(* Per circuit node, the set of nodes it reaches through its fanout, itself
   included: a row of [words] ints of 32 bits, so that a bit is found by
   shifts.  Fanouts sit at higher levels, so the rows are built from the
   top level down. *)
let reachability (c : Circuit.t) =
  let n = Circuit.node_count c in
  let words = (n + 31) lsr 5 in
  let rows = Array.make (n * words) 0 in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare c.levels.(b) c.levels.(a)) order;
  Array.iter
    (fun u ->
      let row = u * words in
      rows.(row + (u lsr 5)) <- rows.(row + (u lsr 5)) lor (1 lsl (u land 31));
      Array.iter
        (fun f ->
          for k = 0 to words - 1 do
            rows.(row + k) <- rows.(row + k) lor rows.((f * words) + k)
          done)
        c.fanouts.(u))
    order;
  { words; rows }

let reaches r a b = (r.rows.((a * r.words) + (b lsr 5)) lsr (b land 31)) land 1 = 1

(* Whether no node of [outs] reaches a node of [inputs]. *)
let acyclic reach ~outs ~inputs =
  let cyclic = ref false in
  for j = 0 to Array.length outs - 1 do
    for i = 0 to Array.length inputs - 1 do
      if reaches reach outs.(j) inputs.(i) then cyclic := true
    done
  done;
  not !cyclic

let prepare lw net (f : Realistic.t) =
  let m = Network.mapping net in
  let region_of instances modification ~iddq_candidate =
    let cr = Solver.lower lw.lowering ~instances ~modifications:[ modification ] in
    let solved = Solver.solved_nodes cr in
    let n_out = ref 0 in
    for i = 0 to Array.length solved - 1 do
      if signal m solved.(i) >= 0 then incr n_out
    done;
    let out_index = Array.make !n_out 0 and out_signal = Array.make !n_out 0 in
    let j = ref 0 in
    for i = 0 to Array.length solved - 1 do
      let s = signal m solved.(i) in
      if s >= 0 then begin
        out_index.(!j) <- i;
        out_signal.(!j) <- s;
        incr j
      end
    done;
    let ext = Solver.external_nodes cr in
    let ext_signal = Array.make (Array.length ext) (-1) in
    for i = 0 to Array.length ext - 1 do
      ext_signal.(i) <- signal m ext.(i)
    done;
    let inputs = region_inputs lw m instances in
    Region
      {
        shape = Solver.shape cr;
        ext_signal;
        out_index;
        out_signal;
        inputs;
        iddq_candidate;
        acyclic = acyclic lw.reach ~outs:out_signal ~inputs;
      }
  in
  match f.kind with
  | Realistic.Bridge { node_a; node_b } ->
      region_of (bridge_owners net node_a node_b)
        (Solver.Bridge_nodes { node_a; node_b })
        ~iddq_candidate:true
  | Realistic.Transistor_stuck_open ti ->
      region_of [ m.Mapping.transistors.(ti).instance ]
        (Solver.Remove_transistor ti) ~iddq_candidate:false
  | Realistic.Transistor_stuck_on ti ->
      region_of [ m.Mapping.transistors.(ti).instance ]
        (Solver.Short_transistor ti) ~iddq_candidate:true
  | Realistic.Input_open { gate; pin; policy } -> Net_open { node = gate; pin; policy }
  | Realistic.Stem_open { node; policy } -> Net_open { node; pin = -1; policy }

(* Every fault lowered, with its shape interned, on the calling domain.
   The lowering allocates what the run keeps: a worker domain alive at the
   time could promote some of it into major-heap pools of its own, which
   outlive the domain (DESIGN.md §6k), so it runs before any pool starts. *)
let lower_all net faults =
  let c = (Network.mapping net).Mapping.circuit in
  let lw =
    {
      lowering = Solver.lowering net;
      reach = reachability c;
      fanins = Array.make (2 * max_fanin c) 0;
    }
  in
  let prepared = Array.map (prepare lw net) faults in
  (prepared, Solver.shape_count lw.lowering)

let shape_ids net faults =
  Array.map
    (function Region r -> Solver.shape_id r.shape | Net_open _ | Done -> -1)
    (fst (lower_all net faults))

(* Memo keys pack 2 bits per external value, then 2 bits per charge the
   solve can read; an outcome packs the fight bit under 2 bits per solved
   node.  A shape is memoised when both fit in 62 bits. *)
let memoised shape =
  2 * (Solver.external_count shape + Solver.charged_count shape) <= 62
  && (2 * Solver.solved_count shape) + 1 <= 62

let pack_ext r ext =
  let k = ref 0 in
  for j = 0 to Array.length r.ext_signal - 1 do
    k := (!k lsl 2) lor code ext.(j)
  done;
  !k

(* The key of an outcome that holds for any charge: code 3, which no
   ternary value has, in every charge field. *)
let ext_only_key k n_charged = (k lsl (2 * n_charged)) lor ((1 lsl (2 * n_charged)) - 1)

let with_charge charge k n_charged =
  let k = ref k in
  for i = 0 to n_charged - 1 do
    k := (!k lsl 2) lor code charge.(i)
  done;
  !k

let pack_outcome out n fight =
  let v = ref 0 in
  for i = n - 1 downto 0 do
    v := (!v lsl 2) lor code out.(i)
  done;
  (!v lsl 1) lor Bool.to_int fight

let unpack_outcome packed out n =
  let v = ref (packed lsr 1) in
  for i = 0 to n - 1 do
    out.(i) <- of_code (!v land 3);
    v := !v lsr 2
  done;
  packed land 1 = 1

type memo_stats = {
  mutable shapes : int;
  mutable full_hits : int;
  mutable ext_only_hits : int;
  mutable misses : int;
  mutable rounds : int;
  mutable feedback_capped : int;
  mutable rounds_capped : int;
  mutable cone_walks : int;
}

let memo_stats () =
  { shapes = 0; full_hits = 0; ext_only_hits = 0; misses = 0; rounds = 0;
    feedback_capped = 0; rounds_capped = 0; cone_walks = 0 }

(* What [Propagate.run]'s map holds for a node: -1 when absent. *)
let observed cone id = if Cone.mem cone id then code (Cone.get cone id) else -1

(* What every task of a run reads.  Each fault's first-detection slots
   (vector index, or -1) are written by the one task that holds it. *)
type ctx = {
  circuit : Circuit.t;
  good : bool array array;  (* per vector: fault-free value per node *)
  obs : observability;  (* of every site an acyclic region or definite open has *)
  drop_when : [ `Voltage | `Both | `Never ];
  open_drops : bool;  (* a definite open leaves once voltage-detected *)
  record : bool;  (* keep every voltage hit for the callback *)
  n_faults : int;
  voltage_at : int array;
  iddq_at : int array;
}

let record_hit ctx w ~vector fi =
  if w.n_hits = Array.length w.hits then begin
    let hits = Array.make (max 64 (2 * w.n_hits)) 0 in
    Array.blit w.hits 0 hits 0 w.n_hits;
    w.hits <- hits
  end;
  w.hits.(w.n_hits) <- (vector * ctx.n_faults) + fi;
  w.n_hits <- w.n_hits + 1

let vector_opt k = if k < 0 then None else Some k

(* An ext-only entry answers for any charge, so it is probed first;
   a solve that read no charge is stored only under its ext-only key. *)
let solve w r =
  let shape = r.shape and memo = w.memo in
  let n = Solver.solved_count shape in
  let ext = w.ext and out = w.out in
  if not (memoised shape) then begin
    w.misses <- w.misses + 1;
    Solver.solve_compiled shape w.scratch ~ext ~charge:w.charge ~out
  end
  else begin
    let n_charged = Solver.charged_count shape in
    let k = pack_ext r ext in
    let ext_key = ext_only_key k n_charged in
    let hit = Memo.find memo ext_key in
    if hit >= 0 then begin
      w.ext_only_hits <- w.ext_only_hits + 1;
      unpack_outcome hit out n
    end
    else begin
      let key = if n_charged = 0 then ext_key else with_charge w.charge k n_charged in
      let hit = if n_charged = 0 then -1 else Memo.find memo key in
      if hit >= 0 then begin
        w.full_hits <- w.full_hits + 1;
        unpack_outcome hit out n
      end
      else begin
        w.misses <- w.misses + 1;
        let fight = Solver.solve_compiled shape w.scratch ~ext ~charge:w.charge ~out in
        let key = if Solver.read_charge w.scratch then key else ext_key in
        Memo.add memo key (pack_outcome out n fight);
        fight
      end
    end
  end

(* The cone walk of the region's solved signals against [good]. *)
let walk w r good =
  let cone = w.cone in
  w.cone_walks <- w.cone_walks + 1;
  Cone.start cone good;
  for j = 0 to Array.length r.out_signal - 1 do
    Cone.seed cone r.out_signal.(j) w.out.(r.out_index.(j))
  done;
  Cone.propagate cone

(* Whether an acyclic region's solve at vector [k] reaches an output.  Its
   propagation cannot reach its inputs, so the solve is its only pass.
   With no definitely wrong site, Kleene evaluation is monotone: every node
   is X or fault-free and no output is definitely wrong.  With one wrong
   site and no X, the circuit sees that one flip.  Anything else walks. *)
let acyclic_detects ctx w r good k =
  let wrong = ref (-1) and n_wrong = ref 0 and unknown = ref false in
  for j = 0 to Array.length r.out_signal - 1 do
    let s = r.out_signal.(j) in
    match w.out.(r.out_index.(j)) with
    | Ternary.VX -> unknown := true
    | Ternary.V0 -> if good.(s) then begin incr n_wrong; wrong := s end
    | Ternary.V1 -> if not good.(s) then begin incr n_wrong; wrong := s end
  done;
  if !n_wrong = 0 then false
  else if !n_wrong = 1 && not !unknown then observable ctx.obs ~node:!wrong ~vector:k
  else begin
    walk w r good;
    Cone.po_detects w.cone
  end

(* Region fault [fi] from the first vector on, until it drops. *)
let run_region ctx w r fi =
  let cone = w.cone and ext = w.ext and before = w.before in
  let n_vectors = Array.length ctx.good in
  let n_solved = Solver.solved_count r.shape in
  Array.fill w.charge 0 n_solved Ternary.VX;
  let voltage = ref (-1) and iddq = ref (-1) in
  let k = ref 0 in
  while !k < n_vectors do
    let good = ctx.good.(!k) in
    let fight = ref false and detected = ref false in
    if r.acyclic then begin
      for j = 0 to Array.length r.ext_signal - 1 do
        let s = r.ext_signal.(j) in
        ext.(j) <- (if s < 0 then Ternary.VX else Ternary.of_bool good.(s))
      done;
      w.solves <- w.solves + 1;
      fight := solve w r;
      detected := acyclic_detects ctx w r good !k
    end
    else begin
      (* Iterate while the propagated values feed back into the region's
         inputs.  From the second pass on, every external signal reads the
         previous pass's propagated value. *)
      let stable = ref false and iters = ref 0 in
      while (not !stable) && !iters < 8 do
        incr iters;
        let first = !iters = 1 in
        for j = 0 to Array.length r.ext_signal - 1 do
          let s = r.ext_signal.(j) in
          ext.(j) <-
            (if s < 0 then Ternary.VX
             else if first then Ternary.of_bool good.(s)
             else Cone.get cone s)
        done;
        for j = 0 to Array.length r.inputs - 1 do
          before.(j) <- (if first then -1 else observed cone r.inputs.(j))
        done;
        w.solves <- w.solves + 1;
        fight := solve w r;
        walk w r good;
        stable := true;
        for j = 0 to Array.length r.inputs - 1 do
          if observed cone r.inputs.(j) <> before.(j) then stable := false
        done
      done;
      if not !stable then w.feedback_capped <- w.feedback_capped + 1;
      detected := Cone.po_detects cone
    end;
    if !detected then begin
      if ctx.record then record_hit ctx w ~vector:!k fi;
      if !voltage < 0 then voltage := !k
    end;
    if r.iddq_candidate && !fight && !iddq < 0 then iddq := !k;
    (* Persist settled charges for the next vector. *)
    Array.blit w.out 0 w.charge 0 n_solved;
    let drops =
      match ctx.drop_when with
      | `Voltage -> !voltage >= 0
      | `Both -> !voltage >= 0 && !iddq >= 0
      | `Never -> false
    in
    if drops then k := n_vectors else incr k
  done;
  ctx.voltage_at.(fi) <- !voltage;
  ctx.iddq_at.(fi) <- !iddq

(* Open fault [fi].  An X seed is never detected: Kleene evaluation is
   monotone, so every node of its cone is X or its fault-free value and no
   output is ever definitely wrong; the floating gate draws current from
   the first vector.  A definite seed is a stuck-at that never draws
   current: a vector detects it when the seed's node takes a wrong value
   there and the node is observable. *)
let run_open ctx w o fi =
  let n_vectors = Array.length ctx.good in
  match o.policy with
  | Realistic.Floats_unknown -> if n_vectors > 0 then ctx.iddq_at.(fi) <- 0
  | Realistic.Floats_low | Realistic.Floats_high ->
      let pv = policy_value o.policy in
      let voltage = ref (-1) in
      let k = ref 0 in
      while !k < n_vectors do
        let good = ctx.good.(!k) in
        let v =
          if o.pin < 0 then pv
          else begin
            (* Re-evaluate the reading gate with the floating pin. *)
            let nd = ctx.circuit.nodes.(o.node) in
            let ins = w.ins.(Array.length nd.fanin) in
            for j = 0 to Array.length nd.fanin - 1 do
              ins.(j) <- Ternary.of_bool good.(nd.fanin.(j))
            done;
            ins.(o.pin) <- pv;
            Ternary.eval nd.kind ins
          end
        in
        if v != Ternary.of_bool good.(o.node) && observable ctx.obs ~node:o.node ~vector:!k
        then begin
          if ctx.record then record_hit ctx w ~vector:!k fi;
          if !voltage < 0 then voltage := !k
        end;
        if ctx.open_drops && !voltage >= 0 then k := n_vectors else incr k
      done;
      ctx.voltage_at.(fi) <- !voltage

(* The faults of one task, one after the other; each fault's state is
   released as soon as it is finished. *)
let run_task ctx w prepared task =
  Memo.clear w.memo;
  for j = 0 to Array.length task - 1 do
    let fi = task.(j) in
    (match prepared.(fi) with
    | Region r -> run_region ctx w r fi
    | Net_open o -> run_open ctx w o fi
    | Done -> ());
    prepared.(fi) <- Done
  done

(* One task per region shape, holding its faults in index order, larger
   shapes first; then one task per open. *)
let tasks prepared n_shapes =
  let members = Array.make n_shapes [] and opens = ref [] in
  for fi = Array.length prepared - 1 downto 0 do
    match prepared.(fi) with
    | Region r ->
        let id = Solver.shape_id r.shape in
        members.(id) <- fi :: members.(id)
    | Net_open _ | Done -> opens := [| fi |] :: !opens
  done;
  let shapes = Array.map Array.of_list members in
  Array.stable_sort (fun a b -> Int.compare (Array.length b) (Array.length a)) shapes;
  Array.append shapes (Array.of_list !opens)

(* The circuit nodes whose observability the run reads: the signals an
   acyclic region drives, and the node a definite open seeds. *)
let sites (c : Circuit.t) prepared =
  let site = Array.make (Circuit.node_count c) false in
  Array.iter
    (function
      | Region r when r.acyclic -> Array.iter (fun s -> site.(s) <- true) r.out_signal
      | Net_open o when o.policy <> Realistic.Floats_unknown -> site.(o.node) <- true
      | Region _ | Net_open _ | Done -> ())
    prepared;
  let nodes = ref [] in
  for n = Array.length site - 1 downto 0 do
    if site.(n) then nodes := n :: !nodes
  done;
  Array.of_list !nodes

let run ?(drop_when = `Both) ?on_voltage_detect ?memo_stats:stats ?domains ?pool net
    ~faults ~vectors =
  let m = Network.mapping net in
  let c = m.Mapping.circuit in
  let n_faults = Array.length faults in
  let prepared, n_shapes = lower_all net faults in
  let tasks = tasks prepared n_shapes in
  let n_tasks = Array.length tasks in
  let voltage_at = Array.make n_faults (-1) and iddq_at = Array.make n_faults (-1) in
  let good = good_values net vectors in
  let widest size =
    Array.fold_left
      (fun acc p -> match p with Region r -> max acc (size r) | Net_open _ | Done -> acc)
      0 prepared
  in
  let n_ext = widest (fun r -> Array.length r.ext_signal)
  and n_out = widest (fun r -> Solver.solved_count r.shape)
  and n_inputs = widest (fun r -> Array.length r.inputs) in
  let worker () =
    {
      ext = Array.make n_ext Ternary.VX;
      out = Array.make n_out Ternary.VX;
      charge = Array.make n_out Ternary.VX;
      ins = Array.init (max_fanin c + 1) (fun n -> Array.make n Ternary.VX);
      before = Array.make n_inputs 0;
      scratch = Solver.scratch ();
      cone = Cone.create c;
      memo = Memo.create ();
      hits = [||];
      n_hits = 0;
      solves = 0;
      full_hits = 0;
      ext_only_hits = 0;
      misses = 0;
      feedback_capped = 0;
      cone_walks = 0;
    }
  in
  (* Each pool worker claims tasks until none is left.  What outlives the
     pool is made before it starts or after it ends, for the reason
     [lower_all] gives. *)
  let work pool =
    let ctx =
      {
        circuit = c;
        good;
        obs = observability ~pool c ~nodes:(sites c prepared) ~vectors;
        drop_when;
        (* Under [`Both] a definite open would stay for an IDDQ detection
           that never comes, and only the callback could see its later
           voltage hits. *)
        open_drops =
          (match drop_when with
          | `Voltage -> true
          | `Both -> on_voltage_detect = None
          | `Never -> false);
        record = on_voltage_detect <> None;
        n_faults;
        voltage_at;
        iddq_at;
      }
    in
    let workers = Array.init (Parallel.size pool) (fun _ -> worker ()) in
    let cursor = Atomic.make 0 in
    Parallel.run pool ~tasks:(Array.length workers) (fun i ->
        let w = workers.(i) in
        let rec claim () =
          let t = Atomic.fetch_and_add cursor 1 in
          if t < n_tasks then begin
            run_task ctx w prepared tasks.(t);
            claim ()
          end
        in
        claim ());
    workers
  in
  let workers =
    match pool with
    | Some pool -> work pool
    | None ->
        let domains = Option.value domains ~default:(Parallel.default_domains ()) in
        Parallel.with_pool ~domains:(max 1 (min domains n_tasks)) work
  in
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 workers in
  (* Voltage hits replayed in the serial (vector, fault) order. *)
  Option.iter
    (fun callback ->
      let hits =
        Array.concat (Array.to_list (Array.map (fun w -> Array.sub w.hits 0 w.n_hits) workers))
      in
      Array.sort Int.compare hits;
      Array.iter
        (fun h -> callback ~fault_index:(h mod n_faults) ~vector_index:(h / n_faults))
        hits)
    on_voltage_detect;
  Option.iter
    (fun st ->
      st.shapes <- st.shapes + n_shapes;
      st.full_hits <- st.full_hits + sum (fun w -> w.full_hits);
      st.ext_only_hits <- st.ext_only_hits + sum (fun w -> w.ext_only_hits);
      st.misses <- st.misses + sum (fun w -> w.misses);
      st.rounds <- st.rounds + sum (fun w -> Solver.rounds w.scratch);
      st.feedback_capped <- st.feedback_capped + sum (fun w -> w.feedback_capped);
      st.rounds_capped <- st.rounds_capped + sum (fun w -> Solver.capped w.scratch);
      st.cone_walks <- st.cone_walks + sum (fun w -> w.cone_walks))
    stats;
  {
    detection =
      Array.init n_faults (fun fi ->
          { voltage = vector_opt voltage_at.(fi); iddq = vector_opt iddq_at.(fi) });
    vectors_applied = Array.length vectors;
    region_solves = sum (fun w -> w.solves);
  }

(* --- coverage projections ------------------------------------------------ *)

let voltage_firsts detection = Array.map (fun d -> d.voltage) detection

let weighted_coverage ~weights detection =
  Dl_fault.Coverage.make ~weights (voltage_firsts detection)

let unweighted_coverage detection =
  Dl_fault.Coverage.make (voltage_firsts detection)

let earliest a b =
  match (a, b) with
  | Some x, Some y -> Some (min x y)
  | Some x, None | None, Some x -> Some x
  | None, None -> None

let iddq_weighted_coverage ~weights detection =
  Dl_fault.Coverage.make ~weights
    (Array.map (fun d -> earliest d.voltage d.iddq) detection)

let signature net ~fault ~vectors =
  let fails = Array.make (Array.length vectors) false in
  let on_voltage_detect ~fault_index:_ ~vector_index = fails.(vector_index) <- true in
  let (_ : result) =
    run ~drop_when:`Never ~on_voltage_detect net ~faults:[| fault |] ~vectors
  in
  fails
