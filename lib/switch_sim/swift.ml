open Dl_netlist
module Ternary = Dl_logic.Ternary
module Sim2 = Dl_logic.Sim2
module Cone = Dl_logic.Propagate.Cone
module Mapping = Dl_cell.Mapping

type detection = { voltage : int option; iddq : int option }

type result = {
  faults : Realistic.t array;
  detection : detection array;
  vectors_applied : int;
  region_solves : int;
}

(* --- shared helpers ------------------------------------------------------- *)

let signal_of (m : Mapping.network) g =
  let n_signals = Circuit.node_count m.circuit in
  if g >= 2 && g < 2 + n_signals then Some (g - 2) else None

let owners net nodes =
  List.sort_uniq compare
    (List.filter_map (fun g -> Network.owner_instance net g) nodes)

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
        region_of (owners net [ node_a; node_b ])
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
    { faults; detection; vectors_applied = n_vectors; region_solves = !region_solves }
end

(* --- compiled engine ------------------------------------------------------- *)

(* Solve memo of one region shape: open addressing from packed solve
   inputs to packed outcomes, both non-negative ints. *)
module Memo = struct
  type t = { mutable keys : int array; mutable vals : int array; mutable count : int }

  let create () = { keys = [||]; vals = [||]; count = 0 }

  (* The slot holding [k], or the empty slot where it goes. *)
  let slot keys k =
    let mask = Array.length keys - 1 in
    let h = k * 0x2545F4914F6CDD1D in
    let i = ref ((h lxor (h lsr 29)) land mask) in
    while keys.(!i) <> k && keys.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    !i

  let find t k =
    if t.count = 0 then -1
    else
      let i = slot t.keys k in
      if t.keys.(i) = k then t.vals.(i) else -1

  let rec add t k v =
    if 2 * (t.count + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (max 8 (2 * Array.length keys)) (-1);
      t.vals <- Array.make (Array.length t.keys) 0;
      t.count <- 0;
      Array.iteri (fun i k -> if k >= 0 then add t k vals.(i)) keys
    end;
    let i = slot t.keys k in
    t.keys.(i) <- k;
    t.vals.(i) <- v;
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
  charge : Ternary.t array;  (* per solved node: last settled value *)
  iddq_candidate : bool;
}

type prepared =
  | Region of region
  | Net_open of {
      seeds : [ `Stem of int | `Pin of int * int ] list;
      policy : Realistic.float_policy;
    }
  | Dropped

let prepare lowering net (f : Realistic.t) =
  let m = Network.mapping net in
  let signal g = match signal_of m g with Some c -> c | None -> -1 in
  let region_of instances modification ~iddq_candidate =
    let cr = Solver.lower lowering ~instances ~modifications:[ modification ] in
    let solved = Solver.solved_nodes cr in
    let outs =
      List.filter (fun (_, c) -> c >= 0)
        (List.mapi (fun i g -> (i, signal g)) (Array.to_list solved))
    in
    let inputs =
      List.concat_map
        (fun ii ->
          let inst = m.Mapping.instances.(ii) in
          Array.to_list m.circuit.nodes.(inst.gate_id).fanin)
        instances
      |> List.sort_uniq compare
    in
    Region
      {
        shape = Solver.shape cr;
        ext_signal = Array.map signal (Solver.external_nodes cr);
        out_index = Array.of_list (List.map fst outs);
        out_signal = Array.of_list (List.map snd outs);
        inputs = Array.of_list inputs;
        charge = Array.make (Array.length solved) Ternary.VX;
        iddq_candidate;
      }
  in
  match f.kind with
  | Realistic.Bridge { node_a; node_b } ->
      region_of (owners net [ node_a; node_b ])
        (Solver.Bridge_nodes { node_a; node_b })
        ~iddq_candidate:true
  | Realistic.Transistor_stuck_open ti ->
      region_of [ m.Mapping.transistors.(ti).instance ]
        (Solver.Remove_transistor ti) ~iddq_candidate:false
  | Realistic.Transistor_stuck_on ti ->
      region_of [ m.Mapping.transistors.(ti).instance ]
        (Solver.Short_transistor ti) ~iddq_candidate:true
  | Realistic.Input_open { gate; pin; policy } ->
      Net_open { seeds = [ `Pin (gate, pin) ]; policy }
  | Realistic.Stem_open { node; policy } ->
      Net_open { seeds = [ `Stem node ]; policy }

let shape_ids net faults =
  let lowering = Solver.lowering net in
  Array.map
    (fun f ->
      match prepare lowering net f with
      | Region r -> Solver.shape_id r.shape
      | Net_open _ | Dropped -> -1)
    faults

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

let with_charge r k n_charged =
  let k = ref k in
  for i = 0 to n_charged - 1 do
    k := (!k lsl 2) lor code r.charge.(i)
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
}

let memo_stats () = { shapes = 0; full_hits = 0; ext_only_hits = 0; misses = 0 }

(* What [Propagate.run]'s map holds for a node: -1 when absent. *)
let observed cone id = if Cone.mem cone id then code (Cone.get cone id) else -1

let run ?(drop_when = `Both) ?on_voltage_detect ?memo_stats:stats net ~faults ~vectors =
  let m = Network.mapping net in
  let c = m.Mapping.circuit in
  let n_faults = Array.length faults in
  let detection = Array.make n_faults { voltage = None; iddq = None } in
  let lowering = Solver.lowering net in
  let prepared = Array.map (prepare lowering net) faults in
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
    if done_ then begin
      live.(fi) <- false;
      prepared.(fi) <- Dropped
    end
  in
  (* One memo per shape, shared by its faults for the whole run. *)
  let memos = Array.init (Solver.shape_count lowering) (fun _ -> Memo.create ()) in
  let full_hits = ref 0 and ext_only_hits = ref 0 and misses = ref 0 in
  (* One scratch per run, sized for the widest region. *)
  let widest size =
    Array.fold_left
      (fun acc p -> match p with Region r -> max acc (size r) | _ -> acc)
      0 prepared
  in
  let ext = Array.make (widest (fun r -> Array.length r.ext_signal)) Ternary.VX in
  let out = Array.make (widest (fun r -> Array.length r.charge)) Ternary.VX in
  let before = Array.make (widest (fun r -> Array.length r.inputs)) 0 in
  let scratch = Solver.scratch () in
  let cone = Cone.create c in
  (* An ext-only entry answers for any charge, so it is probed first;
     a solve that read no charge is stored only under its ext-only key. *)
  let solve r =
    let shape = r.shape in
    let n = Array.length r.charge in
    if not (memoised shape) then begin
      incr misses;
      Solver.solve_compiled shape scratch ~ext ~charge:r.charge ~out
    end
    else begin
      let memo = memos.(Solver.shape_id shape) in
      let n_charged = Solver.charged_count shape in
      let k = pack_ext r ext in
      let ext_key = ext_only_key k n_charged in
      let hit = Memo.find memo ext_key in
      if hit >= 0 then begin
        incr ext_only_hits;
        unpack_outcome hit out n
      end
      else begin
        let key = if n_charged = 0 then ext_key else with_charge r k n_charged in
        let hit = if n_charged = 0 then -1 else Memo.find memo key in
        if hit >= 0 then begin
          incr full_hits;
          unpack_outcome hit out n
        end
        else begin
          incr misses;
          let fight = Solver.solve_compiled shape scratch ~ext ~charge:r.charge ~out in
          let key = if Solver.read_charge scratch then key else ext_key in
          Memo.add memo key (pack_outcome out n fight);
          fight
        end
      end
    end
  in
  for k = 0 to n_vectors - 1 do
    let good = good_per_vector.(k) in
    for fi = 0 to n_faults - 1 do
      if live.(fi) then begin
        let voltage_hit = ref false and iddq_hit = ref false in
        (match prepared.(fi) with
        | Dropped -> ()
        | Net_open { seeds; policy } ->
            let pv = policy_value policy in
            Cone.start cone good;
            List.iter
              (function
                | `Stem node -> Cone.seed cone node pv
                | `Pin (gate, pin) ->
                    (* Re-evaluate the reading gate with the floating pin. *)
                    let nd = c.nodes.(gate) in
                    let ins = Array.map (fun s -> Ternary.of_bool good.(s)) nd.fanin in
                    ins.(pin) <- pv;
                    Cone.seed cone gate (Ternary.eval nd.kind ins))
              seeds;
            Cone.propagate cone;
            if Cone.po_detects cone then voltage_hit := true;
            if policy = Realistic.Floats_unknown then iddq_hit := true
        | Region r ->
            (* Iterate while the propagated values feed back into the
               region's inputs.  From the second pass on, every external
               signal reads the previous pass's propagated value. *)
            let stable = ref false and iters = ref 0 and fight = ref false in
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
              incr region_solves;
              fight := solve r;
              Cone.start cone good;
              for j = 0 to Array.length r.out_signal - 1 do
                Cone.seed cone r.out_signal.(j) out.(r.out_index.(j))
              done;
              Cone.propagate cone;
              stable := true;
              for j = 0 to Array.length r.inputs - 1 do
                if observed cone r.inputs.(j) <> before.(j) then stable := false
              done
            done;
            if Cone.po_detects cone then voltage_hit := true;
            if r.iddq_candidate && !fight then iddq_hit := true;
            (* Persist settled charges for the next vector. *)
            Array.blit out 0 r.charge 0 (Array.length r.charge));
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
  Option.iter
    (fun st ->
      st.shapes <- st.shapes + Solver.shape_count lowering;
      st.full_hits <- st.full_hits + !full_hits;
      st.ext_only_hits <- st.ext_only_hits + !ext_only_hits;
      st.misses <- st.misses + !misses)
    stats;
  { faults; detection; vectors_applied = n_vectors; region_solves = !region_solves }

(* --- coverage projections ------------------------------------------------ *)

let weights_of r = Array.map (fun (f : Realistic.t) -> f.weight) r.faults

let weighted_coverage r =
  Dl_fault.Coverage.make ~weights:(weights_of r)
    (Array.map (fun d -> d.voltage) r.detection)

let unweighted_coverage r =
  Dl_fault.Coverage.make (Array.map (fun d -> d.voltage) r.detection)

let earliest a b =
  match (a, b) with
  | Some x, Some y -> Some (min x y)
  | Some x, None | None, Some x -> Some x
  | None, None -> None

let iddq_weighted_coverage r =
  Dl_fault.Coverage.make ~weights:(weights_of r)
    (Array.map (fun d -> earliest d.voltage d.iddq) r.detection)


let signature net ~fault ~vectors =
  let fails = Array.make (Array.length vectors) false in
  let on_voltage_detect ~fault_index:_ ~vector_index = fails.(vector_index) <- true in
  let (_ : result) =
    run ~drop_when:`Never ~on_voltage_detect net ~faults:[| fault |] ~vectors
  in
  fails
