(* A deliberately buggy PPSFP engine for the harness's mutation self-test.

   [simulate_fault] and [run] below are a copy of the fault-simulation eval
   loop ([Fault_sim.Reference], the engine the wide engine is property-
   tested against), specialized to no-drop operation, with three marked
   single-line injection points.  [Pristine] compiles the copy back into a
   correct engine — the self-test uses it to prove that any counterexample
   found against a real mutation is caused by that mutation and not by
   drift in the copy. *)

open Dl_netlist
module Stuck_at = Dl_fault.Stuck_at
module Fault_sim = Dl_fault.Fault_sim

type mutation =
  | Pristine
      (* no mutation: must be indistinguishable from the real engines *)
  | Drop_fault_after_first_block
      (* fault dropping gone wrong: every fault is retired after the first
         64-vector block whether or not it was detected *)
  | Truncate_detection_word
      (* the per-block detection word loses its high half: detections by
         vectors 32..63 of a block are never observed *)

let all =
  [
    ("drop-after-first-block", Drop_fault_after_first_block);
    ("truncate-detection-word", Truncate_detection_word);
  ]

let to_string = function
  | Pristine -> "pristine"
  | Drop_fault_after_first_block -> "drop-after-first-block"
  | Truncate_detection_word -> "truncate-detection-word"

(* --- begin copied eval loop ------------------------------------------- *)

module Schedule = struct
  type t = {
    buckets : int list array;
    queued : bool array;
    mutable level : int;
    mutable remaining : int;
  }

  let create depth nodes =
    {
      buckets = Array.make (depth + 1) [];
      queued = Array.make nodes false;
      level = 0;
      remaining = 0;
    }

  let push t ~level id =
    if not t.queued.(id) then begin
      t.queued.(id) <- true;
      t.buckets.(level) <- id :: t.buckets.(level);
      if level < t.level then t.level <- level;
      t.remaining <- t.remaining + 1
    end

  let reset t = t.level <- 0

  let pop t =
    if t.remaining = 0 then None
    else begin
      while t.buckets.(t.level) = [] do
        t.level <- t.level + 1
      done;
      match t.buckets.(t.level) with
      | [] -> assert false
      | id :: rest ->
          t.buckets.(t.level) <- rest;
          t.queued.(id) <- false;
          t.remaining <- t.remaining - 1;
          Some id
    end
end

type scratch = {
  schedule : Schedule.t;
  faulty : int64 array;
  touched : bool array;
  mutable touched_list : int list;
}

let make_scratch (c : Circuit.t) =
  let n_nodes = Circuit.node_count c in
  {
    schedule = Schedule.create (Circuit.depth c) n_nodes;
    faulty = Array.make n_nodes 0L;
    touched = Array.make n_nodes false;
    touched_list = [];
  }

let simulate_fault (c : Circuit.t) st ~is_output ~good ~valid_mask
    (f : Stuck_at.t) =
  let touch id v =
    if not st.touched.(id) then begin
      st.touched.(id) <- true;
      st.touched_list <- id :: st.touched_list
    end;
    st.faulty.(id) <- v
  in
  let value_of id = if st.touched.(id) then st.faulty.(id) else good.(id) in
  let stuck_word = if Stuck_at.polarity_bool f.polarity then -1L else 0L in
  let detect_word = ref 0L in
  let seeded =
    match f.site with
    | Stuck_at.Stem id ->
        let diff =
          Int64.logand (Int64.logxor good.(id) stuck_word) valid_mask
        in
        if diff = 0L then false
        else begin
          touch id stuck_word;
          if is_output.(id) then detect_word := diff;
          Array.iter
            (fun succ -> Schedule.push st.schedule ~level:c.levels.(succ) succ)
            c.fanouts.(id);
          true
        end
    | Stuck_at.Branch { gate; pin } ->
        let nd = c.nodes.(gate) in
        let ins = Array.map (fun src -> good.(src)) nd.fanin in
        ins.(pin) <- stuck_word;
        let v = Gate.eval_word nd.kind ins in
        let diff = Int64.logand (Int64.logxor good.(gate) v) valid_mask in
        if diff = 0L then false
        else begin
          touch gate v;
          if is_output.(gate) then detect_word := diff;
          Array.iter
            (fun succ -> Schedule.push st.schedule ~level:c.levels.(succ) succ)
            c.fanouts.(gate);
          true
        end
  in
  if seeded then begin
    let rec drain () =
      match Schedule.pop st.schedule with
      | None -> ()
      | Some id ->
          let nd = c.nodes.(id) in
          let ins = Array.map value_of nd.fanin in
          (match f.site with
          | Stuck_at.Branch { gate; pin } when gate = id ->
              ins.(pin) <- stuck_word
          | _ -> ());
          let v = Gate.eval_word nd.kind ins in
          let forced =
            match f.site with
            | Stuck_at.Stem sid when sid = id -> stuck_word
            | _ -> v
          in
          let diff = Int64.logand (Int64.logxor good.(id) forced) valid_mask in
          if diff <> 0L || st.touched.(id) then begin
            touch id forced;
            if diff <> 0L then begin
              if is_output.(id) then detect_word := Int64.logor !detect_word diff;
              Array.iter
                (fun succ ->
                  Schedule.push st.schedule ~level:c.levels.(succ) succ)
                c.fanouts.(id)
            end
          end;
          drain ()
    in
    drain ();
    List.iter (fun id -> st.touched.(id) <- false) st.touched_list;
    st.touched_list <- [];
    Schedule.reset st.schedule
  end;
  !detect_word

let run mutation (c : Circuit.t) ~faults ~vectors : Fault_sim.result =
  let n_faults = Array.length faults in
  let first_detection = Array.make n_faults None in
  let live = Array.make n_faults true in
  let st = make_scratch c in
  let is_output = Array.make (Circuit.node_count c) false in
  Array.iter (fun o -> is_output.(o) <- true) c.outputs;
  let n_vectors = Array.length vectors in
  let n_blocks = (n_vectors + 63) / 64 in
  for block = 0 to n_blocks - 1 do
    let base = block * 64 in
    let count = min 64 (n_vectors - base) in
    let patterns = Array.sub vectors base count in
    let words = Dl_logic.Sim2.words_of_patterns c patterns in
    let good = Dl_logic.Sim2.run c words in
    let valid_mask =
      if count = 64 then -1L else Int64.sub (Int64.shift_left 1L count) 1L
    in
    for fi = 0 to n_faults - 1 do
      if live.(fi) then begin
        let dw = simulate_fault c st ~is_output ~good ~valid_mask faults.(fi) in
        (* MUTATION: mask out the high half of the detection word. *)
        let dw =
          if mutation = Truncate_detection_word then
            Int64.logand dw 0xFFFFFFFFL
          else dw
        in
        (match first_detection.(fi) with
        | None -> (
            match Fault_sim.lowest_set_bit dw with
            | Some bit -> first_detection.(fi) <- Some (base + bit)
            | None -> ())
        | Some _ -> ());
        (* MUTATION: retire every fault after block 0, detected or not. *)
        if mutation = Drop_fault_after_first_block then live.(fi) <- false
      end
    done
  done;
  { Fault_sim.faults; first_detection; vectors_applied = n_vectors;
    gate_evaluations = 0; stats = Fault_sim.Stats.zero }

(* --- end copied eval loop --------------------------------------------- *)
