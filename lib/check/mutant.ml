(* Deliberately buggy PPSFP engines for the harness's mutation self-test.

   Each mutant is read off the full detection-event stream of the retained
   oracle ([Fault_sim.Reference.run ~drop_detected:false]), which fires
   every fault's detections in increasing vector order: a mutation is a
   filter on which events may count as a fault's first detection.  No
   engine code is duplicated here; [Pristine] (no filter) checks the
   derivation itself against the real engines. *)

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

(* Whether a detection by vector [v] survives the mutation. *)
let observed mutation v =
  match mutation with
  | Pristine -> true
  | Drop_fault_after_first_block -> v < 64
  | Truncate_detection_word -> v mod 64 < 32

let run mutation c ~faults ~vectors : Fault_sim.result =
  let first_detection = Array.make (Array.length faults) None in
  let on_detect ~fault_index ~vector_index =
    if first_detection.(fault_index) = None && observed mutation vector_index
    then first_detection.(fault_index) <- Some vector_index
  in
  ignore
    (Fault_sim.Reference.run ~drop_detected:false ~on_detect c ~faults
       ~vectors);
  { Fault_sim.faults; first_detection; vectors_applied = Array.length vectors;
    gate_evaluations = 0; stats = Fault_sim.Stats.zero }
