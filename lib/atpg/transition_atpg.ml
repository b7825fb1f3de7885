open Dl_netlist
module Transition = Dl_fault.Transition
module Stuck_at = Dl_fault.Stuck_at

type outcome = Pair of bool array * bool array | Untestable | Aborted

let launch_value (f : Transition.t) =
  match f.edge with Transition.Rise -> false | Transition.Fall -> true

let reduced_stuck (f : Transition.t) =
  match f.edge with
  | Transition.Rise -> { Stuck_at.site = Stuck_at.Stem f.node; polarity = Stuck_at.Sa0 }
  | Transition.Fall -> { Stuck_at.site = Stuck_at.Stem f.node; polarity = Stuck_at.Sa1 }

(* Find a vector setting [node] to [value]: cheap random probing first, then
   a PODEM run on the complementary stuck-at (whose activation forces the
   node to [value]). *)
let justify ~seed ?backtrack_limit podem (c : Circuit.t) ~node ~value =
  let rng = Dl_util.Rng.create seed in
  let npi = Circuit.input_count c in
  let rec probe tries =
    if tries = 0 then None
    else begin
      let v = Array.init npi (fun _ -> Dl_util.Rng.bool rng) in
      if (Dl_logic.Sim2.run_single c v).(node) = value then Some v else probe (tries - 1)
    end
  in
  match probe 128 with
  | Some v -> Some v
  | None -> (
      let complement =
        {
          Stuck_at.site = Stuck_at.Stem node;
          polarity = (if value then Stuck_at.Sa0 else Stuck_at.Sa1);
        }
      in
      match Podem.run ?backtrack_limit podem complement with
      | Podem.Test v -> Some v
      | Podem.Untestable | Podem.Aborted -> None)

let generate_in ~seed ?backtrack_limit podem (c : Circuit.t) (f : Transition.t) =
  match Podem.run ?backtrack_limit podem (reduced_stuck f) with
  | Podem.Untestable -> Untestable
  | Podem.Aborted -> Aborted
  | Podem.Test capture -> (
      match justify ~seed ?backtrack_limit podem c ~node:f.node ~value:(launch_value f) with
      | None -> Untestable
      | Some launch ->
          if Transition.detects_pair c f ~v1:launch ~v2:capture then
            Pair (launch, capture)
          else Aborted)

let generate ?(seed = 1) ?backtrack_limit ?scoap (c : Circuit.t) f =
  let scoap = match scoap with Some s -> s | None -> Scoap.compute c in
  generate_in ~seed ?backtrack_limit (Podem.compile ~scoap c) c f

type result = {
  pairs : (bool array * bool array) array;
  coverage : float;
  untestable : int;
  aborted : int;
}

let run ?(seed = 1) (c : Circuit.t) ~faults =
  let podem = Podem.compile ~scoap:(Scoap.compute c) c in
  let n = Array.length faults in
  let live = Array.make n true in
  let pairs = ref [] in
  let untestable = ref 0 and aborted = ref 0 and detected = ref 0 in
  for i = 0 to n - 1 do
    if live.(i) then begin
      match generate_in ~seed:(seed + i) podem c faults.(i) with
      | Untestable ->
          incr untestable;
          live.(i) <- false
      | Aborted ->
          incr aborted;
          live.(i) <- false
      | Pair (v1, v2) ->
          pairs := (v1, v2) :: !pairs;
          (* Two-pattern dropping: the pair may detect other live faults. *)
          for j = 0 to n - 1 do
            if live.(j) && Transition.detects_pair c faults.(j) ~v1 ~v2 then begin
              live.(j) <- false;
              incr detected
            end
          done
    end
  done;
  let coverage =
    if n = 0 then 1.0 else float_of_int !detected /. float_of_int n
  in
  { pairs = Array.of_list (List.rev !pairs); coverage; untestable = !untestable;
    aborted = !aborted }
