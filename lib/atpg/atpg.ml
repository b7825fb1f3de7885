open Dl_netlist
module Stuck_at = Dl_fault.Stuck_at
module Fault_sim = Dl_fault.Fault_sim

type stats = {
  total_faults : int;
  random_detected : int;
  deterministic_detected : int;
  untestable : int;
  aborted : int;
  random_vectors : int;
  deterministic_vectors : int;
}

type result = {
  vectors : bool array array;
  stats : stats;
  coverage : float;
  untestable_faults : Stuck_at.t array;
  aborted_faults : Stuck_at.t array;
}

let run ?(seed = 7) ?(max_random = 4096) ?(stale_limit = 512)
    ?(backtrack_limit = 10_000) (c : Circuit.t) ~faults =
  let random = Random_gen.run ~seed ~max_vectors:max_random ~stale_limit c ~faults in
  let podem = Podem.compile ~scoap:(Scoap.compute c) c in
  let deterministic = ref [] in
  let det_count = ref 0 in
  let untestable = ref 0 in
  let aborted = ref 0 in
  let det_detected = ref 0 in
  let untestable_list = ref [] in
  let aborted_list = ref [] in
  let pending = ref (Array.to_list random.remaining) in
  while !pending <> [] do
    match !pending with
    | [] -> ()
    | target :: rest -> (
        match Podem.run ~backtrack_limit podem target with
        | Podem.Untestable ->
            incr untestable;
            untestable_list := target :: !untestable_list;
            pending := rest
        | Podem.Aborted ->
            incr aborted;
            aborted_list := target :: !aborted_list;
            pending := rest
        | Podem.Test vector ->
            deterministic := vector :: !deterministic;
            incr det_count;
            (* Drop every remaining fault this vector also detects. *)
            let remaining = Array.of_list rest in
            let r =
              Fault_sim.run c ~faults:(Array.append [| target |] remaining)
                ~vectors:[| vector |]
            in
            let kept = ref [] in
            Array.iteri
              (fun i d ->
                match d with
                | Some _ -> incr det_detected
                | None -> if i > 0 then kept := remaining.(i - 1) :: !kept)
              r.first_detection;
            (* The targeted fault is detected by construction; if the oracle
               ever disagreed we would still drop it to guarantee progress,
               reporting it as aborted. *)
            if r.first_detection.(0) = None then begin
              incr aborted;
              aborted_list := target :: !aborted_list
            end;
            pending := List.rev !kept)
  done;
  let det_vectors = Array.of_list (List.rev !deterministic) in
  let vectors = Array.append random.vectors det_vectors in
  let total_faults = Array.length faults in
  let undetected = !untestable + !aborted in
  let detected = total_faults - undetected in
  let coverage =
    if total_faults = 0 then 1.0
    else float_of_int detected /. float_of_int total_faults
  in
  {
    vectors;
    stats =
      {
        total_faults;
        random_detected = random.detected;
        deterministic_detected = !det_detected;
        untestable = !untestable;
        aborted = !aborted;
        random_vectors = Array.length random.vectors;
        deterministic_vectors = Array.length det_vectors;
      };
    coverage;
    untestable_faults = Array.of_list (List.rev !untestable_list);
    aborted_faults = Array.of_list (List.rev !aborted_list);
  }

let full_flow ?seed ?max_random c =
  let faults = Stuck_at.collapse c (Stuck_at.universe c) in
  let r = run ?seed ?max_random c ~faults in
  (r, faults)
