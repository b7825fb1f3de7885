open Dl_netlist
module Rng = Dl_util.Rng
module Stuck_at = Dl_fault.Stuck_at
module Fault_sim = Dl_fault.Fault_sim
module Podem = Dl_atpg.Podem
module Scoap = Dl_atpg.Scoap

type stats = {
  n : int;
  total_faults : int;
  untestable : int;
  aborted : int;
  under_quota : int;
  random_vectors : int;
  topup_vectors : int;
  final_vectors : int;
}

type result = {
  vectors : bool array array;
  counts : int array;
  stats : stats;
  untestable_faults : Stuck_at.t array;
  aborted_faults : Stuck_at.t array;
}

let vector_key (v : bool array) =
  String.init (Array.length v) (fun i -> if v.(i) then '\001' else '\000')

(* Full (no-drop) detection lists per vector: which fault indices each
   vector detects.  The O(faults * vectors) cost is what makes the greedy
   pass below exact rather than heuristic. *)
let detection_lists ?(engine = Fault_sim.Wide) c ~faults ~vectors =
  let per_vector = Array.make (Array.length vectors) [] in
  let totals = Array.make (Array.length faults) 0 in
  if Array.length faults > 0 && Array.length vectors > 0 then
    ignore
      (Fault_sim.run_with ~engine ~drop_detected:false
         ~on_detect:(fun ~fault_index ~vector_index ->
           per_vector.(vector_index) <- fault_index :: per_vector.(vector_index);
           totals.(fault_index) <- totals.(fault_index) + 1)
         c ~faults ~vectors);
  (per_vector, totals)

let compact_ndet ?engine (c : Circuit.t) ~faults ~vectors ~n =
  if n < 1 then invalid_arg "Atpg_n.compact_ndet: n must be >= 1";
  let n_faults = Array.length faults in
  let n_vectors = Array.length vectors in
  let per_vector, totals = detection_lists ?engine c ~faults ~vectors in
  let quota = Array.map (fun t -> min n t) totals in
  let kept_counts = Array.make n_faults 0 in
  let keep = Array.make n_vectors false in
  (* Reverse greedy: a vector is skipped only when every fault it detects
     already has its quota among the vectors kept so far, so each fault ends
     with at least [quota] kept detections. *)
  for v = n_vectors - 1 downto 0 do
    if List.exists (fun fi -> kept_counts.(fi) < quota.(fi)) per_vector.(v)
    then begin
      keep.(v) <- true;
      List.iter
        (fun fi -> kept_counts.(fi) <- kept_counts.(fi) + 1)
        per_vector.(v)
    end
  done;
  let kept = ref [] in
  for v = n_vectors - 1 downto 0 do
    if keep.(v) then kept := vectors.(v) :: !kept
  done;
  (* kept_counts counted every detection among kept vectors; report capped. *)
  (Array.of_list !kept, Array.map (fun k -> min n k) kept_counts)

let run ?(seed = 7) ?(max_random = 4096) ?(stale_limit = 512)
    ?(backtrack_limit = 10_000) ?(engine = Fault_sim.Wide) ~n (c : Circuit.t)
    ~faults =
  if n < 1 then invalid_arg "Atpg_n.run: n must be >= 1";
  if max_random < 0 then invalid_arg "Atpg_n.run: negative max_random";
  let rng = Rng.create seed in
  let npi = Array.length c.inputs in
  let n_faults = Array.length faults in
  let counts = Array.make n_faults 0 in
  let live_indices () =
    let acc = ref [] in
    for i = n_faults - 1 downto 0 do
      if counts.(i) < n then acc := i :: !acc
    done;
    Array.of_list !acc
  in
  (* Credit a block of vectors (global base index [base]) against the live
     faults, capping each fault at its quota. *)
  let credit ~base ~live block ~last_useful =
    let live_faults = Array.map (fun i -> faults.(i)) live in
    ignore
      (Fault_sim.run_with ~engine ~drop_detected:false
         ~on_detect:(fun ~fault_index ~vector_index ->
           let fi = live.(fault_index) in
           if counts.(fi) < n then begin
             counts.(fi) <- counts.(fi) + 1;
             let g = base + vector_index in
             if g + 1 > !last_useful then last_useful := g + 1
           end)
         c ~faults:live_faults ~vectors:block)
  in
  (* --- random phase with per-fault quotas -------------------------------- *)
  let all_blocks = ref [] in
  let applied = ref 0 in
  let last_useful = ref 0 in
  let stop = ref (n_faults = 0) in
  while (not !stop) && !applied < max_random do
    let count = min 64 (max_random - !applied) in
    let block =
      Array.init count (fun _ -> Array.init npi (fun _ -> Rng.bool rng))
    in
    let live = live_indices () in
    if Array.length live = 0 then stop := true
    else begin
      credit ~base:!applied ~live block ~last_useful;
      all_blocks := block :: !all_blocks;
      applied := !applied + count;
      if !applied - !last_useful >= stale_limit then stop := true;
      if Array.for_all (fun k -> k >= n) counts then stop := true
    end
  done;
  let random_vectors = Array.concat (List.rev !all_blocks) in
  (* --- PODEM top-up of under-quota faults -------------------------------- *)
  let podem = Podem.compile ~scoap:(Scoap.compute c) c in
  let seen = Hashtbl.create 1024 in
  Array.iter (fun v -> Hashtbl.replace seen (vector_key v) ()) random_vectors;
  let topup = ref [] in
  let topup_count = ref 0 in
  let untestable_list = ref [] in
  let aborted_list = ref [] in
  (* Fresh excitation: perturb the deterministic vector by flipping random
     bits, keeping only perturbations the dual-simulation oracle confirms
     still detect the target and that are distinct from every vector already
     in the set. *)
  let perturbations base_vector target deficit =
    let found = ref [] in
    let found_count = ref 0 in
    let attempts = ref 0 in
    let budget = 24 * deficit in
    while !found_count < deficit && !attempts < budget do
      incr attempts;
      let v = Array.copy base_vector in
      let flips = 1 + Rng.int rng (max 1 (npi / 4)) in
      for _ = 1 to flips do
        let b = Rng.int rng npi in
        v.(b) <- not v.(b)
      done;
      let key = vector_key v in
      if (not (Hashtbl.mem seen key)) && Fault_sim.detects_fault c target v
      then begin
        Hashtbl.replace seen key ();
        found := v :: !found;
        incr found_count
      end
    done;
    List.rev !found
  in
  for i = 0 to n_faults - 1 do
    if counts.(i) < n then begin
      let target = faults.(i) in
      match Podem.run ~backtrack_limit podem target with
      | Podem.Untestable ->
          if counts.(i) = 0 then untestable_list := target :: !untestable_list
      | Podem.Aborted ->
          if counts.(i) = 0 then aborted_list := target :: !aborted_list
      | Podem.Test vector ->
          let deficit = n - counts.(i) in
          let key = vector_key vector in
          let fresh =
            if Hashtbl.mem seen key then []
            else begin
              Hashtbl.replace seen key ();
              [ vector ]
            end
          in
          let need = deficit - List.length fresh in
          let fresh =
            if need > 0 then fresh @ perturbations vector target need
            else fresh
          in
          if fresh <> [] then begin
            let block = Array.of_list fresh in
            let live = live_indices () in
            (* Incidental credit: the new vectors count against every fault
               still short of quota, not just the target. *)
            credit ~base:(!applied + !topup_count) ~live block ~last_useful;
            List.iter (fun v -> topup := v :: !topup) fresh;
            topup_count := !topup_count + Array.length block
          end
    end
  done;
  let topup_vectors = Array.of_list (List.rev !topup) in
  let full = Array.append random_vectors topup_vectors in
  (* --- quota-preserving compaction --------------------------------------- *)
  let vectors, final_counts = compact_ndet ~engine c ~faults ~vectors:full ~n in
  let under_quota = ref 0 in
  Array.iter (fun k -> if k > 0 && k < n then incr under_quota) final_counts;
  {
    vectors;
    counts = final_counts;
    stats =
      {
        n;
        total_faults = n_faults;
        untestable = List.length !untestable_list;
        aborted = List.length !aborted_list;
        under_quota = !under_quota;
        random_vectors = Array.length random_vectors;
        topup_vectors = Array.length topup_vectors;
        final_vectors = Array.length vectors;
      };
    untestable_faults = Array.of_list (List.rev !untestable_list);
    aborted_faults = Array.of_list (List.rev !aborted_list);
  }
