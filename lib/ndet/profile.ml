module Fault_sim = Dl_fault.Fault_sim
module Coverage = Dl_fault.Coverage

type t = Fault_sim.ndet

let max_n (t : t) = t.drop_after
let counts (t : t) = t.counts
let kth_firsts (t : t) ~k = Fault_sim.ndet_kth_detection t ~k

let detected_at_least (t : t) ~k =
  if k < 1 || k > t.drop_after then
    invalid_arg "Profile.detected_at_least: k out of range";
  Array.fold_left (fun acc c -> if c >= k then acc + 1 else acc) 0 t.counts

let coverage ?weights (t : t) ~n = Coverage.make ?weights (kth_firsts t ~k:n)
let final_coverage ?weights (t : t) ~n = Coverage.final (coverage ?weights t ~n)
