open Dl_netlist
open Dl_fault
open Dl_ndet

let rng = Dl_util.Rng.create 4242

let random_vectors c n =
  Array.init n (fun _ ->
      Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng))

let universe c = Stuck_at.collapse c (Stuck_at.universe c)

(* --- run_ndet: n=1 equivalence with the dropping engines -------------------- *)

let test_n1_bit_identical () =
  List.iter
    (fun (name, c) ->
      let faults = universe c in
      let vectors = random_vectors c 300 in
      let baseline = Fault_sim.run ~drop_detected:true c ~faults ~vectors in
      List.iter
        (fun engine ->
          let events = ref [] in
          let nd =
            Fault_sim.run_ndet ~engine ~drop_after:1
              ~on_detect:(fun ~fault_index ~vector_index ->
                events := (fault_index, vector_index) :: !events)
              c ~faults ~vectors
          in
          let firsts = Fault_sim.ndet_first_detection nd in
          Array.iteri
            (fun i d ->
              Alcotest.(check (option int))
                (Printf.sprintf "%s/%s first_detection %d" name
                   (Fault_sim.engine_to_string engine)
                   i)
                baseline.first_detection.(i) d)
            firsts;
          (* counted events are exactly one per detected fault, at its
             first detection *)
          List.iter
            (fun (fi, vi) ->
              Alcotest.(check (option int)) "event = first" (Some vi)
                baseline.first_detection.(fi))
            !events;
          let detected =
            Array.fold_left
              (fun acc d -> if d <> None then acc + 1 else acc)
              0 baseline.first_detection
          in
          Alcotest.(check int) "one event per detected fault" detected
            (List.length !events))
        Fault_sim.engines)
    [ ("c17", Benchmarks.c17 ()); ("c432s", Benchmarks.c432s ()) ]

let test_ndet_counts_vs_nodrop_events () =
  (* counts at drop_after:n = min n (total detections), and the k-th
     detection indices match the full no-drop event stream *)
  let c = Benchmarks.c432s () in
  let faults = universe c in
  let vectors = random_vectors c 200 in
  let per_fault = Array.make (Array.length faults) [] in
  ignore
    (Fault_sim.run ~drop_detected:false
       ~on_detect:(fun ~fault_index ~vector_index ->
         per_fault.(fault_index) <- vector_index :: per_fault.(fault_index))
       c ~faults ~vectors);
  let per_fault = Array.map List.rev per_fault in
  List.iter
    (fun n ->
      let nd = Fault_sim.run_ndet ~drop_after:n c ~faults ~vectors in
      Array.iteri
        (fun i events ->
          let total = List.length events in
          Alcotest.(check int)
            (Printf.sprintf "count fault %d n %d" i n)
            (min n total) nd.Fault_sim.counts.(i);
          List.iteri
            (fun k v ->
              if k < n then
                Alcotest.(check int)
                  (Printf.sprintf "kth index fault %d k %d" i k)
                  v
                  nd.Fault_sim.detections.((i * n) + k))
            events)
        per_fault)
    [ 1; 2; 4; 8 ]

let test_ndet_engines_agree () =
  let c = Benchmarks.c880s () in
  let faults = universe c in
  let vectors = random_vectors c 300 in
  let reference = Fault_sim.run_ndet ~drop_after:4 c ~faults ~vectors in
  List.iter
    (fun engine ->
      let nd = Fault_sim.run_ndet ~engine ~drop_after:4 c ~faults ~vectors in
      Alcotest.(check (array int))
        (Fault_sim.engine_to_string engine ^ " counts")
        reference.Fault_sim.counts nd.Fault_sim.counts;
      Alcotest.(check (array int))
        (Fault_sim.engine_to_string engine ^ " detections")
        reference.Fault_sim.detections nd.Fault_sim.detections)
    Fault_sim.engines

let test_ndet_parallel_identical () =
  let c = Benchmarks.c432s () in
  let faults = universe c in
  let vectors = random_vectors c 256 in
  let serial = Fault_sim.run_ndet ~drop_after:4 c ~faults ~vectors in
  let par = Fault_sim.run_ndet ~domains:3 ~drop_after:4 c ~faults ~vectors in
  Alcotest.(check (array int)) "counts" serial.Fault_sim.counts
    par.Fault_sim.counts;
  Alcotest.(check (array int))
    "detections" serial.Fault_sim.detections par.Fault_sim.detections

(* A [domains] request wider than the universe is clamped to the fault
   count, as in [run_parallel]; an empty universe spawns nothing. *)
let test_ndet_pool_sized_to_faults () =
  let c = Benchmarks.c17 () in
  let faults = Array.sub (universe c) 0 3 in
  let vectors = random_vectors c 64 in
  let serial = Fault_sim.run_ndet ~drop_after:2 c ~faults ~vectors in
  let wide =
    Fault_sim.run_ndet ~domains:(Array.length faults + 3) ~drop_after:2 c
      ~faults ~vectors
  in
  Alcotest.(check (array int)) "counts" serial.Fault_sim.counts
    wide.Fault_sim.counts;
  Alcotest.(check (array int))
    "detections" serial.Fault_sim.detections wide.Fault_sim.detections;
  Alcotest.(check int) "gate evaluations" serial.Fault_sim.gate_evaluations
    wide.Fault_sim.gate_evaluations;
  let empty = Fault_sim.run_ndet ~domains:4 ~drop_after:2 c ~faults:[||] ~vectors in
  Alcotest.(check bool) "empty universe: zero profile" true
    (empty
    = { Fault_sim.drop_after = 2; counts = [||]; detections = [||];
        vectors_applied = 64; gate_evaluations = 0; stats = Fault_sim.Stats.zero })

let test_ndet_monotone_in_n () =
  (* the same vector set: counts at larger n dominate counts at smaller n,
     and the k-th detection indices for k <= n agree across n *)
  let c = Benchmarks.c880s () in
  let faults = universe c in
  let vectors = random_vectors c 200 in
  let profiles =
    List.map
      (fun n -> (n, Fault_sim.run_ndet ~drop_after:n c ~faults ~vectors))
      [ 1; 2; 4; 8 ]
  in
  let rec pairs = function
    | (n1, p1) :: ((n2, p2) :: _ as rest) ->
        ((n1, p1), (n2, p2)) :: pairs rest
    | _ -> []
  in
  List.iter
    (fun ((n1, p1), (_n2, p2)) ->
      Array.iteri
        (fun i k1 ->
          Alcotest.(check bool)
            (Printf.sprintf "count dominance fault %d" i)
            true
            (p2.Fault_sim.counts.(i) >= k1);
          for k = 1 to k1 do
            Alcotest.(check int)
              (Printf.sprintf "kth agrees fault %d k %d" i k)
              p1.Fault_sim.detections.((i * n1) + k - 1)
              p2.Fault_sim.detections.((i * p2.Fault_sim.drop_after) + k - 1)
          done)
        p1.Fault_sim.counts)
    (pairs profiles)

let test_ndet_invalid_args () =
  let c = Benchmarks.c17 () in
  let faults = universe c in
  let vectors = random_vectors c 8 in
  Alcotest.check_raises "drop_after 0"
    (Invalid_argument "Fault_sim.run_ndet: drop_after must be >= 1") (fun () ->
      ignore (Fault_sim.run_ndet ~drop_after:0 c ~faults ~vectors));
  let nd = Fault_sim.run_ndet ~drop_after:2 c ~faults ~vectors in
  Alcotest.check_raises "k out of range"
    (Invalid_argument "Fault_sim.ndet_kth_detection: k out of range")
    (fun () -> ignore (Fault_sim.ndet_kth_detection nd ~k:3))

(* --- Profile / Coverage with capped counts ---------------------------------- *)

let test_profile_coverage_n1_matches_single () =
  let c = Benchmarks.c432s () in
  let faults = universe c in
  let vectors = random_vectors c 256 in
  let nd = Fault_sim.run_ndet ~drop_after:8 c ~faults ~vectors in
  let single = Fault_sim.run ~drop_detected:true c ~faults ~vectors in
  let weights =
    Array.init (Array.length faults) (fun i -> 0.25 +. float_of_int (i mod 7))
  in
  List.iter
    (fun w ->
      let cov_n = Profile.coverage ?weights:w nd ~n:1 in
      let cov_1 = Coverage.make ?weights:w single.first_detection in
      Array.iter
        (fun k ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "T1(%d)" k)
            (Coverage.at cov_1 k) (Coverage.at cov_n k))
        (Coverage.log_spaced ~max:(Array.length vectors) ~points:40))
    [ None; Some weights ]

let test_profile_curves_monotone_in_n () =
  (* T_n(k) is pointwise non-increasing in n *)
  let c = Benchmarks.c880s () in
  let faults = universe c in
  let vectors = random_vectors c 300 in
  let nd = Fault_sim.run_ndet ~drop_after:8 c ~faults ~vectors in
  let ks = Coverage.log_spaced ~max:(Array.length vectors) ~points:30 in
  List.iter
    (fun (n_lo, n_hi) ->
      let lo = Profile.coverage nd ~n:n_lo in
      let hi = Profile.coverage nd ~n:n_hi in
      Array.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "T%d(%d) >= T%d(%d)" n_lo k n_hi k)
            true
            (Coverage.at lo k >= Coverage.at hi k))
        ks)
    [ (1, 2); (2, 4); (4, 8) ]

let test_profile_ties_at_same_vector () =
  (* several faults whose n-th detection lands on the same vector all step
     the curve at that vector *)
  let firsts = [| Some 3; Some 3; Some 3; None; Some 7 |] in
  let cov = Coverage.make firsts in
  Alcotest.(check (float 1e-12)) "before tie" 0.0 (Coverage.at cov 3);
  Alcotest.(check (float 1e-12)) "after tie" 0.6 (Coverage.at cov 4);
  Alcotest.(check (float 1e-12)) "final" 0.8 (Coverage.final cov)

let test_profile_n_exceeds_budget () =
  (* n larger than the vector budget: nobody reaches quota, coverage 0 *)
  let c = Benchmarks.c17 () in
  let faults = universe c in
  let vectors = random_vectors c 4 in
  let nd = Fault_sim.run_ndet ~drop_after:8 c ~faults ~vectors in
  Array.iter
    (fun k -> Alcotest.(check bool) "count <= budget" true (k <= 4))
    (Profile.counts nd);
  let cov = Profile.coverage nd ~n:8 in
  Alcotest.(check (float 1e-12)) "T8 final" 0.0 (Coverage.final cov);
  Alcotest.(check int) "none at 8" 0 (Profile.detected_at_least nd ~k:8)

(* --- Atpg_n ----------------------------------------------------------------- *)

let test_compact_preserves_quota () =
  let c = Benchmarks.c432s () in
  let faults = universe c in
  let vectors = random_vectors c 200 in
  List.iter
    (fun n ->
      let full = Fault_sim.run_ndet ~drop_after:n c ~faults ~vectors in
      let kept, counts = Atpg_n.compact_ndet c ~faults ~vectors ~n in
      Alcotest.(check bool) "shrinks or equal" true
        (Array.length kept <= Array.length vectors);
      let again = Fault_sim.run_ndet ~drop_after:n c ~faults ~vectors:kept in
      Array.iteri
        (fun i k ->
          Alcotest.(check int) (Printf.sprintf "reported count %d" i) k
            again.Fault_sim.counts.(i);
          Alcotest.(check bool)
            (Printf.sprintf "quota preserved fault %d" i)
            true
            (k >= full.Fault_sim.counts.(i)))
        counts)
    [ 1; 4 ]

let test_atpg_n_quotas () =
  let c = Benchmarks.c432s () in
  let faults = universe c in
  List.iter
    (fun n ->
      let r = Atpg_n.run ~seed:11 ~max_random:1024 ~n c ~faults in
      (* replay: the registered set really achieves the reported counts *)
      let nd =
        Fault_sim.run_ndet ~drop_after:n c ~faults ~vectors:r.Atpg_n.vectors
      in
      Alcotest.(check (array int)) "counts replay" nd.Fault_sim.counts
        r.Atpg_n.counts;
      Alcotest.(check int) "n recorded" n r.Atpg_n.stats.Atpg_n.n;
      (* every fault not proved untestable/aborted reaches its quota or is
         counted under_quota *)
      let short = ref 0 in
      Array.iter (fun k -> if k > 0 && k < n then incr short) r.Atpg_n.counts;
      Alcotest.(check int) "under_quota stat" !short
        r.Atpg_n.stats.Atpg_n.under_quota;
      let zero =
        Array.fold_left
          (fun acc k -> if k = 0 then acc + 1 else acc)
          0 r.Atpg_n.counts
      in
      Alcotest.(check bool) "zeros are untestable or aborted" true
        (zero
        <= Array.length r.Atpg_n.untestable_faults
           + Array.length r.Atpg_n.aborted_faults))
    [ 1; 2; 4 ]

let test_atpg_n_vectors_distinct_topup () =
  let c = Benchmarks.c880s () in
  let faults = universe c in
  let r = Atpg_n.run ~seed:3 ~max_random:512 ~n:4 c ~faults in
  Alcotest.(check int) "final = kept" r.Atpg_n.stats.Atpg_n.final_vectors
    (Array.length r.Atpg_n.vectors);
  Alcotest.(check bool) "some coverage" true
    (Array.exists (fun k -> k >= 4) r.Atpg_n.counts)

let () =
  Alcotest.run "ndet"
    [
      ( "run_ndet",
        [
          Alcotest.test_case "n1-bit-identical" `Quick test_n1_bit_identical;
          Alcotest.test_case "counts-vs-nodrop" `Quick
            test_ndet_counts_vs_nodrop_events;
          Alcotest.test_case "engines-agree" `Quick test_ndet_engines_agree;
          Alcotest.test_case "parallel-identical" `Quick
            test_ndet_parallel_identical;
          Alcotest.test_case "pool-sized-to-faults" `Quick
            test_ndet_pool_sized_to_faults;
          Alcotest.test_case "monotone-in-n" `Quick test_ndet_monotone_in_n;
          Alcotest.test_case "invalid-args" `Quick test_ndet_invalid_args;
        ] );
      ( "profile",
        [
          Alcotest.test_case "coverage-n1-matches-single" `Quick
            test_profile_coverage_n1_matches_single;
          Alcotest.test_case "curves-monotone-in-n" `Quick
            test_profile_curves_monotone_in_n;
          Alcotest.test_case "ties-at-same-vector" `Quick
            test_profile_ties_at_same_vector;
          Alcotest.test_case "n-exceeds-budget" `Quick
            test_profile_n_exceeds_budget;
        ] );
      ( "atpg_n",
        [
          Alcotest.test_case "compact-preserves-quota" `Quick
            test_compact_preserves_quota;
          Alcotest.test_case "atpg-n-quotas" `Quick test_atpg_n_quotas;
          Alcotest.test_case "distinct-topup" `Quick
            test_atpg_n_vectors_distinct_topup;
        ] );
    ]
