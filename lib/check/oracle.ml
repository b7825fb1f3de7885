(* The oracle registry: every engine pair (or higher-level invariant) the
   harness knows how to cross-check.  Case checks run once per generated
   {!Testcase}; sweep checks are self-contained (numeric sweeps, or the
   cached-pipeline differential) and run once per harness invocation. *)

open Dl_netlist
module Sim2 = Dl_logic.Sim2
module Sim3 = Dl_logic.Sim3
module Ternary = Dl_logic.Ternary
module Propagate = Dl_logic.Propagate
module Fault_sim = Dl_fault.Fault_sim
module Experiment = Dl_core.Experiment
module Stage = Dl_store.Stage

type kind =
  | Case of (Testcase.t -> string option)
  | Sweep of (seed:int -> string option)

type t = { name : string; doc : string; kind : kind }

let failf fmt = Printf.ksprintf (fun s -> Some s) fmt

(* --- sim2-flat: reference word simulator vs flat CSR kernel ------------- *)

(* Per 256-vector block, each 64-vector sub-word of [run_flat4] against
   [Sim2.run] on the same vectors; bits past a ragged tail are masked. *)
let sim2_flat (case : Testcase.t) =
  let c = case.Testcase.circuit in
  let n = Array.length case.vectors in
  if n = 0 then None
  else begin
    let k = Kernel.of_circuit c in
    let buf = Kernel.create_words4 k in
    let n_blocks = (n + 255) / 256 in
    let rec block b =
      if b >= n_blocks then None
      else begin
        Sim2.load_patterns4 k buf case.vectors ~base:(b * 256)
          ~count:(min 256 (n - (b * 256)));
        Sim2.run_flat4 k buf;
        let rec sub w =
          let base = (b * 256) + (w * 64) in
          if w = 4 || base >= n then block (b + 1)
          else begin
            let count = min 64 (n - base) in
            let reference =
              Sim2.run c
                (Sim2.words_of_patterns c (Array.sub case.vectors base count))
            in
            let mask =
              if count = 64 then -1L
              else Int64.sub (Int64.shift_left 1L count) 1L
            in
            let rec node id =
              if id >= Circuit.node_count c then sub (w + 1)
              else
                let r = Int64.logand reference.(id) mask in
                let f = Int64.logand buf.{(4 * id) + w} mask in
                if r <> f then
                  failf
                    "Sim2.run vs run_flat4: node %s block %d sub-word %d \
                     (vectors %d..%d): %Lx vs %Lx"
                    (Circuit.name c id) b w base
                    (base + count - 1)
                    r f
                else node (id + 1)
            in
            node 0
          end
        in
        sub 0
      end
    in
    block 0
  end

(* --- fault-sim: wide engine vs reference, serial and parallel ----------- *)

(* Pin the production engine ([run], [run_parallel]: [Wide]) bit-identical
   to the serial [Reference] engine, serial and on 2- and 3-domain pools:
   first detections and [on_detect] event streams, both drop modes.
   Counters are not compared — not evaluating gates is the wide engine's
   point. *)
let fault_sim_agreement (case : Testcase.t) =
  let { Testcase.circuit = c; vectors; faults; _ } = case in
  let run_engine f =
    let events = ref [] in
    let on_detect ~fault_index ~vector_index =
      events := (fault_index, vector_index) :: !events
    in
    let r = f ~on_detect in
    (r, List.rev !events)
  in
  let engines drop =
    [
      ( "reference",
        fun () ->
          run_engine (fun ~on_detect ->
              Fault_sim.run_with ~engine:Reference ~drop_detected:drop
                ~on_detect c ~faults ~vectors) );
      ( "wide",
        fun () ->
          run_engine (fun ~on_detect ->
              Fault_sim.run ~drop_detected:drop ~on_detect c ~faults ~vectors)
      );
      ( "wide-parallel-2",
        fun () ->
          run_engine (fun ~on_detect ->
              Fault_sim.run_parallel ~domains:2 ~drop_detected:drop ~on_detect
                c ~faults ~vectors) );
      ( "wide-parallel-3",
        fun () ->
          run_engine (fun ~on_detect ->
              Fault_sim.run_parallel ~domains:3 ~drop_detected:drop ~on_detect
                c ~faults ~vectors) );
    ]
  in
  let check_mode drop =
    match engines drop with
    | [] -> None
    | (base_name, base_run) :: rest ->
        let base_r, base_ev = base_run () in
        let rec compare_engines = function
          | [] -> None
          | (name, run) :: rest -> (
              let r, ev = run () in
              let mismatch =
                Array.to_list
                  (Array.mapi
                     (fun i d ->
                       if d <> base_r.Fault_sim.first_detection.(i) then Some i
                       else None)
                     r.Fault_sim.first_detection)
                |> List.find_opt Option.is_some |> Option.join
              in
              match mismatch with
              | Some i ->
                  failf
                    "%s vs %s (drop=%b): fault %s first-detected at %s vs %s"
                    base_name name drop
                    (Dl_fault.Stuck_at.to_string c faults.(i))
                    (match base_r.Fault_sim.first_detection.(i) with
                    | Some d -> string_of_int d
                    | None -> "never")
                    (match r.Fault_sim.first_detection.(i) with
                    | Some d -> string_of_int d
                    | None -> "never")
              | None ->
                  if ev <> base_ev then
                    failf
                      "%s vs %s (drop=%b): on_detect event streams differ \
                       (%d vs %d events)"
                      base_name name drop (List.length base_ev)
                      (List.length ev)
                  else compare_engines rest)
        in
        compare_engines rest
  in
  (* A pool wider than the fault universe (clamped at spawn time): run
     a small fault subset against a deliberately oversized request. *)
  let check_oversized_pool () =
    if Array.length faults = 0 then None
    else begin
      let sub = Array.sub faults 0 (min 3 (Array.length faults)) in
      let serial = Fault_sim.run ~drop_detected:false c ~faults:sub ~vectors in
      let oversized =
        Fault_sim.run_parallel
          ~domains:(Array.length sub + 5)
          ~drop_detected:false c ~faults:sub ~vectors
      in
      if oversized.Fault_sim.first_detection <> serial.Fault_sim.first_detection
      then
        failf
          "run_parallel with pool wider than the %d-fault subset disagrees \
           with run"
          (Array.length sub)
      else None
    end
  in
  match check_mode true with
  | Some _ as f -> f
  | None -> (
      match check_mode false with
      | Some _ as f -> f
      | None -> check_oversized_pool ())

(* --- event-propagate: cone propagation vs Sim2 --------------------------- *)

(* Each vector is reached from the previous one (all-zero inputs before the
   first) by propagating only the changed inputs' cones; every node must
   then equal a full [Sim2] evaluation, with no X on binary inputs. *)
let event_propagate (case : Testcase.t) =
  let c = case.Testcase.circuit in
  let n_nodes = Circuit.node_count c in
  let prev_inputs = ref (Array.make (Circuit.input_count c) false) in
  let prev = ref (Sim2.run_single c !prev_inputs) in
  let rec step vi =
    if vi >= Array.length case.vectors then None
    else begin
      let v = case.vectors.(vi) in
      let seeds =
        Array.to_list
          (Array.mapi
             (fun i id ->
               if v.(i) <> !prev_inputs.(i) then
                 Some (id, Ternary.of_bool v.(i))
               else None)
             c.inputs)
        |> List.filter_map Fun.id
      in
      let diff = Propagate.run c !prev seeds in
      let full = Sim2.run_single c v in
      let rec node id =
        if id >= n_nodes then begin
          prev := full;
          prev_inputs := v;
          step (vi + 1)
        end
        else
          let expected =
            match Hashtbl.find_opt diff id with
            | Some t -> Ternary.to_bool t
            | None -> Some !prev.(id)
          in
          match expected with
          | None ->
              failf "Propagate produced X at node %s on binary inputs \
                     (vector %d)"
                (Circuit.name c id) vi
          | Some b ->
              if b <> full.(id) then
                failf "Propagate vs Sim2: vector %d node %s: %b vs %b" vi
                  (Circuit.name c id) b full.(id)
              else node (id + 1)
      in
      node 0
    end
  in
  step 0

(* --- sim3-binary: ternary simulator restricted to binary inputs --------- *)

let sim3_binary (case : Testcase.t) =
  let c = case.Testcase.circuit in
  let n_nodes = Circuit.node_count c in
  let rec step vi =
    if vi >= Array.length case.vectors then None
    else begin
      let v = case.vectors.(vi) in
      let tern = Sim3.run c (Array.map Ternary.of_bool v) in
      let bin = Sim2.run_single c v in
      let rec node id =
        if id >= n_nodes then step (vi + 1)
        else if not (Ternary.equal tern.(id) (Ternary.of_bool bin.(id))) then
          failf "Sim3 vs Sim2 on binary inputs: vector %d node %s: %c vs %b"
            vi (Circuit.name c id)
            (Ternary.to_char tern.(id))
            bin.(id)
        else node (id + 1)
      in
      node 0
    end
  in
  step 0

(* --- experiment-cache: cached vs uncached pipeline ---------------------- *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* The closure of each core stage, in stage-key order: written out from
   the paper's flow, independently of the table that derives it. *)
let core_closures =
  let sim = [ "mapping"; "atpg"; "fault-universe"; "fault-sim" ] in
  [
    ("mapping", [ "mapping" ]);
    ("atpg", [ "mapping"; "atpg" ]);
    ("fault-universe", [ "mapping"; "atpg"; "fault-universe" ]);
    ("fault-sim", sim);
    ("layout-ifa", [ "mapping"; "layout-ifa" ]);
    ("swift", [ "mapping"; "atpg"; "layout-ifa"; "swift" ]);
    ("projection", sim @ [ "layout-ifa"; "swift"; "projection" ]);
  ]

let experiment_cache ~seed =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dlcheck-cache-%d-%d" (Unix.getpid ()) (abs seed))
  in
  let stage_dir = Filename.concat dir "run-stage" in
  Fun.protect
    ~finally:(fun () -> try remove_tree dir with Sys_error _ -> ())
    (fun () ->
      let circuit = Benchmarks.c432s_small () in
      let cfg cache_dir =
        Experiment.config ~seed:(7 + (abs seed land 7)) ~max_random_vectors:64
          ~domains:1 ?cache_dir circuit
      in
      let plain = Experiment.run (cfg None) in
      let cold = Experiment.run (cfg (Some dir)) in
      let warm = Experiment.run (cfg (Some dir)) in
      let outcomes (e : Experiment.t) want =
        List.for_all
          (fun (r : Stage.report) -> r.outcome = want)
          e.stage_reports
      in
      if plain.summary <> cold.summary then
        failf "uncached vs cold cached Experiment.run: summaries differ"
      else if cold.summary <> warm.summary then
        failf "cold vs warm cached Experiment.run: summaries differ"
      else if plain.fit <> cold.fit || cold.fit <> warm.fit then
        failf "cached vs uncached Experiment.run: fitted (R, θmax) differ"
      else if
        plain.t_curve <> cold.t_curve
        || cold.t_curve <> warm.t_curve
        || cold.theta_curve <> warm.theta_curve
        || cold.gamma_curve <> warm.gamma_curve
      then failf "cached vs uncached Experiment.run: coverage curves differ"
      else if not (outcomes cold Stage.Miss) then
        failf "cold cached run: expected every stage to Miss"
      else if not (outcomes warm Stage.Hit) then
        failf "warm cached run: expected every stage to Hit"
      else
        (* One core stage (picked by the seed) through [run_stage] on a
           fresh store, then a full run: the run hits exactly that stage's
           closure and computes the rest, every key being [stage_keys]'s. *)
        let keys = Experiment.stage_keys (cfg None) in
        let stage = fst (List.nth keys (abs seed mod List.length keys)) in
        let staged = Experiment.run_stage (cfg (Some stage_dir)) ~stage in
        let after = Experiment.run (cfg (Some stage_dir)) in
        let closure = List.assoc stage core_closures in
        let seen =
          List.map (fun (r : Stage.report) -> (r.stage, r.key, r.outcome))
        in
        let want names outcome =
          List.map (fun s -> (s, List.assoc s keys, outcome s)) names
        in
        let hit s = if List.mem s closure then Stage.Hit else Stage.Miss in
        if seen staged <> want closure (fun _ -> Stage.Miss) then
          failf "run_stage %s on a fresh store: expected its closure, all \
                 misses, under stage_keys" stage
        else if seen after.stage_reports <> want (List.map fst keys) hit then
          failf "run after run_stage %s: expected hits on exactly its \
                 closure, under stage_keys" stage
        else if after.summary <> plain.summary then
          failf "run after run_stage %s: summary differs" stage
        else None)

(* --- serve-loopback: served answer vs direct Experiment.run ------------- *)

(* Differential oracle for the serving layer: a job answered over the
   Unix-socket loopback must be bit-identical to a direct in-process
   [Experiment.run] of the same config, and the immediate resubmission of
   the same job must coalesce (no second execution). *)
let serve_loopback ~seed =
  let socket =
    Dl_serve.Transport.Unix_socket
      (Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "dlcheck-serve-%d-%d.sock" (Unix.getpid ()) (abs seed)))
  in
  let cfg =
    Dl_serve.Server.config ~workers:1 ~domains_per_worker:1 ~listen:socket ()
  in
  let server = Dl_serve.Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Dl_serve.Server.stop server)
    (fun () ->
      let job_seed = 7 + (abs seed land 7) in
      let spec =
        Dl_serve.Protocol.job_spec ~seed:job_seed ~max_random_vectors:64
          (Dl_serve.Protocol.Builtin "c432s_small")
      in
      Dl_serve.Client.with_client socket @@ fun client ->
      let first = Dl_serve.Client.submit client spec in
      let direct =
        Experiment.run
          (Experiment.config ~seed:job_seed ~max_random_vectors:64 ~domains:1
             (Benchmarks.c432s_small ()))
      in
      let expect =
        Dl_serve.Protocol.payload_of_experiment
          ~key:(Experiment.request_key direct.cfg) direct
      in
      match first with
      | Dl_serve.Protocol.Result served ->
          (* stage hit/miss bookkeeping may legitimately differ between a
             cacheless served run and the direct run; everything the paper
             derives from the experiment must not *)
          let strip (p : Dl_serve.Protocol.result_payload) =
            { p with stage_hits = 0; stage_misses = 0 }
          in
          if strip served.payload <> strip expect then
            failf "served c432s_small answer differs from direct Experiment.run"
          else (
            match Dl_serve.Client.submit client spec with
            | Dl_serve.Protocol.Result again ->
                if not again.coalesced then
                  failf "identical resubmission was executed, not coalesced"
                else if strip again.payload <> strip expect then
                  failf "coalesced answer differs from the first"
                else None
            | other ->
                failf "resubmission: unexpected reply %s"
                  (match other with
                  | Dl_serve.Protocol.Rejected _ -> "Rejected"
                  | Dl_serve.Protocol.Expired -> "Expired"
                  | Dl_serve.Protocol.Server_error m -> "Server_error: " ^ m
                  | _ -> "Pong/Stats"))
      | Dl_serve.Protocol.Server_error m -> failf "server error: %s" m
      | _ -> failf "submit: unexpected reply kind")

(* Differential oracle for the cluster: a job relayed by the coordinator
   through a TCP worker fleet must be bit-identical to a direct
   in-process Experiment.run, and resubmitting the same job directly to
   the worker that did NOT execute it must be served entirely from the
   distributed store (fetch-through; no stage recomputed). *)
let serve_cluster ~seed =
  let module P = Dl_serve.Protocol in
  let module T = Dl_serve.Transport in
  let module W = Dl_cluster.Worker in
  let tmp tag =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dlcheck-cluster-%d-%d-%s" (Unix.getpid ()) (abs seed)
           tag)
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let dir1 = tmp "w1" and dir2 = tmp "w2" in
  let loopback = T.Tcp ("127.0.0.1", 0) in
  let w1 =
    W.start ~workers:1 ~domains_per_worker:1 ~cache_dir:dir1 ~listen:loopback
      ()
  in
  let w2 =
    W.start ~workers:1 ~domains_per_worker:1 ~cache_dir:dir2 ~listen:loopback
      ()
  in
  let fleet = [ W.bound w1; W.bound w2 ] in
  List.iter (fun w -> W.set_peers w fleet) [ w1; w2 ];
  let coord =
    Dl_cluster.Coord.start
      (Dl_cluster.Coord.config ~probe_period_s:0.2 ~listen:loopback
         ~workers:fleet ())
  in
  Fun.protect
    ~finally:(fun () ->
      Dl_cluster.Coord.stop coord;
      List.iter W.stop [ w1; w2 ];
      List.iter (fun d -> try remove_tree d with Sys_error _ -> ())
        [ dir1; dir2 ])
    (fun () ->
      let job_seed = 7 + (abs seed land 7) in
      let spec =
        P.job_spec ~seed:job_seed ~max_random_vectors:64
          (P.Builtin "c432s_small")
      in
      let direct =
        Experiment.run
          (Experiment.config ~seed:job_seed ~max_random_vectors:64 ~domains:1
             (Benchmarks.c432s_small ()))
      in
      let expect =
        Dl_serve.Protocol.payload_of_experiment
          ~key:(Experiment.request_key direct.cfg) direct
      in
      let strip (p : P.result_payload) =
        { p with P.stage_hits = 0; stage_misses = 0 }
      in
      let submit_to endpoint =
        Dl_serve.Client.with_client endpoint (fun c ->
            Dl_serve.Client.submit c spec)
      in
      match submit_to (Dl_cluster.Coord.bound coord) with
      | P.Result served when strip served.P.payload <> strip expect ->
          failf "cluster answer differs from direct Experiment.run"
      | P.Result _ -> (
          (* The coordinator hashed the job to one worker; the other one
             has none of its artifacts locally and must assemble the same
             answer purely from peer fetches. *)
          let resubmits =
            List.map
              (fun w ->
                match submit_to (W.bound w) with
                | P.Result served -> Ok served
                | P.Server_error m -> Error ("server error: " ^ m)
                | P.Rejected _ -> Error "rejected"
                | _ -> Error "unexpected reply kind")
              [ w1; w2 ]
          in
          match
            List.find_map (function Error e -> Some e | Ok _ -> None)
              resubmits
          with
          | Some e -> failf "direct resubmission: %s" e
          | None -> (
              let served =
                List.filter_map
                  (function Ok (s : P.served) -> Some s | Error _ -> None)
                  resubmits
              in
              match
                List.filter (fun (s : P.served) -> not s.P.coalesced) served
              with
              | [] ->
                  failf
                    "no worker executed the resubmission (both claim to \
                     have run the original)"
              | fresh ->
                  List.fold_left
                    (fun acc (s : P.served) ->
                      if acc <> None then acc
                      else if strip s.P.payload <> strip expect then
                        failf "cross-worker answer differs from direct run"
                      else if s.P.payload.P.stage_misses <> 0 then
                        failf
                          "cross-worker resubmission recomputed %d stage(s) \
                           instead of hitting the distributed store"
                          s.P.payload.P.stage_misses
                      else acc)
                    None fresh))
      | P.Server_error m -> failf "cluster submit: server error: %s" m
      | _ -> failf "cluster submit: unexpected reply kind")

(* --- mc-poisson-limit: Wafer_mc at infinite alphas vs closed form ------- *)

module Seeds = Dl_util.Seeds
module Rng = Dl_util.Rng
module Weighted = Dl_core.Weighted
module Clustered = Dl_core.Clustered
module Wafer_mc = Dl_core.Wafer_mc
module Bootstrap = Dl_core.Bootstrap

(* A synthetic weighted fault universe with known coverage labels: [n]
   faults, weights scaled so the Poisson yield is exactly [target_yield],
   first detections uniform over the vector budget with a fixed
   never-detected fraction.  Returns the scaled weights, the firsts and
   the [(k, theta(k))] grid the MC bands are evaluated on. *)
let synthetic_universe rng ~n ~n_vectors ~target_yield ~points =
  let raw = Array.init n (fun _ -> Rng.float_in rng 0.2 1.0) in
  let weights, _scale = Weighted.scale_to_yield ~weights:raw ~target_yield in
  let firsts =
    Array.init n (fun _ ->
        if Rng.bernoulli rng 0.15 then None else Some (Rng.int rng n_vectors))
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let theta_at k =
    let detected = ref 0.0 in
    Array.iteri
      (fun j first ->
        match first with
        | Some v when v < k -> detected := !detected +. weights.(j)
        | _ -> ())
      firsts;
    !detected /. total
  in
  let grid =
    Array.init points (fun i ->
        let k = (i + 1) * n_vectors / points in
        (k, theta_at k))
  in
  (weights, firsts, grid)

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let stddev a =
  let m = mean a in
  let s = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 a in
  sqrt (s /. float_of_int (max 1 (Array.length a - 1)))

(* Standard error of the pooled DL estimate from the per-wafer spread —
   valid for clustered runs too, where dies within a wafer are correlated
   and the plain binomial error underestimates. *)
let band_tolerance (b : Wafer_mc.band) =
  let wafers = Array.length b.wafer_dls in
  if wafers < 2 then 0.05
  else (5.0 *. stddev b.wafer_dls /. sqrt (float_of_int wafers)) +. 1e-4

let mc_poisson_limit ~seed =
  let target_yield = 0.75 in
  let n_vectors = 512 in
  let seeds = Seeds.scope (Seeds.create (9000 + abs seed)) "mc-poisson" in
  let rng = Seeds.stream seeds "universe" in
  let weights, firsts, grid =
    synthetic_universe rng ~n:300 ~n_vectors ~target_yield ~points:6
  in
  let m =
    Wafer_mc.simulate
      ~seeds:(Seeds.scope seeds "sim")
      ~dies:40_000 ~weights ~firsts ~points:grid ()
  in
  let y = Wafer_mc.observed_yield m in
  if abs_float (y -. target_yield) > 0.011 then
    failf "mc-poisson-limit: observed yield %.4f vs Poisson %.4f" y
      target_yield
  else
    Array.fold_left
      (fun acc (b : Wafer_mc.band) ->
        if acc <> None then acc
        else
          let closed =
            Weighted.defect_level ~yield:target_yield ~theta:b.coverage
          in
          let tol = band_tolerance b in
          if abs_float (b.dl_point -. closed) > tol then
            failf
              "mc-poisson-limit: k=%d theta=%.4f: MC DL %.5f vs closed form \
               %.5f (tol %.5f)"
              b.k b.coverage b.dl_point closed tol
          else if not (b.dl_q05 <= b.dl_q50 && b.dl_q50 <= b.dl_q95) then
            failf "mc-poisson-limit: k=%d: quantiles not ordered" b.k
          else acc)
      None m.bands

(* --- mc-clustered-consistency: single-level MC vs negative binomial ----- *)

let mc_clustered_consistency ~seed =
  let target_yield = 0.75 in
  let n_vectors = 512 in
  let seeds = Seeds.scope (Seeds.create (9100 + abs seed)) "mc-clustered" in
  let rng = Seeds.stream seeds "universe" in
  let weights, firsts, grid =
    synthetic_universe rng ~n:300 ~n_vectors ~target_yield ~points:4
  in
  let lambda = Array.fold_left ( +. ) 0.0 weights in
  let rec alphas = function
    | [] -> None
    | alpha :: rest -> (
        (* Single clustering level: wafer severities gamma(alpha)/alpha,
           lots Poisson — the per-die marginal is the negative binomial
           with mean [lambda] and clustering [alpha]. *)
        let m =
          Wafer_mc.simulate ~alpha_wafer:alpha
            ~seeds:(Seeds.scope seeds (Printf.sprintf "sim-a%g" alpha))
            ~dies:40_000 ~weights ~firsts ~points:grid ()
        in
        let yield_nb = (1.0 +. (lambda /. alpha)) ** -.alpha in
        let y = Wafer_mc.observed_yield m in
        let y_tol =
          (* wafer-correlated pass/fail: use the per-wafer spread of the
             defective fraction via the widest band's sample count *)
          5.0 *. sqrt (yield_nb *. (1.0 -. yield_nb) /. float_of_int m.wafers)
        in
        if abs_float (y -. yield_nb) > y_tol then
          failf
            "mc-clustered-consistency: alpha=%g observed yield %.4f vs NB \
             %.4f (tol %.4f)"
            alpha y yield_nb y_tol
        else
          let err =
            Array.fold_left
              (fun acc (b : Wafer_mc.band) ->
                if acc <> None then acc
                else
                  let closed =
                    Clustered.defect_level ~yield:yield_nb ~alpha
                      ~coverage:b.coverage
                  in
                  let tol = band_tolerance b in
                  if abs_float (b.dl_point -. closed) > tol then
                    failf
                      "mc-clustered-consistency: alpha=%g k=%d theta=%.4f: \
                       MC DL %.5f vs clustered closed form %.5f (tol %.5f)"
                      alpha b.k b.coverage b.dl_point closed tol
                  else acc)
              None m.bands
          in
          if err <> None then err else alphas rest)
  in
  alphas [ 0.5; 2.0; 10.0 ]

(* --- bootstrap-coverage: CI coverage on synthetic eq. 9 truth ----------- *)

(* Draw fault populations whose expected coverage curves follow eq. 9
   exactly — T(k) = k/n uniform stuck firsts, realistic firsts by inverting
   theta(T) = theta_max (1 - (1-T)^R) — then check that the 90% bootstrap
   intervals cover the truth in most trials.  With 12 trials at nominal
   0.9 coverage, P[fewer than 7 hits] < 1e-4 even allowing for small-sample
   undercoverage, so the bound is robust yet discriminating. *)
let bootstrap_coverage ~seed =
  let r_true = 1.5 and tmax_true = 0.9 in
  let n_vectors = 1024 and n_faults = 300 in
  let trials = 12 and replicates = 60 in
  let seeds = Seeds.scope (Seeds.create (9200 + abs seed)) "bootstrap-cov" in
  let run_trial i =
    let rng = Seeds.stream seeds (Printf.sprintf "trial-%d" i) in
    let t_firsts =
      Array.init n_faults (fun _ -> Some (Rng.int rng n_vectors))
    in
    let theta_firsts =
      Array.init n_faults (fun _ ->
          let u = Rng.float rng 1.0 in
          if u >= tmax_true then None
          else
            let t = 1.0 -. ((1.0 -. (u /. tmax_true)) ** (1.0 /. r_true)) in
            Some
              (min (n_vectors - 1)
                 (int_of_float (t *. float_of_int n_vectors))))
    in
    let theta_weights = Array.make n_faults 1.0 in
    let b =
      Bootstrap.run ~fit_points:40
        ~seeds:(Seeds.scope seeds (Printf.sprintf "boot-%d" i))
        ~replicates ~yield:0.75 ~t_firsts ~theta_firsts ~theta_weights
        ~n_vectors ()
    in
    (Bootstrap.contains b.r r_true, Bootstrap.contains b.theta_max tmax_true)
  in
  let r_hits = ref 0 and tmax_hits = ref 0 in
  for i = 0 to trials - 1 do
    let r_in, tmax_in = run_trial i in
    if r_in then incr r_hits;
    if tmax_in then incr tmax_hits
  done;
  if !r_hits < 7 then
    failf "bootstrap-coverage: R=%.2f covered in only %d/%d trials" r_true
      !r_hits trials
  else if !tmax_hits < 7 then
    failf "bootstrap-coverage: thetamax=%.2f covered in only %d/%d trials"
      tmax_true !tmax_hits trials
  else None

(* --- ndet-1detect: multi-detect at quota 1 vs the dropping engines ------ *)

module Dl_n = Dl_core.Dl_n
module Ndet_profile = Dl_ndet.Profile

(* The drop-invariance lemma made checkable: at [drop_after:1] the chunked
   multi-detect driver must be bit-identical to [drop_detected:true] on
   every engine — same firsts, and the n = 1 coverage curve equal (as a
   value) to the one the single-detection flow builds. *)
let ndet_one_detect (case : Testcase.t) =
  let { Testcase.circuit = c; vectors; faults; _ } = case in
  if Array.length vectors = 0 || Array.length faults = 0 then None
  else
    let rec engines = function
      | [] -> None
      | engine :: rest ->
          let single =
            Fault_sim.run_with ~engine ~drop_detected:true c ~faults ~vectors
          in
          let nd = Fault_sim.run_ndet ~engine ~drop_after:1 c ~faults ~vectors in
          let firsts = Fault_sim.ndet_first_detection nd in
          let rec fault i =
            if i >= Array.length faults then
              if
                Ndet_profile.coverage nd ~n:1
                <> Dl_fault.Coverage.make single.first_detection
              then
                failf "ndet-1detect [%s]: n=1 coverage curve differs"
                  (Fault_sim.engine_to_string engine)
              else engines rest
            else if firsts.(i) <> single.first_detection.(i) then
              failf
                "ndet-1detect [%s]: fault %d first detection %s vs %s"
                (Fault_sim.engine_to_string engine)
                i
                (match firsts.(i) with
                 | None -> "never" | Some v -> string_of_int v)
                (match single.first_detection.(i) with
                 | None -> "never" | Some v -> string_of_int v)
            else if nd.counts.(i) <> (if firsts.(i) = None then 0 else 1) then
              failf "ndet-1detect [%s]: fault %d count %d inconsistent"
                (Fault_sim.engine_to_string engine)
                i nd.counts.(i)
            else fault (i + 1)
          in
          fault 0
    in
    engines Fault_sim.engines

(* --- ndet-monotone: count and coverage monotonicity across quotas ------- *)

(* Detection of one fault is independent of which other faults are still
   live, so a lower quota is a pure truncation of a higher one: counts at
   quota 2 must equal [min counts4 2], the first two detection indices must
   agree, indices must be strictly increasing in k, and the T_n curves
   pointwise non-increasing in n. *)
let ndet_monotone (case : Testcase.t) =
  let { Testcase.circuit = c; vectors; faults; _ } = case in
  let n_vectors = Array.length vectors in
  if n_vectors = 0 || Array.length faults = 0 then None
  else
    let nd2 = Fault_sim.run_ndet ~drop_after:2 c ~faults ~vectors in
    let nd4 = Fault_sim.run_ndet ~drop_after:4 c ~faults ~vectors in
    let rec fault i =
      if i >= Array.length faults then None
      else if nd2.counts.(i) <> min nd4.counts.(i) 2 then
        failf "ndet-monotone: fault %d counts %d@2 vs %d@4" i nd2.counts.(i)
          nd4.counts.(i)
      else
        let rec kth k prev =
          if k > 4 then fault (i + 1)
          else
            let at4 = (Fault_sim.ndet_kth_detection nd4 ~k).(i) in
            (if k <= 2 then
               let at2 = (Fault_sim.ndet_kth_detection nd2 ~k).(i) in
               if at2 <> at4 then
                 failf "ndet-monotone: fault %d k=%d index differs across \
                        quotas" i k
               else None
             else None)
            |> function
            | Some _ as err -> err
            | None -> (
                match (prev, at4) with
                | Some p, Some v when v <= p ->
                    failf
                      "ndet-monotone: fault %d detection indices not \
                       increasing (k=%d: %d after %d)"
                      i k v p
                | Some _, None | None, None -> kth (k + 1) prev
                | _, _ -> kth (k + 1) at4)
        in
        kth 1 None
    in
    match fault 0 with
    | Some _ as err -> err
    | None ->
        let curves =
          Array.map (fun n -> Ndet_profile.coverage nd4 ~n) [| 1; 2; 3; 4 |]
        in
        let ks = Dl_fault.Coverage.log_spaced ~max:n_vectors ~points:12 in
        Array.fold_left
          (fun acc k ->
            if acc <> None then acc
            else
              let rec level j =
                if j >= Array.length curves - 1 then None
                else
                  let hi = Dl_fault.Coverage.at curves.(j) k
                  and lo = Dl_fault.Coverage.at curves.(j + 1) k in
                  if lo > hi +. 1e-12 then
                    failf
                      "ndet-monotone: T_%d(%d) = %.6f exceeds T_%d(%d) = %.6f"
                      (j + 2) k lo (j + 1) k hi
                  else level (j + 1)
              in
              level 0)
          None ks

(* --- ndet-dl-monotone: DL(n) table non-increasing at the shared target -- *)

(* [Dl_n.analyze] is curve-agnostic in its theta argument, so a synthetic
   weighted stand-in built from the profile's own firsts exercises the
   whole table construction cheaply: dl_at_target must be non-increasing
   and k_at_target non-decreasing in n, every row reaching t_star. *)
let ndet_dl_monotone (case : Testcase.t) =
  let { Testcase.circuit = c; vectors; faults; seed } = case in
  let n_vectors = Array.length vectors in
  if n_vectors = 0 || Array.length faults = 0 then None
  else
    let nd = Fault_sim.run_ndet ~drop_after:4 c ~faults ~vectors in
    let rng = Rng.create (0x9DE7 + abs seed) in
    let weights =
      Array.init (Array.length faults) (fun _ -> Rng.float_in rng 0.1 1.0)
    in
    let theta_curve =
      Dl_fault.Coverage.make ~weights (Fault_sim.ndet_first_detection nd)
    in
    let table =
      Dl_n.analyze ~ns:[| 1; 2; 4 |] ~fit_points:24 ~profile:nd ~theta_curve
        ~yield:0.75 ~n_vectors ()
    in
    let rows = table.Dl_n.rows in
    let rec row j =
      if j >= Array.length rows then None
      else
        let r = rows.(j) in
        if r.Dl_n.final_t < table.Dl_n.t_star -. 1e-12 then
          failf "ndet-dl-monotone: row n=%d final T %.6f below t* %.6f"
            r.Dl_n.n r.Dl_n.final_t table.Dl_n.t_star
        else if
          j > 0 && r.Dl_n.dl_at_target > rows.(j - 1).Dl_n.dl_at_target +. 1e-12
        then
          failf
            "ndet-dl-monotone: DL@T* increased from %.6f (n=%d) to %.6f \
             (n=%d)"
            rows.(j - 1).Dl_n.dl_at_target
            rows.(j - 1).Dl_n.n r.Dl_n.dl_at_target r.Dl_n.n
        else if j > 0 && r.Dl_n.k_at_target < rows.(j - 1).Dl_n.k_at_target
        then
          failf
            "ndet-dl-monotone: k@T* decreased from %d (n=%d) to %d (n=%d)"
            rows.(j - 1).Dl_n.k_at_target
            rows.(j - 1).Dl_n.n r.Dl_n.k_at_target r.Dl_n.n
        else row (j + 1)
    in
    row 0

(* --- swift-reference: compiled switch-level engine vs Swift.Reference ---- *)

module Swift = Dl_switch.Swift

(* The case's circuit through the realistic-fault flow (decompose, flatten,
   synthesize, inductive fault analysis), then the compiled engine against
   the retained reference in every drop mode, serially and on a pool of
   two domains (whose memo counters must equal the serial run's), plus one
   fault's tester signature.  The reference costs tens of microseconds per
   region solve, so only the first 24 vectors are simulated, on two fault
   sets: at most 32 faults (a stride over the extracted list), and the
   first 16 faults of each of the three most common region shapes, where
   one fault's memo entries are read by the others (a shape can have
   hundreds of faults).
   Both depend only on the case, so a failure shrinks like any other. *)
let swift_reference (case : Testcase.t) =
  let vectors =
    Array.sub case.Testcase.vectors 0 (min 24 (Array.length case.vectors))
  in
  let m = Dl_cell.Mapping.flatten (Transform.decompose_for_cells case.circuit) in
  let net = Dl_switch.Network.build m in
  let all = (Dl_extract.Ifa.extract (Dl_layout.Layout.synthesize m)).faults in
  let stride = max 1 ((Array.length all + 31) / 32) in
  let strided =
    Array.init ((Array.length all + stride - 1) / stride) (fun i -> all.(i * stride))
  in
  let shared =
    let ids = Swift.shape_ids net all in
    let sizes = Hashtbl.create 64 in
    Array.iter
      (fun id ->
        if id >= 0 then
          Hashtbl.replace sizes id (1 + Option.value ~default:0 (Hashtbl.find_opt sizes id)))
      ids;
    let common =
      Hashtbl.fold (fun id size acc -> (-size, id) :: acc) sizes []
      |> List.sort compare
      |> List.filteri (fun i (size, _) -> i < 3 && size <= -2)
      |> List.map snd
    in
    let taken = Hashtbl.create 3 in
    List.filter_map
      (fun i ->
        let id = ids.(i) in
        let n = Option.value ~default:0 (Hashtbl.find_opt taken id) in
        if List.mem id common && n < 16 then begin
          Hashtbl.replace taken id (n + 1);
          Some all.(i)
        end
        else None)
      (List.init (Array.length all) Fun.id)
    |> Array.of_list
  in
  let first = function Some k -> string_of_int k | None -> "never" in
  let rec modes set faults = function
    | [] -> None
    | (name, drop_when) :: rest -> (
        let slow = Swift.Reference.run ~drop_when net ~faults ~vectors in
        let engine domains =
          let stats = Swift.memo_stats () in
          let r = Swift.run ~drop_when ~memo_stats:stats ~domains net ~faults ~vectors in
          (r, stats)
        in
        let check (fast : Swift.result) engine_name =
          let differs = ref None in
          Array.iteri
            (fun i (d : Swift.detection) ->
              if !differs = None && d <> slow.detection.(i) then differs := Some i)
            fast.detection;
          match !differs with
          | Some i ->
              failf
                "swift-reference (%s, drop %s, %s): fault %s detected at voltage %s / \
                 iddq %s vs reference %s / %s"
                set name engine_name
                (Dl_switch.Realistic.describe faults.(i))
                (first fast.detection.(i).voltage) (first fast.detection.(i).iddq)
                (first slow.detection.(i).voltage) (first slow.detection.(i).iddq)
          | None ->
              if fast.region_solves <> slow.region_solves then
                failf "swift-reference (%s, drop %s, %s): region_solves %d vs reference %d"
                  set name engine_name fast.region_solves slow.region_solves
              else None
        in
        let serial, serial_stats = engine 1 and pooled, pooled_stats = engine 2 in
        match check serial "serial" with
        | Some _ as err -> err
        | None -> (
            match check pooled "2 domains" with
            | Some _ as err -> err
            | None ->
                if serial_stats <> pooled_stats then
                  failf "swift-reference (%s, drop %s): memo counters differ on 2 domains"
                    set name
                else modes set faults rest))
  in
  let all_modes = [ ("both", `Both); ("voltage", `Voltage); ("never", `Never) ] in
  match modes "strided" strided all_modes with
  | Some _ as err -> err
  | None -> (
      match modes "common shapes" shared all_modes with
      | Some _ as err -> err
      | None ->
          if Array.length strided = 0 then None
          else
            let fault = strided.(abs case.seed mod Array.length strided) in
            let want = Array.make (Array.length vectors) false in
            let (_ : Swift.result) =
              Swift.Reference.run ~drop_when:`Never
                ~on_voltage_detect:(fun ~fault_index:_ ~vector_index ->
                  want.(vector_index) <- true)
                net ~faults:[| fault |] ~vectors
            in
            if Swift.signature net ~fault ~vectors <> want then
              failf "swift-reference: signature of %s differs from the reference"
                (Dl_switch.Realistic.describe fault)
            else None)

(* --- podem-reference: compiled PODEM vs Podem.Reference ------------------ *)

(* Every collapsed fault of the case's circuit after cell decomposition,
   once at a backtrack limit of 100 and once at 3, so searches both finish
   and abort into the restarts with randomized backtrace.  At the default
   limit of 10,000 the reference spends seconds on one 60-gate case (long
   untestability proofs, five full searches per abort), which would crowd
   the other checks out of the harness's time budget; the tests and the
   bench [atpg] section compare at the default limit.  One compiled
   context serves every fault, as in a flow. *)
let podem_reference (case : Testcase.t) =
  let module Podem = Dl_atpg.Podem in
  let c = Transform.decompose_for_cells case.Testcase.circuit in
  let faults = Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c) in
  let scoap = Dl_atpg.Scoap.compute c in
  let ctx = Podem.compile ~scoap c in
  let show = function
    | Podem.Test v ->
        "test " ^ String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')
    | Podem.Untestable -> "untestable"
    | Podem.Aborted -> "aborted"
  in
  let rec limits = function
    | [] -> None
    | backtrack_limit :: rest ->
        let rec fault i =
          if i >= Array.length faults then limits rest
          else
            let f = faults.(i) in
            let fast = Podem.run ~backtrack_limit ctx f in
            let slow = Podem.Reference.generate ~backtrack_limit ~scoap c f in
            if fast <> slow then
              failf "podem-reference (backtrack limit %d): fault %s: %s vs reference %s"
                backtrack_limit (Dl_fault.Stuck_at.to_string c f) (show fast)
                (show slow)
            else fault (i + 1)
        in
        fault 0
  in
  limits [ 100; 3 ]

(* --- projection-reference: fast coverage curves and fits vs Reference ---- *)

module Coverage = Dl_fault.Coverage
module Projection = Dl_core.Projection

(* The case's real first detections, as T(k) (unit weights) and as a
   weighted curve with random weights spanning twelve decades (so the order
   in which equal-index events are summed shows in the rounding), through
   {!Coverage.make} and [Coverage.Reference.make]: [at] at every k,
   [detections_in_order] and [final], bit for bit.  Then both eq. 9 fits of
   the sampled (T, Θ) points against [Projection.Reference]: fitted R, θmax
   and rmse, bit for bit. *)
let projection_reference (case : Testcase.t) =
  let firsts =
    (Fault_sim.run case.Testcase.circuit ~faults:case.faults ~vectors:case.vectors)
      .first_detection
  in
  let rng = Dl_util.Rng.create case.seed in
  let weights =
    Array.map (fun _ -> Dl_util.Rng.log_uniform rng 1e-9 1e3) firsts
  in
  let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
  let n_vectors = Array.length case.vectors in
  let curve name ?weights () =
    let fast = Coverage.make ?weights firsts
    and slow = Coverage.Reference.make ?weights firsts in
    let rec at k =
      if k > n_vectors + 1 then None
      else if not (same (Coverage.at fast k) (Coverage.Reference.at slow k)) then
        failf "projection-reference (%s): at %d: %h vs reference %h" name k
          (Coverage.at fast k) (Coverage.Reference.at slow k)
      else at (k + 1)
    in
    match at 0 with
    | Some _ as err -> (err, fast)
    | None ->
        let fd = Coverage.detections_in_order fast
        and sd = Coverage.Reference.detections_in_order slow in
        if
          Array.length fd <> Array.length sd
          || not (Array.for_all2 (fun (k, v) (k', v') -> k = k' && same v v') fd sd)
        then (failf "projection-reference (%s): detections_in_order differs" name, fast)
        else if not (same (Coverage.final fast) (Coverage.Reference.final slow)) then
          (failf "projection-reference (%s): final differs" name, fast)
        else (None, fast)
  in
  let fit_differs name (a : Projection.fit) (b : Projection.fit) =
    if
      same a.params.r b.params.r
      && same a.params.theta_max b.params.theta_max
      && same a.rmse b.rmse
    then None
    else
      failf "projection-reference (%s): (R %h, θmax %h, rmse %h) vs reference (%h, %h, %h)"
        name a.params.r a.params.theta_max a.rmse b.params.r b.params.theta_max b.rmse
  in
  match curve "T" () with
  | (Some _ as err), _ -> err
  | None, t -> (
      match curve "weighted" ~weights () with
      | (Some _ as err), _ -> err
      | None, theta when n_vectors >= 1 -> (
          let points =
            Array.map
              (fun k -> (Coverage.at t k, Coverage.at theta k))
              (Coverage.log_spaced ~max:n_vectors ~points:100)
          in
          let fit = Projection.fit_theta points in
          match fit_differs "fit_theta" fit (Projection.Reference.fit_theta points) with
          | Some _ as err -> err
          | None ->
              let init = { Projection.r = fit.params.r *. 1.5; theta_max = 0.9 } in
              fit_differs "fit_theta_from"
                (Projection.fit_theta_from ~init points)
                (Projection.Reference.fit_theta_from ~init points))
      | None, _ -> None)

(* --- registry ----------------------------------------------------------- *)

let all =
  [
    { name = "sim2-flat";
      doc =
        "Sim2.run vs flat-kernel run_flat4, every node, each 64-vector \
         sub-word, ragged tails masked";
      kind = Case sim2_flat };
    { name = "fault-sim";
      doc =
        "wide PPSFP engine vs reference, serial and parallel (incl. pool \
         wider than the universe), both drop modes, detection event streams";
      kind = Case fault_sim_agreement };
    { name = "event-propagate";
      doc =
        "Propagate cone from the previous vector's Sim2 values vs Sim2, \
         per vector, no X on binary inputs";
      kind = Case event_propagate };
    { name = "sim3-binary";
      doc = "Sim3 equals Sim2 on fully-binary inputs, every node";
      kind = Case sim3_binary };
    { name = "coverage-monotone";
      doc = "T(k) monotone in k; prefix simulation reproduces the record";
      kind = Case Metamorphic.coverage_monotone };
    { name = "collapse-classes";
      doc = "members of a collapsing class share their first detection";
      kind = Case Metamorphic.collapse_agreement };
    { name = "eq11-wb";
      doc = "eq.11 reduces to Williams-Brown at R=1, thetamax=1";
      kind = Sweep (fun ~seed -> Metamorphic.wb_reduction ~seed ()) };
    { name = "eq9-theta";
      doc = "eq.9 envelope: bounds, monotonicity, endpoints";
      kind = Sweep (fun ~seed -> Metamorphic.theta_envelope ~seed ()) };
    { name = "eq11-dl";
      doc = "eq.11 DL(T) nonincreasing; endpoints 1-Y and residual";
      kind = Sweep (fun ~seed -> Metamorphic.dl_monotone ~seed ()) };
    { name = "yield-weights";
      doc = "weighted yield vs Poisson model; scale_to_yield; w/p roundtrip";
      kind = Sweep (fun ~seed -> Metamorphic.yield_consistency ~seed ()) };
    { name = "required-coverage";
      doc = "required-coverage inversions round-trip (eq.1 and eq.11)";
      kind =
        Sweep (fun ~seed -> Metamorphic.required_coverage_roundtrip ~seed ())
    };
    { name = "experiment-cache";
      doc = "cached vs uncached Experiment.run identical; warm run all-hit";
      kind = Sweep experiment_cache };
    { name = "serve-loopback";
      doc =
        "served answer bit-identical to direct Experiment.run; identical \
         resubmission coalesces";
      kind = Sweep serve_loopback };
    { name = "serve-cluster";
      doc =
        "coordinator + TCP worker fleet bit-identical to direct \
         Experiment.run; cross-worker resubmission served from the \
         distributed store";
      kind = Sweep serve_cluster };
    { name = "mc-poisson-limit";
      doc =
        "Wafer_mc at infinite alphas recovers the Poisson closed form \
         (eq. 3) within sampling error; quantiles ordered";
      kind = Sweep mc_poisson_limit };
    { name = "mc-clustered-consistency";
      doc =
        "single-level clustered Wafer_mc matches the negative-binomial \
         closed form for alpha in {0.5, 2, 10}";
      kind = Sweep mc_clustered_consistency };
    { name = "bootstrap-coverage";
      doc =
        "90% bootstrap CIs on (R, thetamax) cover synthetic eq. 9 truth \
         in >= 7/12 trials";
      kind = Sweep bootstrap_coverage };
    { name = "ndet-1detect";
      doc =
        "run_ndet at quota 1 bit-identical to drop_detected on every \
         engine; n=1 coverage curve equal to the single-detection one";
      kind = Case ndet_one_detect };
    { name = "ndet-monotone";
      doc =
        "quota-2 counts/indices a truncation of quota-4; per-fault \
         detection indices increasing; T_n pointwise non-increasing in n";
      kind = Case ndet_monotone };
    { name = "ndet-dl-monotone";
      doc =
        "Dl_n table on a synthetic weighted theta: DL@T* non-increasing \
         and k@T* non-decreasing in n, every row reaching t*";
      kind = Case ndet_dl_monotone };
    { name = "swift-reference";
      doc =
        "compiled switch-level engine vs Swift.Reference on extracted \
         realistic faults (a stride, and up to 16 faults of each of the \
         three most common region shapes): detections and region_solves in \
         every drop mode, one fault's signature";
      kind = Case swift_reference };
    { name = "podem-reference";
      doc =
        "compiled PODEM vs Podem.Reference on every collapsed fault of the \
         decomposed circuit: outcome and vector, at backtrack limits 100 \
         and 3 (restarts)";
      kind = Case podem_reference };
    { name = "projection-reference";
      doc =
        "Coverage.make vs Coverage.Reference on the case's detections (unit \
         and random weights): at every k, detections_in_order, final; \
         fit_theta and fit_theta_from vs Projection.Reference: (R, thetamax, \
         rmse), bit for bit";
      kind = Case projection_reference };
  ]

let find name = List.find_opt (fun o -> o.name = name) all
let names () = List.map (fun o -> o.name) all
