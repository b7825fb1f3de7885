(* warm-reproject: [Experiment.run] against a filled artifact store.

   Set-up fills a fresh store with c17 and c432s_small.  One operation
   re-projects both circuits at a target yield no earlier operation used,
   so only the projection stage recomputes and writes, then reruns each
   three times at that yield, with every stage a store hit: four runs per
   circuit, three warm reruns to one re-projection.  Every operation does
   the same work, so the latency percentiles compare like with like.  No
   simulation runs, so this workload isolates store I/O, codec decoding,
   the live layout re-synthesis and the fit.

   The configs use a fixed ATPG seed (see cold.ml); the run seed draws the
   target yields.

   The traced run repeats each [Experiment.run] as the public calls a warm
   run makes: stage keys, then per stage [Store.load] and the artifact
   codec's [Codec.of_bytes], the live [Mapping.flatten] and
   [Layout.synthesize], the coverage curves, and on a re-projection the
   fit, [Codec.to_bytes] and [Store.put]. *)

open Harness
module Experiment = Dl_core.Experiment
module Artifact = Dl_store.Artifact
module Codec = Dl_store.Codec
module Store = Dl_store.Store

(* Operations whose results the goldens pin; every run performs them. *)
let pinned_ops = 5

let reruns = 3

let configs ctx ~cache_dir =
  let names = if ctx.smoke then [ "c17" ] else [ "c17"; "c432s_small" ] in
  Array.of_list
    (List.map
       (fun name ->
         Experiment.config ~seed:Cold.atpg_seed ~max_random_vectors:16
           ~cache_dir
           (Option.get (Dl_netlist.Benchmarks.by_name name)))
       names)

type state = {
  configs : Experiment.config array;
  base : Experiment.t array;  (** The fill run of each config. *)
}

let fill ctx i =
  let dir = Filename.concat ctx.work_dir (Printf.sprintf "store-%d" i) in
  let configs = configs ctx ~cache_dir:dir in
  { configs; base = Array.map Experiment.run configs }

(* Three fills of under a second each. *)
let setup ctx = repeated_setup ~repeats:3 ctx (fill ctx)

(* Operation [k]'s target yield in (0.55, 0.95), drawn per [k]. *)
let yield_of ctx k =
  Dl_util.Rng.float_in (rng ctx (Printf.sprintf "yield-%d" k)) 0.55 0.95

let summary_line (e : Experiment.t) =
  Printf.sprintf "%s|%h|%h" e.summary e.fit.params.r e.fit.params.theta_max

let misses (e : Experiment.t) =
  List.filter_map
    (fun (r : Dl_store.Stage.report) ->
      if r.outcome = Dl_store.Stage.Hit then None else Some r.stage)
    e.stage_reports

let pinned = Buffer.create 4096

let operation ctx st k =
  Array.iter
    (fun cfg ->
      let cfg = { cfg with Experiment.target_yield = yield_of ctx k } in
      let e = Experiment.run cfg in
      Cold.check_experiment e;
      expect "a re-projection recomputes only the projection stage"
        (misses e = [ "projection" ]);
      for _ = 1 to reruns do
        let w = Experiment.run cfg in
        expect "a warm rerun hits every stage" (misses w = []);
        expect "a warm rerun equals the re-projection"
          (summary_line w = summary_line e)
      done;
      if k < pinned_ops then Buffer.add_string pinned (summary_line e ^ "\n"))
    st.configs

let goldens ctx st =
  golden ctx "warm.fill"
    (digest (String.concat "\n" (Array.to_list (Array.map summary_line st.base))));
  golden ctx "warm.operations" (digest (Buffer.contents pinned))

let run ctx =
  let st, setup_s = setup ctx in
  let latencies_ms, wall_s =
    timed ~min_ops:pinned_ops
      ~max_ops:(if ctx.smoke then pinned_ops else max_int)
      ~seconds:ctx.seconds (operation ctx st)
  in
  goldens ctx st;
  e2e ~setup_s ~latencies_ms ~wall_s ()

(* ------------------------------------------------------------ traced *)

type counters = {
  mutable bytes_read : int;
  mutable hits : int;
  mutable misses : int;
}

(* One warm [Experiment.run], call by call, each public call in a span.
   On a projection miss it fits, then encodes and stores [reference], the
   artifact [Experiment.run] computed for this config; the replica's fit
   must equal the reference's. *)
let traced_run recorder n (cfg : Experiment.config) ~reference =
  let sp name f = Span.with_span recorder name f in
  let store =
    sp "store.open" (fun () -> Store.open_ (Option.get cfg.cache_dir))
  in
  let keys = sp "core.stage_keys" (fun () -> Experiment.stage_keys cfg) in
  let fetch stage =
    let bytes = sp "store.load" (fun () -> Store.load store (List.assoc stage keys)) in
    (match bytes with
    | Some b ->
        n.hits <- n.hits + 1;
        n.bytes_read <- n.bytes_read + Bytes.length b
    | None -> n.misses <- n.misses + 1);
    bytes
  in
  let decode codec bytes =
    match sp "store.decode" (fun () -> Codec.of_bytes codec bytes) with
    | Ok v -> v
    | Error e -> failwith (Codec.error_to_string e)
  in
  let load stage codec =
    match fetch stage with
    | Some b -> decode codec b
    | None -> failwith (stage ^ " missing from a filled store")
  in
  let c = load "mapping" Artifact.circuit in
  let atpg = load "atpg" Artifact.atpg in
  let _stuck = load "fault-universe" Artifact.stuck_faults in
  let det = load "fault-sim" Artifact.detections in
  let mapping = sp "cell.flatten" (fun () -> Dl_cell.Mapping.flatten c) in
  let _layout =
    sp "layout.synthesize" (fun () ->
        Dl_layout.Layout.synthesize ?rows:cfg.rows mapping)
  in
  let ifa = load "layout-ifa" Artifact.ifa in
  let swift = load "swift" Artifact.swift in
  let cv =
    sp "core.coverage" (fun () ->
        Cold.curves ~target_yield:cfg.target_yield
          ~first_detection:det.first_detection ~faults:ifa.faults
          swift.detection)
  in
  match (fetch "projection", reference) with
  | Some b, None -> ignore (decode Artifact.summary b)
  | Some _, Some _ -> failwith "a re-projection found its projection stored"
  | None, None -> failwith "a warm rerun missed its projection"
  | None, Some (art : Artifact.summary) ->
      let fit =
        sp "core.fit" (fun () -> Cold.fit ~n:(Array.length atpg.vectors) cv)
      in
      expect "traced re-projection fit = Experiment.run's"
        (fit.params.r = art.fit_r && fit.params.theta_max = art.fit_theta_max
        && fit.rmse = art.fit_rmse && cv.scale = art.scale_factor);
      let bytes = sp "store.encode" (fun () -> Codec.to_bytes Artifact.summary art) in
      sp "store.put" (fun () ->
          Store.put store ~key:(List.assoc "projection" keys)
            ~kind:Artifact.summary.kind ~version:Artifact.summary.version bytes)

(* Operations per phase of the traced run: fixed, so its counts repeat. *)
let traced_ops ctx = if ctx.smoke then pinned_ops else 250

let run_traced ctx =
  let st, setup_s = setup ctx in
  let ops = traced_ops ctx in
  let untraced, _ =
    timed ~min_ops:ops ~max_ops:ops ~seconds:infinity (operation ctx st)
  in
  let first = Array.length untraced in
  (* Each re-projection the traced phase will make, computed once by
     [Experiment.run]; its projection entry is then dropped so the replica
     misses it, as a fresh re-projection does. *)
  let references = Hashtbl.create 256 in
  for k = first to first + ops - 1 do
    Array.iteri
      (fun j cfg ->
        let cfg = { cfg with Experiment.target_yield = yield_of ctx k } in
        ignore (Experiment.run cfg);
        let store = Store.open_ (Option.get cfg.cache_dir) in
        let key = List.assoc "projection" (Experiment.stage_keys cfg) in
        (match Option.map (Codec.of_bytes Artifact.summary) (Store.load store key) with
        | Some (Ok art) -> Hashtbl.replace references (k, j) art
        | _ -> expect "Experiment.run stored its re-projection" false);
        Store.remove store key)
      st.configs
  done;
  let rec_ = Span.create () in
  let n = { bytes_read = 0; hits = 0; misses = 0 } in
  let gc0 = gc_now () in
  let traced_ms, traced_wall_s =
    timed ~first ~min_ops:ops ~max_ops:ops ~seconds:infinity (fun k ->
        Array.iteri
          (fun j cfg ->
            let cfg = { cfg with Experiment.target_yield = yield_of ctx k } in
            traced_run rec_ n cfg ~reference:(Hashtbl.find_opt references (k, j));
            for _ = 1 to reruns do
              traced_run rec_ n cfg ~reference:None
            done)
          st.configs)
  in
  let gc = gc_metrics ~since:gc0 ~ops in
  let s = span_seconds [ rec_ ] ~ops in
  let spans_ms =
    List.fold_left
      (fun acc (_, r) -> acc +. r.Span.self_s)
      0.0 (Span.table [ rec_ ])
    *. 1000.0 /. float_of_int (max 1 ops)
  in
  traced ~setup_s ~untraced ~traced:traced_ms ~traced_wall_s ~spans:[ rec_ ]
    ([
       ("cell.flatten_s", s "cell.flatten");
       ("layout.synthesize_s", s "layout.synthesize");
       ("store.load_s", s "store.load");
       ("store.bytes_read", float_of_int n.bytes_read /. float_of_int (max 1 ops));
       ("store.decode_s", s "store.decode");
       ( "store.hit_ratio",
         float_of_int n.hits /. float_of_int (max 1 (n.hits + n.misses)) );
       ("store.encode_s", s "store.encode");
       ("store.put_s", s "store.put");
       ("core.coverage_s", s "core.coverage");
       ("core.fit_s", s "core.fit");
       ("warm.unattributed_ms", mean traced_ms -. spans_ms);
     ]
    @ gc)
