(* End-to-end benchmark of the dlproj pipeline.

     e2e.exe --workload W [--seed S] [--seconds N] [--trace 0|1]
             [--trace-out FILE] [--record FILE] [--smoke] [--bless]
             [--dlproj PATH]

   Runs one workload in this process and prints its metrics, then, as the
   last line of standard output, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones from
   a traced run (spans around each library call), whose self-time table is
   printed and whose spans are written as Chrome trace-event JSON.  Exits
   1 when any output check fails.  See bench/e2e/README.md. *)

open Harness

let workloads =
  [ ("cold-pipeline", (Cold.run, Cold.run_traced));
    ("gate-level", (Gate.run, Gate.run_traced));
    ("warm-reproject", (Warm.run, Warm.run_traced));
    ("serve-submit", (Serve.run, Serve.run_traced)) ]

let end_to_end =
  [ ("setup_s", "s"); ("latency_p90_ms", "ms"); ("peak_rss_mb", "MiB") ]

(* Every per-layer metric, reported by every traced run: a layer a workload
   does not exercise reads 0.  Times are per operation. *)
let per_layer =
  [ ("switch.network_s", "s"); ("switch.swift_s", "s");
    ("switch.bridge_s", "s"); ("switch.stuck_open_s", "s");
    ("switch.stuck_on_s", "s"); ("switch.net_open_s", "s");
    ("switch.region_solves", "count"); ("switch.us_per_solve", "us");
    ("atpg.full_flow_s", "s"); ("atpg.deterministic_vectors", "count");
    ("atpg.untestable", "count"); ("fault.universe_s", "s");
    ("fault.sim_s", "s"); ("fault.gate_evals", "count");
    ("fault.ns_per_gate_eval", "ns"); ("fault.faults_simulated", "count");
    ("fault.faults_inferred", "count"); ("fault.stem_simulations", "count");
    ("fault.detected_ratio", "ratio"); ("fault.ndet_s", "s");
    ("fault.ndet_gate_evals", "count"); ("netlist.decompose_s", "s");
    ("cell.flatten_s", "s"); ("layout.synthesize_s", "s");
    ("extract.ifa_s", "s"); ("extract.faults", "count");
    ("store.load_s", "s"); ("store.bytes_read", "bytes");
    ("store.decode_s", "s"); ("store.hit_ratio", "ratio");
    ("store.encode_s", "s"); ("store.put_s", "s"); ("core.coverage_s", "s");
    ("core.fit_s", "s"); ("warm.unattributed_ms", "ms");
    ("serve.rtt_ms", "ms"); ("serve.service_ms", "ms");
    ("serve.wire_ms", "ms"); ("serve.compute_ms", "ms");
    ("serve.queue_ms", "ms"); ("serve.coalesced_ratio", "ratio");
    ("serve.executed", "count"); ("gc.minor_mwords", "Mword");
    ("gc.major_collections", "count"); ("gc.top_heap_mb", "MiB");
    ("trace.overhead_ratio", "ratio"); ("trace.coverage", "ratio") ]

let usage =
  "e2e.exe --workload W [--seed S] [--seconds N] [--trace 0|1] \
   [--trace-out FILE] [--record FILE] [--smoke] [--bless] [--dlproj PATH]\n\
   workloads: " ^ String.concat ", " (List.map fst workloads)

let scratch_root = "_build/bench-e2e"

let die fmt =
  Printf.ksprintf (fun m -> prerr_endline ("e2e: " ^ m); exit 2) fmt

let metrics_of ~traced (r : report) =
  if traced then
    List.map
      (fun (name, unit) ->
        let v = Option.value (List.assoc_opt name r.layers) ~default:0.0 in
        (name, (if Float.is_finite v then v else 0.0), unit))
      per_layer
  else
    let values =
      [ ("setup_s", r.setup_s);
        ("latency_p90_ms", percentile r.latencies_ms 0.9);
        ("peak_rss_mb", r.peak_rss) ]
    in
    List.map (fun (name, unit) -> (name, List.assoc name values, unit)) end_to_end

let cpu_model () =
  try
    let ic = open_in "/proc/cpuinfo" in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec loop () =
          let l = input_line ic in
          match String.index_opt l ':' with
          | Some i when String.trim (String.sub l 0 i) = "model name" ->
              String.trim (String.sub l (i + 1) (String.length l - i - 1))
          | _ -> loop ()
        in
        try loop () with End_of_file -> "unknown")
  with Sys_error _ -> "unknown"

let commit () =
  try
    let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "--short"; "HEAD" |] in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let record path ctx ~traced metrics =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  let host = cpu_model () and nproc = Domain.recommended_domain_count () in
  let commit = commit () in
  List.iter
    (fun (name, value, unit) ->
      Printf.fprintf oc
        "{\"workload\":%S,\"seed\":%d,\"metric\":%S,\"value\":%.17g,\"unit\":%S,\"host\":%S,\"nproc\":%d,\"commit\":%S,\"traced\":%b}\n"
        ctx.workload ctx.seed name value unit host nproc commit traced)
    metrics;
  close_out oc

let result_json metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
          metrics))

let () =
  let workload = ref "" and seed = ref golden_seed and seconds = ref 10.0 in
  let trace = ref 0 and trace_out = ref "" and record_to = ref "" in
  let smoke = ref false and bless = ref false in
  let dlproj = ref "_build/default/bin/dlproj.exe" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W workload to run");
      ("--seed", Arg.Set_int seed, "S input seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "N length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 run the traced per-layer variant");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace of a traced run");
      ("--record", Arg.Set_string record_to, "FILE append one JSON line per metric");
      ("--smoke", Arg.Set smoke, " toy-sized inputs, every check on");
      ("--bless", Arg.Set bless, " rewrite this workload's golden file (seed 7)");
      ("--dlproj", Arg.Set_string dlproj, "PATH dlproj executable for serve-submit") ]
    (fun a -> die "unexpected argument %S\n%s" a usage)
    usage;
  let run, run_traced =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> die "unknown workload %S\n%s" !workload usage
  in
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if not (!seconds > 0.0) then die "--seconds must be positive";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Scratch space and default trace files live beside dune's build output,
     which version control already ignores. *)
  let work_dir =
    Printf.sprintf "%s/%s-%d" scratch_root !workload (Unix.getpid ())
  in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755)
    [ "_build"; scratch_root; work_dir ];
  let ctx =
    { workload = !workload; seed = !seed; seconds = !seconds; smoke = !smoke;
      bless = !bless; dlproj = !dlproj; work_dir }
  in
  let traced = !trace = 1 in
  let report =
    Fun.protect
      ~finally:(fun () -> remove_tree work_dir)
      (fun () -> if traced then run_traced ctx else run ctx)
  in
  write_goldens ctx;
  Printf.printf "workload %s, seed %d%s, %s\n" ctx.workload ctx.seed
    (if ctx.smoke then " (smoke)" else "")
    (if traced then "traced" else
       let l = report.latencies_ms in
       Printf.sprintf
         "%d operations in %.3f s: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms"
         (Array.length l) report.wall_s (median l) (percentile l 0.9)
         (percentile l 0.99));
  if traced then begin
    Span.print_table ~wall_s:report.traced_wall_s report.spans;
    let path =
      if !trace_out <> "" then !trace_out
      else Printf.sprintf "%s/%s.trace.json" scratch_root ctx.workload
    in
    Span.write_chrome path report.spans;
    Printf.printf "trace written to %s\n" path
  end;
  let metrics = metrics_of ~traced report in
  List.iter
    (fun (name, value, unit) -> Printf.printf "  %-28s %14.6f %s\n" name value unit)
    metrics;
  if !record_to <> "" then record !record_to ctx ~traced metrics;
  print_endline (result_json metrics);
  exit (if !failed = 0 then 0 else 1)
