(* What every workload shares: the run context, the time-boxed operation
   loop, output checks against committed goldens, and small measurement
   helpers (percentiles, peak RSS, GC deltas, digests). *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  smoke : bool;
  bless : bool;
  dlproj : string;  (** The [dlproj] executable the serve workload starts. *)
  work_dir : string;  (** Scratch space of this run, removed at exit. *)
}

(* The seed whose outputs are pinned by the committed goldens.  Any other
   seed is checked by invariants only. *)
let golden_seed = 7

(* The workload's input stream [name], drawn from the run seed. *)
let rng ctx name =
  Dl_util.Seeds.stream
    (Dl_util.Seeds.scope (Dl_util.Seeds.create ctx.seed) ctx.workload)
    name

(* ------------------------------------------------------------ checks *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      Printf.eprintf "e2e: check failed: %s\n%!" msg)
    fmt

(* One run-level check: counts as one attempt. *)
let expect what ok =
  incr attempted;
  if not ok then fail "%s" what

(* One operation of a timed phase: counts as one attempt and fails if it
   raises or any [expect] inside it fails.  [expect]s inside an operation
   count toward the operation, not as attempts of their own. *)
let operation f =
  let failed_before = !failed and attempted_before = !attempted in
  (match f () with
  | () -> ()
  | exception e -> fail "operation raised %s" (Printexc.to_string e));
  attempted := attempted_before + 1;
  if !failed > failed_before then failed := failed_before + 1

(* --------------------------------------------------------- goldens *)

let golden_path ctx =
  Printf.sprintf "bench/e2e/golden/%s%s.txt" ctx.workload
    (if ctx.smoke then ".smoke" else "")

let golden_table ctx =
  let tbl = Hashtbl.create 16 in
  (try
     let ic = open_in (golden_path ctx) in
     Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
         try
           while true do
             match String.split_on_char ' ' (input_line ic) with
             | [ name; value ] -> Hashtbl.replace tbl name value
             | _ -> ()
           done
         with End_of_file -> ())
   with Sys_error _ -> ());
  tbl

let golden_values = ref []

(* Pin [value] under [name] at the golden seed: compared against the
   committed file, or collected for [--bless]. *)
let golden ctx name value =
  if ctx.seed = golden_seed then
    if ctx.bless then golden_values := (name, value) :: !golden_values
    else
      let expected = Hashtbl.find_opt (golden_table ctx) name in
      expect
        (Printf.sprintf "golden %s: got %s, expected %s" name value
           (Option.value expected ~default:"(missing)"))
        (expected = Some value)

let write_goldens ctx =
  if ctx.bless && ctx.seed = golden_seed then begin
    let oc = open_out (golden_path ctx) in
    List.iter
      (fun (n, v) -> Printf.fprintf oc "%s %s\n" n v)
      (List.rev !golden_values);
    close_out oc;
    Printf.printf "wrote %s\n" (golden_path ctx)
  end

let digest s = Digest.to_hex (Digest.string s)
let hex f = Printf.sprintf "%h" f

let digest_vectors (vs : bool array array) =
  digest
    (String.concat "\n"
       (Array.to_list
          (Array.map
             (fun v ->
               String.init (Array.length v) (fun i -> if v.(i) then '1' else '0'))
             vs)))

let digest_ints (a : int array) =
  digest (String.concat "," (Array.to_list (Array.map string_of_int a)))

let digest_firsts (a : int option array) =
  digest_ints (Array.map (function Some k -> k | None -> -1) a)

(* ---------------------------------------------------- measurement *)

let now_s = Span.now_s

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* Linear interpolation between order statistics. *)
let percentile samples q =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median samples = percentile samples 0.5
let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (max 1 (Array.length a))

(* Set up [repeats] times (once in smoke runs) in fresh state; the median
   time is the reported [setup_s] and the last result is the one the run
   uses.  [discard] releases every earlier result. *)
let repeated_setup ?(repeats = 5) ?(discard = ignore) ctx f =
  let times = ref [] and last = ref None in
  for i = 1 to if ctx.smoke then 1 else repeats do
    Option.iter discard !last;
    let v, s = time (fun () -> f i) in
    times := s :: !times;
    last := Some v
  done;
  (Option.get !last, median (Array.of_list !times))

(* Run [op i] for i = 0, 1, ... as the timed phase.  Another operation
   starts only while the phase is expected to end within the time box
   (elapsed + mean operation time <= seconds); at least [min_ops] always
   run.  Returns per-operation latencies (ms) and the phase wall time. *)
let timed ?(first = 0) ~min_ops ~max_ops ~seconds op =
  let t0 = now_s () in
  let lat = ref [] and n = ref 0 in
  let more () =
    !n < max_ops
    && (!n < min_ops
       ||
       let el = now_s () -. t0 in
       el +. (el /. float_of_int !n) <= seconds)
  in
  while more () do
    let s = now_s () in
    operation (fun () -> op (first + !n));
    lat := ((now_s () -. s) *. 1000.0) :: !lat;
    incr n
  done;
  (Array.of_list (List.rev !lat), now_s () -. t0)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let status_kb ~pid field =
  try
    let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec loop () =
          let line = input_line ic in
          match String.index_opt line ':' with
          | Some i when String.sub line 0 i = field ->
              Scanf.sscanf
                (String.sub line (i + 1) (String.length line - i - 1))
                " %d" Fun.id
          | _ -> loop ()
        in
        try loop () with End_of_file -> 0)
  with Sys_error _ -> 0

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb ?(pid = "self") () =
  float_of_int (status_kb ~pid "VmHWM") /. 1024.0

type gc = { minor_words : float; major_collections : int; top_heap_words : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor_words = s.minor_words; major_collections = s.major_collections;
    top_heap_words = s.top_heap_words }

(* GC layer metrics over [since .. now], per operation. *)
let gc_metrics ~since ~ops =
  let g = gc_now () and n = float_of_int (max 1 ops) in
  [
    ("gc.minor_mwords", (g.minor_words -. since.minor_words) /. 1e6 /. n);
    ( "gc.major_collections",
      float_of_int (g.major_collections - since.major_collections) /. n );
    ("gc.top_heap_mb", float_of_int (g.top_heap_words * 8) /. 1048576.0);
  ]

(* ------------------------------------------------------ workload API *)

(* What a run reports.  [e2e] is filled by an untraced run; [layers],
   [spans] and [traced_wall_s] by a traced one. *)
type report = {
  setup_s : float;
  latencies_ms : float array;
  wall_s : float;
  peak_rss : float;
  layers : (string * float) list;
  spans : Span.t list;
  traced_wall_s : float;
}

let e2e ~setup_s ~latencies_ms ~wall_s ?(peak_rss = peak_rss_mb ()) () =
  { setup_s; latencies_ms; wall_s; peak_rss; layers = []; spans = [];
    traced_wall_s = 0.0 }

(* The span-derived part of a traced report: overhead = mean traced ÷ mean
   untraced operation time, coverage = {!Span.coverage} of the
   least-covered recorder. *)
let traced ~setup_s ~untraced ~traced ~traced_wall_s ~spans layers =
  let coverage =
    List.fold_left (fun acc t -> Float.min acc (Span.coverage t)) 1.0 spans
  in
  expect
    (Printf.sprintf "traced spans cover %.1f%% of a traced thread (< 95%%)"
       (100.0 *. coverage))
    (coverage >= 0.95);
  {
    setup_s;
    latencies_ms = [||];
    wall_s = 0.0;
    peak_rss = peak_rss_mb ();
    layers =
      layers
      @ [
          ("trace.overhead_ratio", mean traced /. mean untraced);
          ("trace.coverage", coverage);
        ];
    spans;
    traced_wall_s;
  }

(* Span totals per name, divided over [ops] operations. *)
let span_seconds spans ~ops name =
  match List.assoc_opt name (Span.table spans) with
  | Some r -> r.Span.total_s /. float_of_int (max 1 ops)
  | None -> 0.0
