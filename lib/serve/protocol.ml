module Binary = Dl_util.Binary
module Codec = Dl_store.Codec
module Artifact = Dl_store.Artifact
module Coverage = Dl_fault.Coverage
module Experiment = Dl_core.Experiment

type circuit_spec =
  | Builtin of string
  | Inline_bench of { title : string; text : string }

type job_spec = {
  circuit : circuit_spec;
  seed : int;
  max_random_vectors : int;
  target_yield : float;
  collapse_faults : bool;
  min_weight_ratio : float;
  deadline_ms : int option;
}

let job_spec ?(seed = 7) ?(max_random_vectors = 256) ?(target_yield = 0.75)
    ?(collapse_faults = true) ?(min_weight_ratio = 0.0) ?deadline_ms circuit =
  { circuit; seed; max_random_vectors; target_yield; collapse_faults;
    min_weight_ratio; deadline_ms }

let experiment_config ?cache_dir ?remote spec =
  let module B = Dl_netlist.Benchmarks in
  let circuit =
    match spec.circuit with
    | Builtin name -> (
        match B.by_name name with
        | Some c -> Ok c
        | None ->
            Error
              (Printf.sprintf "unknown benchmark %S (built-ins: %s)" name
                 (String.concat ", " (List.map fst B.all))))
    | Inline_bench { title; text } -> (
        try Ok (Dl_netlist.Bench_format.parse_string ~title text) with
        | Dl_netlist.Bench_format.Parse_error { line; message } ->
            Error (Printf.sprintf "inline bench, line %d: %s" line message)
        | Failure m | Invalid_argument m ->
            Error (Printf.sprintf "inline bench: %s" m))
  in
  Result.bind circuit (fun circuit ->
      try
        Ok
          (Experiment.config ~seed:spec.seed
             ~max_random_vectors:spec.max_random_vectors
             ~target_yield:spec.target_yield
             ~collapse_faults:spec.collapse_faults
             ~min_weight_ratio:spec.min_weight_ratio ?cache_dir ?remote
             circuit)
      with Invalid_argument m -> Error m)

type request =
  | Ping
  | Get_stats
  | Submit of job_spec
  | Serve_stage of { spec : job_spec; stage : string }
  | Store_get of string
  | Store_put of { key : string; data : string }
  | Shutdown

type stage_outcome = Stage_hit | Stage_fetched | Stage_computed

type result_payload = {
  circuit_title : string;
  vectors : int;
  stuck_fault_count : int;
  realistic_fault_count : int;
  t_final : float;
  theta_final : float;
  gamma_final : float;
  theta_iddq_final : float;
  target_yield : float;
  summary : Artifact.summary;
  request_key : string;
  stage_hits : int;
  stage_misses : int;
}

type served = {
  payload : result_payload;
  coalesced : bool;
  service_ms : float;
}

type stats = {
  accepted : int;
  rejected : int;
  coalesced : int;
  executed : int;
  completed : int;
  expired : int;
  failed : int;
  queue_depth : int;
  in_flight : int;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  uptime_s : float;
}

type response =
  | Pong
  | Stats_reply of stats
  | Result of served
  | Rejected of { retry_after_ms : int; queue_depth : int }
  | Expired
  | Server_error of string
  | Stage_done of {
      stage : string;
      key : string;
      outcome : stage_outcome;
      seconds : float;
    }
  | Store_found of string
  | Store_missing
  | Store_ack of bool

(* --- codecs -------------------------------------------------------------- *)

let bad fmt = Printf.ksprintf (fun m -> raise (Binary.Corrupt m)) fmt

let write_circuit_spec buf = function
  | Builtin name ->
      Binary.write_byte buf 0;
      Binary.write_string buf name
  | Inline_bench { title; text } ->
      Binary.write_byte buf 1;
      Binary.write_string buf title;
      Binary.write_string buf text

let read_circuit_spec cur =
  match Binary.read_byte cur with
  | 0 -> Builtin (Binary.read_string cur)
  | 1 ->
      let title = Binary.read_string cur in
      let text = Binary.read_string cur in
      Inline_bench { title; text }
  | t -> bad "unknown circuit-spec tag %d" t

let write_job_spec buf s =
  write_circuit_spec buf s.circuit;
  Binary.write_int buf s.seed;
  Binary.write_varint buf s.max_random_vectors;
  Binary.write_float buf s.target_yield;
  Binary.write_bool buf s.collapse_faults;
  Binary.write_float buf s.min_weight_ratio;
  Binary.write_option Binary.write_varint buf s.deadline_ms

let read_job_spec cur =
  let circuit = read_circuit_spec cur in
  let seed = Binary.read_int cur in
  let max_random_vectors = Binary.read_varint cur in
  let target_yield = Binary.read_float cur in
  let collapse_faults = Binary.read_bool cur in
  let min_weight_ratio = Binary.read_float cur in
  let deadline_ms = Binary.read_option Binary.read_varint cur in
  { circuit; seed; max_random_vectors; target_yield; collapse_faults;
    min_weight_ratio; deadline_ms }

let request_codec : request Codec.t =
  {
    Codec.kind = "serve-req";
    (* v2: cluster traffic — per-stage jobs and peer store exchange. *)
    version = 2;
    encode =
      (fun buf -> function
        | Ping -> Binary.write_byte buf 0
        | Get_stats -> Binary.write_byte buf 1
        | Submit spec ->
            Binary.write_byte buf 2;
            write_job_spec buf spec
        | Shutdown -> Binary.write_byte buf 3
        | Serve_stage { spec; stage } ->
            Binary.write_byte buf 4;
            write_job_spec buf spec;
            Binary.write_string buf stage
        | Store_get key ->
            Binary.write_byte buf 5;
            Binary.write_string buf key
        | Store_put { key; data } ->
            Binary.write_byte buf 6;
            Binary.write_string buf key;
            Binary.write_string buf data);
    decode =
      (fun cur ->
        match Binary.read_byte cur with
        | 0 -> Ping
        | 1 -> Get_stats
        | 2 -> Submit (read_job_spec cur)
        | 3 -> Shutdown
        | 4 ->
            let spec = read_job_spec cur in
            let stage = Binary.read_string cur in
            Serve_stage { spec; stage }
        | 5 -> Store_get (Binary.read_string cur)
        | 6 ->
            let key = Binary.read_string cur in
            let data = Binary.read_string cur in
            Store_put { key; data }
        | t -> bad "unknown request tag %d" t);
  }

let write_summary buf (s : Artifact.summary) = Artifact.summary.Codec.encode buf s
let read_summary cur : Artifact.summary = Artifact.summary.Codec.decode cur

let write_payload buf p =
  Binary.write_string buf p.circuit_title;
  Binary.write_varint buf p.vectors;
  Binary.write_varint buf p.stuck_fault_count;
  Binary.write_varint buf p.realistic_fault_count;
  Binary.write_float buf p.t_final;
  Binary.write_float buf p.theta_final;
  Binary.write_float buf p.gamma_final;
  Binary.write_float buf p.theta_iddq_final;
  Binary.write_float buf p.target_yield;
  write_summary buf p.summary;
  Binary.write_string buf p.request_key;
  Binary.write_varint buf p.stage_hits;
  Binary.write_varint buf p.stage_misses

let read_payload cur =
  let circuit_title = Binary.read_string cur in
  let vectors = Binary.read_varint cur in
  let stuck_fault_count = Binary.read_varint cur in
  let realistic_fault_count = Binary.read_varint cur in
  let t_final = Binary.read_float cur in
  let theta_final = Binary.read_float cur in
  let gamma_final = Binary.read_float cur in
  let theta_iddq_final = Binary.read_float cur in
  let target_yield = Binary.read_float cur in
  let summary = read_summary cur in
  let request_key = Binary.read_string cur in
  let stage_hits = Binary.read_varint cur in
  let stage_misses = Binary.read_varint cur in
  { circuit_title; vectors; stuck_fault_count; realistic_fault_count;
    t_final; theta_final; gamma_final; theta_iddq_final; target_yield;
    summary; request_key; stage_hits; stage_misses }

let write_stats buf s =
  Binary.write_varint buf s.accepted;
  Binary.write_varint buf s.rejected;
  Binary.write_varint buf s.coalesced;
  Binary.write_varint buf s.executed;
  Binary.write_varint buf s.completed;
  Binary.write_varint buf s.expired;
  Binary.write_varint buf s.failed;
  Binary.write_varint buf s.queue_depth;
  Binary.write_varint buf s.in_flight;
  Binary.write_float buf s.p50_ms;
  Binary.write_float buf s.p99_ms;
  Binary.write_float buf s.p999_ms;
  Binary.write_float buf s.uptime_s

let read_stats cur =
  let accepted = Binary.read_varint cur in
  let rejected = Binary.read_varint cur in
  let coalesced = Binary.read_varint cur in
  let executed = Binary.read_varint cur in
  let completed = Binary.read_varint cur in
  let expired = Binary.read_varint cur in
  let failed = Binary.read_varint cur in
  let queue_depth = Binary.read_varint cur in
  let in_flight = Binary.read_varint cur in
  let p50_ms = Binary.read_float cur in
  let p99_ms = Binary.read_float cur in
  let p999_ms = Binary.read_float cur in
  let uptime_s = Binary.read_float cur in
  { accepted; rejected; coalesced; executed; completed; expired; failed;
    queue_depth; in_flight; p50_ms; p99_ms; p999_ms; uptime_s }

let write_stage_outcome buf = function
  | Stage_hit -> Binary.write_byte buf 0
  | Stage_fetched -> Binary.write_byte buf 1
  | Stage_computed -> Binary.write_byte buf 2

let read_stage_outcome cur =
  match Binary.read_byte cur with
  | 0 -> Stage_hit
  | 1 -> Stage_fetched
  | 2 -> Stage_computed
  | t -> bad "unknown stage-outcome tag %d" t

let response_codec : response Codec.t =
  {
    Codec.kind = "serve-resp";
    (* v2: stats grew p999_ms.  v3: cluster replies. *)
    version = 3;
    encode =
      (fun buf -> function
        | Pong -> Binary.write_byte buf 0
        | Stats_reply s ->
            Binary.write_byte buf 1;
            write_stats buf s
        | Result r ->
            Binary.write_byte buf 2;
            write_payload buf r.payload;
            Binary.write_bool buf r.coalesced;
            Binary.write_float buf r.service_ms
        | Rejected { retry_after_ms; queue_depth } ->
            Binary.write_byte buf 3;
            Binary.write_varint buf retry_after_ms;
            Binary.write_varint buf queue_depth
        | Expired -> Binary.write_byte buf 4
        | Server_error msg ->
            Binary.write_byte buf 5;
            Binary.write_string buf msg
        | Stage_done { stage; key; outcome; seconds } ->
            Binary.write_byte buf 6;
            Binary.write_string buf stage;
            Binary.write_string buf key;
            write_stage_outcome buf outcome;
            Binary.write_float buf seconds
        | Store_found data ->
            Binary.write_byte buf 7;
            Binary.write_string buf data
        | Store_missing -> Binary.write_byte buf 8
        | Store_ack ok ->
            Binary.write_byte buf 9;
            Binary.write_bool buf ok);
    decode =
      (fun cur ->
        match Binary.read_byte cur with
        | 0 -> Pong
        | 1 -> Stats_reply (read_stats cur)
        | 2 ->
            let payload = read_payload cur in
            let coalesced = Binary.read_bool cur in
            let service_ms = Binary.read_float cur in
            Result { payload; coalesced; service_ms }
        | 3 ->
            let retry_after_ms = Binary.read_varint cur in
            let queue_depth = Binary.read_varint cur in
            Rejected { retry_after_ms; queue_depth }
        | 4 -> Expired
        | 5 -> Server_error (Binary.read_string cur)
        | 6 ->
            let stage = Binary.read_string cur in
            let key = Binary.read_string cur in
            let outcome = read_stage_outcome cur in
            let seconds = Binary.read_float cur in
            Stage_done { stage; key; outcome; seconds }
        | 7 -> Store_found (Binary.read_string cur)
        | 8 -> Store_missing
        | 9 -> Store_ack (Binary.read_bool cur)
        | t -> bad "unknown response tag %d" t);
  }

(* --- framing ------------------------------------------------------------- *)

let default_max_frame = 16 * 1024 * 1024

exception Protocol_error of string

let proto_error fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

let rec retry_intr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_intr f

let really_write fd bytes =
  let len = Bytes.length bytes in
  let pos = ref 0 in
  while !pos < len do
    let n = retry_intr (fun () -> Unix.write fd bytes !pos (len - !pos)) in
    if n = 0 then proto_error "short write on socket";
    pos := !pos + n
  done

let wait_readable fd deadline =
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then proto_error "frame read deadline expired";
    match Unix.select [ fd ] [] [] remaining with
    | [], _, _ -> proto_error "frame read deadline expired"
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* [really_read ?deadline fd buf start len] fills [buf.[start..start+len)];
   returns the byte count actually read, which is short only at EOF.
   [deadline] is an absolute wall-clock instant past which waiting for more
   bytes raises {!Protocol_error} — slow-loris protection for mid-frame
   stalls. *)
let really_read ?deadline fd buf start len =
  let pos = ref start in
  let stop = start + len in
  let eof = ref false in
  while !pos < stop && not !eof do
    (match deadline with Some d -> wait_readable fd d | None -> ());
    let n = retry_intr (fun () -> Unix.read fd buf !pos (stop - !pos)) in
    if n = 0 then eof := true else pos := !pos + n
  done;
  !pos - start

let write_frame fd payload =
  let len = Bytes.length payload in
  let frame = Bytes.create (4 + len) in
  Bytes.set_int32_le frame 0 (Int32.of_int len);
  Bytes.blit payload 0 frame 4 len;
  really_write fd frame

let read_frame ?(max_frame = default_max_frame) ?deadline_s fd =
  let header = Bytes.create 4 in
  (* Wait for the first byte without a deadline: an idle connection is
     not a violation.  The clock starts once a frame has begun — from
     there the peer owes us the whole frame within [deadline_s]. *)
  match really_read fd header 0 1 with
  | 0 -> None (* clean EOF at a frame boundary *)
  | _ ->
      let deadline =
        Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s
      in
      let got = really_read ?deadline fd header 1 3 in
      if got < 3 then
        proto_error "truncated frame header (%d of 4 bytes)" (1 + got);
      let len = Int32.to_int (Bytes.get_int32_le header 0) in
      if len < 0 || len > max_frame then
        proto_error "frame length %d exceeds limit %d" len max_frame;
      let payload = Bytes.create len in
      let got = really_read ?deadline fd payload 0 len in
      if got < len then
        proto_error "truncated frame body (%d of %d bytes)" got len;
      Some payload

let send codec fd value = write_frame fd (Codec.to_bytes codec value)

let recv ?max_frame ?deadline_s codec fd =
  match read_frame ?max_frame ?deadline_s fd with
  | None -> None
  | Some data -> (
      match Codec.of_bytes codec data with
      | Ok v -> Some v
      | Error e -> proto_error "bad frame: %s" (Codec.error_to_string e))

(* --- shared rendering ---------------------------------------------------- *)

let payload_of_experiment ~key (e : Experiment.t) =
  let n = Array.length e.vectors in
  let hits, misses =
    List.fold_left
      (fun (h, m) (r : Dl_store.Stage.report) ->
        match r.outcome with
        | Dl_store.Stage.Hit | Dl_store.Stage.Fetched -> (h + 1, m)
        | Dl_store.Stage.Miss | Dl_store.Stage.Uncached -> (h, m + 1))
      (0, 0) e.stage_reports
  in
  {
    circuit_title = e.mapped_circuit.Dl_netlist.Circuit.title;
    vectors = n;
    stuck_fault_count = Array.length e.stuck_faults;
    realistic_fault_count = Array.length e.extraction.faults;
    t_final = Coverage.at e.t_curve n;
    theta_final = Coverage.at e.theta_curve n;
    gamma_final = Coverage.at e.gamma_curve n;
    theta_iddq_final = Coverage.at e.theta_iddq_curve n;
    target_yield = e.yield;
    summary =
      {
        Artifact.text = e.summary;
        fit_r = e.fit.Dl_core.Projection.params.r;
        fit_theta_max = e.fit.params.theta_max;
        fit_rmse = e.fit.rmse;
        fit_rmse_log10 = (e.fit.rmse_scale = Dl_core.Projection.Log10);
        scale_factor = e.scale_factor;
      };
    request_key = key;
    stage_hits = hits;
    stage_misses = misses;
  }

(* Minimal JSON emission: objects in a fixed field order, floats printed
   round-trippably, strings escaped per RFC 8259 (UTF-8 passes through). *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_finite f then
    (* %.17g round-trips every double; strip nothing for stability. *)
    Printf.sprintf "%.17g" f
  else "null"

let served_to_json r =
  let p = r.payload in
  let s = p.summary in
  (* NB: every string field goes through [json_escape] inside plain quotes.
     [%S] would escape a second time in OCaml (not JSON) syntax, turning
     bytes >= 0x80 into invalid "\165"-style escapes. *)
  Printf.sprintf
    "{\"circuit\": \"%s\", \"vectors\": %d, \"stuck_faults\": %d, \
     \"realistic_faults\": %d, \"coverage\": {\"t\": %s, \"theta\": %s, \
     \"gamma\": %s, \"theta_iddq\": %s}, \"yield\": %s, \"fit\": {\"r\": %s, \
     \"theta_max\": %s, \"rmse\": %s, \"rmse_scale\": \"%s\"}, \
     \"scale_factor\": %s, \"request_key\": \"%s\", \"cache\": \
     {\"stage_hits\": %d, \"stage_misses\": %d}, \"coalesced\": %b, \
     \"service_ms\": %s, \"summary\": \"%s\"}"
    (json_escape p.circuit_title)
    p.vectors p.stuck_fault_count p.realistic_fault_count
    (json_float p.t_final) (json_float p.theta_final)
    (json_float p.gamma_final) (json_float p.theta_iddq_final)
    (json_float p.target_yield) (json_float s.Artifact.fit_r)
    (json_float s.fit_theta_max) (json_float s.fit_rmse)
    (if s.fit_rmse_log10 then "log10" else "linear")
    (json_float s.scale_factor) (json_escape p.request_key) p.stage_hits
    p.stage_misses r.coalesced (json_float r.service_ms)
    (json_escape s.text)

let pp_served ppf r =
  let p = r.payload in
  Format.fprintf ppf "%s@." p.summary.Artifact.text;
  Format.fprintf ppf
    "fitted eq. 11: R = %.2f, θmax = %.3f (rmse %.4f, %s)@."
    p.summary.fit_r p.summary.fit_theta_max p.summary.fit_rmse
    (if p.summary.fit_rmse_log10 then "log10 of DL" else "linear");
  Format.fprintf ppf
    "served in %.1f ms%s (stage hits %d, misses %d); request key %s@."
    r.service_ms
    (if r.coalesced then " (coalesced)" else "")
    p.stage_hits p.stage_misses
    (String.sub p.request_key 0 (min 12 (String.length p.request_key)))

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>accepted   %6d   (coalesced %d, executed %d)@,\
     rejected   %6d@,\
     completed  %6d   (expired %d, failed %d)@,\
     queue      %6d deep, %d in flight@,\
     latency    p50 %s ms, p99 %s ms, p999 %s ms@,\
     uptime     %.1f s@]"
    s.accepted s.coalesced s.executed s.rejected s.completed s.expired
    s.failed s.queue_depth s.in_flight
    (if Float.is_finite s.p50_ms then Printf.sprintf "%.1f" s.p50_ms else "-")
    (if Float.is_finite s.p99_ms then Printf.sprintf "%.1f" s.p99_ms else "-")
    (if Float.is_finite s.p999_ms then Printf.sprintf "%.1f" s.p999_ms
     else "-")
    s.uptime_s
