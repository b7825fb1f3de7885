(* serve-submit: the submit round trip against a [dlproj serve] child.

   Set-up starts [dlproj serve --workers 1 -j 1], waits until it answers
   a ping and warms it with one job outside the loop's seeds.  One client
   connection then runs a closed loop of c17 submissions: request i
   carries job seed S*10^6 + i, except that every fifth request
   re-submits the seed sent three requests earlier, which the server
   answers from its result cache.  A closed loop (the client sends its
   next request only after the reply) keeps the offered load equal to
   what the server sustains, so the latency percentiles repeat; an open
   loop's queue grows or drains with run-to-run speed differences.

   One connection, because the server's single worker is the bottleneck: a
   second client got the same 34-36 requests/s served and only made each
   request wait behind the other's job (p50 61 ms instead of 35 ms).  The
   loop only stops on a multiple of five requests, so exactly 4 in 5
   execute. *)

open Harness
module Protocol = Dl_serve.Protocol
module Client = Dl_serve.Client
module Experiment = Dl_core.Experiment

let compute_samples ctx = if ctx.smoke then 5 else 50

type server = {
  pid : int;
  endpoint : Dl_serve.Transport.endpoint;
  mutable running : bool;  (** Not yet reaped. *)
}

let key_of i = if i mod 5 = 4 then i - 3 else i
let job_seed ctx i = (ctx.seed * 1_000_000) + key_of i

let spec ctx i =
  Protocol.job_spec ~seed:(job_seed ctx i) ~max_random_vectors:64
    (Protocol.Builtin "c17")

let wait_ready endpoint =
  let deadline = now_s () +. 30.0 in
  let rec loop () =
    let ok = try Client.with_client endpoint Client.ping with _ -> false in
    if not ok then
      if now_s () < deadline then begin
        Unix.sleepf 0.002;
        loop ()
      end
      else failwith "server did not answer a ping"
  in
  loop ()

let start ctx i =
  let dir = Filename.concat ctx.work_dir (Printf.sprintf "serve-%d" i) in
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "s.sock" in
  let log =
    Unix.openfile (Filename.concat dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv =
    [| ctx.dlproj; "serve"; "--socket"; socket; "--workers"; "1"; "-j"; "1" |]
  in
  let pid = Unix.create_process ctx.dlproj argv Unix.stdin log log in
  Unix.close log;
  let s =
    { pid; endpoint = Dl_serve.Transport.Unix_socket socket; running = true }
  in
  (try
     wait_ready s.endpoint;
     let warm_up = { (spec ctx 0) with seed = (ctx.seed * 1_000_000) - 1 } in
     match Client.with_client s.endpoint (fun c -> Client.submit c warm_up) with
     | Protocol.Result _ -> ()
     | _ -> failwith "the warm-up job failed"
   with e ->
     Unix.kill pid Sys.sigkill;
     ignore (Unix.waitpid [] pid);
     raise e);
  s

(* Graceful drain, then reap. *)
let stop s =
  ignore (Client.with_client s.endpoint Client.shutdown);
  ignore (Unix.waitpid [] s.pid);
  s.running <- false

let kill s =
  if s.running then begin
    Unix.kill s.pid Sys.sigkill;
    ignore (Unix.waitpid [] s.pid);
    s.running <- false
  end

(* What the server derives from a spec. *)
let config_of_spec (sp : Protocol.job_spec) =
  Experiment.config ~seed:sp.seed ~max_random_vectors:sp.max_random_vectors
    ~target_yield:sp.target_yield ~collapse_faults:sp.collapse_faults
    ~min_weight_ratio:sp.min_weight_ratio (Dl_netlist.Benchmarks.c17 ())

type reply = { index : int; rtt_ms : float; served : Protocol.served option }

(* The closed loop on one connection.  [span] wraps each round trip.
   Requests [first ..] are sent until the deadline passes and the next
   index is a multiple of five, or [limit] requests were sent.  If the
   connection fails, the request in flight is recorded as unanswered (one
   failed operation) and the loop stops. *)
let closed_loop ctx s ~first ~limit ~seconds ~span =
  let t0 = now_s () in
  let replies = ref [] in
  let lost =
    try
      Client.with_client s.endpoint (fun conn ->
          let i = ref first in
          while !i - first < limit && not (!i mod 5 = 0 && now_s () -. t0 >= seconds) do
            let t = now_s () in
            let reply served =
              replies := { index = !i; rtt_ms = (now_s () -. t) *. 1000.0; served } :: !replies
            in
            (match span (fun () -> Client.submit conn (spec ctx !i)) with
            | Protocol.Result r -> reply (Some r)
            | _ -> reply None
            | exception e -> reply None; raise e);
            incr i
          done);
      None
    with e -> Some (Printexc.to_string e)
  in
  let wall_s = now_s () -. t0 in
  expect
    (Printf.sprintf "the client kept its connection (%s)"
       (Option.value lost ~default:""))
    (lost = None);
  (Array.of_list (List.rev !replies), wall_s)

let payload_line (p : Protocol.result_payload) =
  Printf.sprintf "%s|%s|%h|%h" p.request_key p.summary.text p.summary.fit_r
    p.summary.fit_theta_max

(* Per-request checks; each request is one operation. *)
let check_replies ctx replies =
  let by_index = Hashtbl.create 64 in
  Array.iter (fun r -> Hashtbl.replace by_index r.index r) replies;
  Array.iter
    (fun r ->
      operation (fun () ->
          match r.served with
          | None -> fail "request %d was not answered with a result" r.index
          | Some served ->
              let expected = Experiment.request_key (config_of_spec (spec ctx r.index)) in
              expect "served request_key = Experiment.request_key"
                (served.payload.request_key = expected);
              if r.index mod 5 = 4 then
                match Hashtbl.find_opt by_index (r.index - 3) with
                | Some { served = Some orig; _ } ->
                    expect "a re-submission gets the original's answer"
                      (payload_line orig.payload = payload_line served.payload);
                    expect "exactly one of a re-submitted pair executes"
                      (orig.coalesced <> served.coalesced)
                | _ -> fail "request %d re-submits a missing request" r.index))
    replies

let goldens ctx replies =
  let lines =
    Array.to_list replies
    |> List.filter (fun r -> r.index < 20)
    |> List.filter_map (fun r -> Option.map (fun s -> payload_line s.Protocol.payload) r.served)
  in
  golden ctx "serve.payloads" (digest (String.concat "\n" lines))

let executed s =
  (Client.with_client s.endpoint Client.get_stats).Protocol.executed

let limit ctx = if ctx.smoke then 20 else max_int

(* The traced run submits a fixed number of requests per phase, so its
   counts ([serve.executed]) repeat exactly. *)
let traced_requests ctx = if ctx.smoke then 20 else 300

let with_server ctx f =
  let s, setup_s =
    repeated_setup ctx
      ~discard:stop
      (start ctx)
  in
  Fun.protect ~finally:(fun () -> kill s) (fun () -> f s setup_s)

let run ctx =
  with_server ctx (fun s setup_s ->
      let executed0 = executed s in
      let replies, wall_s =
        closed_loop ctx s ~first:0 ~limit:(limit ctx) ~seconds:ctx.seconds
          ~span:(fun f -> f ())
      in
      let n = Array.length replies in
      check_replies ctx replies;
      let executed = executed s - executed0 in
      expect
        (Printf.sprintf "executed = 0.8 * submitted (%d of %d)" executed n)
        (n mod 5 = 0 && executed * 5 = n * 4);
      goldens ctx replies;
      let peak_rss = peak_rss_mb ~pid:(string_of_int s.pid) () in
      stop s;
      e2e ~setup_s ~latencies_ms:(Array.map (fun r -> r.rtt_ms) replies)
        ~wall_s ~peak_rss ())

let run_traced ctx =
  with_server ctx (fun s setup_s ->
      let limit = traced_requests ctx in
      let untraced, _ =
        closed_loop ctx s ~first:0 ~limit ~seconds:infinity
          ~span:(fun f -> f ())
      in
      check_replies ctx untraced;
      let executed0 = executed s in
      let rec_ = Span.create () in
      let gc0 = gc_now () in
      let replies, traced_wall_s =
        closed_loop ctx s ~first:limit ~limit ~seconds:infinity
          ~span:(Span.with_span rec_ "serve.rtt")
      in
      let n = Array.length replies in
      let gc = gc_metrics ~since:gc0 ~ops:n in
      check_replies ctx replies;
      let executed = executed s - executed0 in
      (* Compute time in pairs: a fresh submission, then an in-process
         [Experiment.run] of the same spec on one domain, as the server's
         worker runs it.  Back to back, both halves of a pair see the same
         host speed. *)
      let pairs =
        Client.with_client s.endpoint (fun conn ->
            List.filter_map
              (fun j ->
                let i = (2 * limit) + (5 * j) in
                match Client.submit conn (spec ctx i) with
                | Protocol.Result sv ->
                    let cfg = { (config_of_spec (spec ctx i)) with domains = 1 } in
                    let _, c = time (fun () -> Experiment.run cfg) in
                    Some (sv.Protocol.service_ms, c *. 1000.0)
                | _ ->
                    fail "compute-pair request %d was not answered with a result" i;
                    None)
              (List.init (compute_samples ctx) Fun.id))
      in
      stop s;
      let executes =
        List.filter_map
          (fun r ->
            match r.served with
            | Some sv when not sv.coalesced -> Some (r, sv)
            | _ -> None)
          (Array.to_list replies)
      in
      let med f = median (Array.of_list (List.map f executes)) in
      let pair_med f = median (Array.of_list (List.map f pairs)) in
      let service_ms = med (fun (_, sv) -> sv.Protocol.service_ms) in
      let coalesced =
        Array.fold_left
          (fun acc r ->
            match r.served with Some sv when sv.coalesced -> acc + 1 | _ -> acc)
          0 replies
      in
      traced ~setup_s
        ~untraced:(Array.map (fun r -> r.rtt_ms) untraced)
        ~traced:(Array.map (fun r -> r.rtt_ms) replies)
        ~traced_wall_s ~spans:[ rec_ ]
        ([
           ("serve.rtt_ms", med (fun (r, _) -> r.rtt_ms));
           ("serve.service_ms", service_ms);
           ("serve.wire_ms", med (fun (r, sv) -> r.rtt_ms -. sv.Protocol.service_ms));
           ("serve.compute_ms", pair_med snd);
           ("serve.queue_ms", pair_med (fun (service, compute) -> service -. compute));
           ("serve.coalesced_ratio", float_of_int coalesced /. float_of_int (max 1 n));
           ("serve.executed", float_of_int executed);
         ]
        @ gc))
