(* Cluster layer: transport endpoint parsing, consistent-hash ring
   invariants, TCP framing under adversity (frames split at every byte
   boundary, oversize rejection, slow-loris read deadlines), the peer
   store RPCs, fetch-through between two live workers, and the
   coordinator's failure handling — a worker dying mid-job gets its job
   re-dispatched, an ejected worker is readmitted by the health prober. *)

module P = Dl_serve.Protocol
module Transport = Dl_serve.Transport
module Client = Dl_serve.Client
module Codec = Dl_store.Codec
module Ring = Dl_cluster.Hash_ring
module Worker = Dl_cluster.Worker
module Coord = Dl_cluster.Coord

let loopback = Transport.Tcp ("127.0.0.1", 0)

let tmp_dir =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dlcluster-test-%d-%d-%s" (Unix.getpid ()) !counter tag)
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let quick_spec seed = P.job_spec ~seed ~max_random_vectors:32 (P.Builtin "c17")

(* --- transport endpoints -------------------------------------------------- *)

let test_endpoint_parsing () =
  let check_ep what expect got =
    Alcotest.(check bool) what true (expect = got)
  in
  check_ep "host:port is TCP"
    (Transport.Tcp ("127.0.0.1", 8080))
    (Transport.of_string "127.0.0.1:8080");
  check_ep "hostname:port is TCP"
    (Transport.Tcp ("localhost", 0))
    (Transport.of_string "localhost:0");
  check_ep "plain path is a Unix socket"
    (Transport.Unix_socket "/tmp/dlproj.sock")
    (Transport.of_string "/tmp/dlproj.sock");
  check_ep "path with colon but non-numeric port is a Unix socket"
    (Transport.Unix_socket "/tmp/odd:name")
    (Transport.of_string "/tmp/odd:name");
  (* to_string round-trips through of_string *)
  List.iter
    (fun ep ->
      check_ep
        (Printf.sprintf "round-trip %s" (Transport.to_string ep))
        ep
        (Transport.of_string (Transport.to_string ep)))
    [
      Transport.Tcp ("127.0.0.1", 9999);
      Transport.Tcp ("localhost", 1);
      Transport.Unix_socket "/tmp/a.sock";
    ]

(* --- consistent-hash ring ------------------------------------------------- *)

let keys n = List.init n (fun i -> Printf.sprintf "stage-key-%d" i)

let test_ring_determinism () =
  let a = Ring.create [ "w1"; "w2"; "w3" ] in
  let b = Ring.create [ "w3"; "w1"; "w2" ] in
  List.iter
    (fun k ->
      Alcotest.(check string)
        (Printf.sprintf "home(%s) independent of member order" k)
        (Ring.home a k) (Ring.home b k))
    (keys 200);
  Alcotest.(check (list string))
    "members sorted + deduped" [ "w1"; "w2"; "w3" ]
    (Ring.members (Ring.create [ "w2"; "w3"; "w1"; "w2" ]))

let test_ring_balance () =
  let members = [ "w1"; "w2"; "w3"; "w4" ] in
  let ring = Ring.create members in
  let counts = Hashtbl.create 4 in
  let n = 2000 in
  List.iter
    (fun k ->
      let m = Ring.home ring k in
      Hashtbl.replace counts m (1 + Option.value ~default:0 (Hashtbl.find_opt counts m)))
    (keys n);
  List.iter
    (fun m ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts m) in
      (* perfect balance would be n/4; 64 vnodes keeps every member
         within a loose factor of it *)
      if c < n / 16 then
        Alcotest.failf "member %s owns only %d/%d keys" m c n)
    members

(* Rings over a member list with and without "w4": read forwards that is
   adding a member, read backwards removing it. *)
let test_ring_minimal_movement () =
  let before = Ring.create [ "w1"; "w2"; "w3" ] in
  let after = Ring.create [ "w1"; "w2"; "w3"; "w4" ] in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let h0 = Ring.home before k and h1 = Ring.home after k in
      if h0 <> h1 then begin
        incr moved;
        (* the defining property: a key only ever moves TO the new node *)
        Alcotest.(check string)
          (Printf.sprintf "%s moved to the new member" k)
          "w4" h1
      end)
    (keys 1000);
  if !moved = 0 then Alcotest.fail "adding a member moved no keys at all";
  if !moved > 600 then
    Alcotest.failf "adding one of four members moved %d/1000 keys" !moved

let test_ring_route () =
  let ring = Ring.create [ "w1"; "w2"; "w3" ] in
  List.iter
    (fun k ->
      let r = Ring.route ring k in
      Alcotest.(check int) "route covers every member" 3 (List.length r);
      Alcotest.(check string) "route starts at home" (Ring.home ring k)
        (List.hd r);
      Alcotest.(check int) "route members distinct" 3
        (List.length (List.sort_uniq compare r));
      Alcotest.(check int) "route ?n truncates" 2
        (List.length (Ring.route ~n:2 ring k)))
    (keys 50);
  Alcotest.(check (list string)) "empty ring routes nowhere" []
    (Ring.route (Ring.create []) "k")

(* --- framing adversity over a socketpair ---------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

(* The exact wire frame for a request: 4-byte LE length + codec envelope. *)
let frame_bytes req =
  let payload = Codec.to_bytes P.request_codec req in
  let n = Bytes.length payload in
  let frame = Bytes.create (4 + n) in
  Bytes.set_int32_le frame 0 (Int32.of_int n);
  Bytes.blit payload 0 frame 4 n;
  frame

let test_split_at_every_boundary () =
  let req = P.Submit (quick_spec 3) in
  let frame = frame_bytes req in
  let len = Bytes.length frame in
  for split = 1 to len - 1 do
    with_socketpair (fun a b ->
        let writer =
          Thread.create
            (fun () ->
              ignore (Unix.write a frame 0 split);
              Thread.delay 0.005;
              ignore (Unix.write a frame split (len - split)))
            ()
        in
        (match P.recv ~deadline_s:5.0 P.request_codec b with
        | Some got ->
            if got <> req then
              Alcotest.failf "split at byte %d decoded a different request"
                split
        | None -> Alcotest.failf "split at byte %d read as EOF" split);
        Thread.join writer)
  done

let test_oversize_frame_rejected () =
  with_socketpair (fun a b ->
      let header = Bytes.create 4 in
      Bytes.set_int32_le header 0 (Int32.of_int (P.default_max_frame + 1));
      ignore (Unix.write a header 0 4);
      match P.recv P.request_codec b with
      | exception P.Protocol_error _ -> ()
      | Some _ | None -> Alcotest.fail "oversized frame was not rejected")

let test_slow_loris_deadline () =
  with_socketpair (fun a b ->
      let frame = frame_bytes (P.Submit (quick_spec 1)) in
      (* trickle a prefix, then stall past the deadline *)
      ignore (Unix.write a frame 0 3);
      let t0 = Unix.gettimeofday () in
      (match P.recv ~deadline_s:0.2 P.request_codec b with
      | exception P.Protocol_error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "deadline error names itself: %s" msg)
            true
            (String.length msg > 0)
      | Some _ | None -> Alcotest.fail "stalled frame was not cut off");
      let waited = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "cut off near the deadline (%.2f s)" waited)
        true
        (waited < 2.0))

let test_deadline_starts_at_first_byte () =
  with_socketpair (fun a b ->
      let frame = frame_bytes P.Ping in
      let writer =
        Thread.create
          (fun () ->
            (* idle longer than the deadline, then deliver promptly: the
               deadline clock only starts at the frame's first byte, so
               an idle connection must never expire *)
            Thread.delay 0.35;
            ignore (Unix.write a frame 0 (Bytes.length frame)))
          ()
      in
      (match P.recv ~deadline_s:0.2 P.request_codec b with
      | Some P.Ping -> ()
      | Some _ -> Alcotest.fail "decoded a different request"
      | None -> Alcotest.fail "read as EOF"
      | exception P.Protocol_error m ->
          Alcotest.failf "idle connection expired: %s" m);
      Thread.join writer)

(* --- peer store RPCs ------------------------------------------------------ *)

let with_worker ?cache_dir ?on_job_start ?(listen = loopback) f =
  let w =
    Worker.start ~workers:1 ~domains_per_worker:1 ?on_job_start ?cache_dir
      ~listen ()
  in
  Fun.protect ~finally:(fun () -> Worker.stop w) (fun () -> f w)

let with_worker_on_port port f =
  with_worker ~listen:(Transport.Tcp ("127.0.0.1", port)) f

let test_store_rpcs () =
  let dir = tmp_dir "store" in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      with_worker ~cache_dir:dir (fun w ->
          Client.with_client (Worker.bound w) (fun c ->
              let key = String.make 64 'a' in
              Alcotest.(check (option bytes)) "get before put" None
                (Client.store_get c key);
              (* any valid codec envelope is accepted *)
              let artifact = Codec.to_bytes P.request_codec P.Ping in
              Alcotest.(check bool) "valid put acked" true
                (Client.store_put c ~key artifact);
              Alcotest.(check (option bytes)) "get returns the artifact"
                (Some artifact) (Client.store_get c key);
              (* a corrupted envelope is rejected before persisting *)
              let corrupt = Bytes.copy artifact in
              Bytes.set corrupt
                (Bytes.length corrupt - 1)
                (Char.chr
                   (Char.code (Bytes.get corrupt (Bytes.length corrupt - 1))
                    lxor 0xff));
              let key2 = String.make 64 'b' in
              Alcotest.(check bool) "corrupt put refused" false
                (Client.store_put c ~key:key2 corrupt);
              Alcotest.(check (option bytes)) "corrupt artifact not stored"
                None (Client.store_get c key2))))

let test_fetch_through () =
  let dir1 = tmp_dir "ft1" and dir2 = tmp_dir "ft2" in
  Fun.protect
    ~finally:(fun () ->
      remove_tree dir1;
      remove_tree dir2)
    (fun () ->
      with_worker ~cache_dir:dir1 (fun w1 ->
          with_worker ~cache_dir:dir2 (fun w2 ->
              let fleet = [ Worker.bound w1; Worker.bound w2 ] in
              List.iter (fun w -> Worker.set_peers w fleet) [ w1; w2 ];
              let spec = quick_spec 5 in
              let run_stage w =
                Client.with_client (Worker.bound w) (fun c ->
                    match Client.run_stage c spec ~stage:"mapping" with
                    | P.Stage_done { key; outcome; _ } -> (key, outcome)
                    | P.Server_error m ->
                        Alcotest.failf "serve-stage: server error: %s" m
                    | _ -> Alcotest.fail "serve-stage: unexpected reply")
              in
              let first_key, first_outcome = run_stage w1 in
              Alcotest.(check bool) "first run computes" true
                (match first_outcome with
                | P.Stage_computed -> true
                | P.Stage_hit | P.Stage_fetched -> false);
              let second_key, second_outcome = run_stage w2 in
              (* w2 has nothing locally; the artifact must arrive via the
                 peer tier, either fetched on demand or already pushed to
                 w2 as the key's home node *)
              Alcotest.(check bool) "second worker does not recompute" true
                (match second_outcome with
                | P.Stage_fetched | P.Stage_hit -> true
                | P.Stage_computed -> false);
              Alcotest.(check string) "same stage key on both workers"
                first_key second_key)))

(* --- stage closures and fan-out waves ------------------------------------- *)

module Experiment = Dl_core.Experiment

let full_cfg () =
  Experiment.config ~seed:5 ~max_random_vectors:32 ~domains:1
    ~mc:(Experiment.mc ~dies:512 ()) ~bootstrap:20 ~ndet:4
    (Dl_netlist.Benchmarks.c17 ())

let test_run_stage_closures () =
  (* Every stage's closure, written out by hand from the paper's flow: a
     stage runs after exactly the stages its key's inputs name,
     transitively, and nothing else — "projection" included. *)
  let core = [ "mapping"; "atpg"; "fault-universe"; "fault-sim" ] in
  let closures =
    [
      ("mapping", [ "mapping" ]);
      ("atpg", [ "mapping"; "atpg" ]);
      ("fault-universe", [ "mapping"; "atpg"; "fault-universe" ]);
      ("fault-sim", core);
      ("layout-ifa", [ "mapping"; "layout-ifa" ]);
      ("swift", [ "mapping"; "atpg"; "layout-ifa"; "swift" ]);
      ("projection", core @ [ "layout-ifa"; "swift"; "projection" ]);
      ("wafer-mc", [ "mapping"; "atpg"; "layout-ifa"; "swift"; "wafer-mc" ]);
      ("bootstrap-fit", core @ [ "layout-ifa"; "swift"; "bootstrap-fit" ]);
      ("ndet-sim", [ "mapping"; "atpg"; "fault-universe"; "ndet-sim" ]);
      ("ndet-atpg", [ "mapping"; "atpg"; "fault-universe"; "ndet-atpg" ]);
    ]
  in
  let cfg = full_cfg () in
  let keys = Experiment.stage_keys cfg in
  Alcotest.(check (list string))
    "a closure for every stage" (List.map fst keys) (List.map fst closures);
  List.iter
    (fun (stage, closure) ->
      let reports = Experiment.run_stage cfg ~stage in
      let names =
        List.map (fun (r : Dl_store.Stage.report) -> r.stage) reports
      in
      Alcotest.(check (list string)) (stage ^ " closure") closure names;
      Alcotest.(check string)
        (stage ^ " runs last") stage
        (List.nth names (List.length names - 1));
      Alcotest.(check (list (pair string string)))
        (stage ^ " keys are stage_keys'")
        (List.map (fun n -> (n, List.assoc n keys)) names)
        (List.map
           (fun (r : Dl_store.Stage.report) -> (r.stage, r.key))
           reports))
    closures;
  let refused what cfg stage =
    match Experiment.run_stage cfg ~stage with
    | _ -> Alcotest.failf "%s: run_stage %S accepted" what stage
    | exception Invalid_argument _ -> ()
  in
  List.iter (refused "unknown" cfg) [ "nonesuch"; "netlist"; "" ];
  let plain =
    Experiment.config ~max_random_vectors:32 (Dl_netlist.Benchmarks.c17 ())
  in
  List.iter (refused "option off" plain)
    [ "wafer-mc"; "bootstrap-fit"; "ndet-sim"; "ndet-atpg" ]

let test_stage_waves () =
  let fanned = [ "atpg"; "layout-ifa"; "fault-sim"; "swift" ] in
  let plain = Experiment.config (Dl_netlist.Benchmarks.c17 ()) in
  Alcotest.(check (list (list string)))
    "default fan-out waves"
    [ [ "atpg"; "layout-ifa" ]; [ "fault-sim"; "swift" ] ]
    (Experiment.stage_waves plain fanned);
  Alcotest.(check (list (list string)))
    "given order does not matter"
    (Experiment.stage_waves plain fanned)
    (Experiment.stage_waves plain (List.rev fanned));
  Alcotest.(check (list (list string)))
    "stages that are off are dropped" [ [ "atpg" ] ]
    (Experiment.stage_waves plain [ "wafer-mc"; "atpg"; "ndet-sim" ]);
  let cfg = full_cfg () in
  Alcotest.(check (list (list string)))
    "every stage, every option on"
    [
      [ "mapping" ];
      [ "atpg"; "layout-ifa" ];
      [ "fault-universe"; "swift" ];
      [ "fault-sim"; "wafer-mc"; "ndet-sim"; "ndet-atpg" ];
      [ "projection"; "bootstrap-fit" ];
    ]
    (Experiment.stage_waves cfg (List.map fst (Experiment.stage_keys cfg)))

let test_fanout_coordinator () =
  (* A fan-out coordinator over two workers: the submit's answer equals a
     direct run, and the workers ran the four warm-up stage jobs (one per
     fanned stage key) besides the final submit. *)
  let dir1 = tmp_dir "fan1" and dir2 = tmp_dir "fan2" in
  let jobs = ref [] and lock = Mutex.create () in
  let on_job_start key = Mutex.protect lock (fun () -> jobs := key :: !jobs) in
  Fun.protect
    ~finally:(fun () ->
      remove_tree dir1;
      remove_tree dir2)
    (fun () ->
      with_worker ~cache_dir:dir1 ~on_job_start (fun w1 ->
          with_worker ~cache_dir:dir2 ~on_job_start (fun w2 ->
              let fleet = [ Worker.bound w1; Worker.bound w2 ] in
              List.iter (fun w -> Worker.set_peers w fleet) [ w1; w2 ];
              let coord =
                Coord.start
                  (Coord.config ~fanout_stages:true ~probe_period_s:10.0
                     ~listen:loopback ~workers:fleet ())
              in
              Fun.protect
                ~finally:(fun () -> Coord.stop coord)
                (fun () ->
                  let reply =
                    Client.with_client (Coord.bound coord) (fun c ->
                        Client.submit c (quick_spec 3))
                  in
                  let cfg =
                    Experiment.config ~seed:3 ~max_random_vectors:32
                      ~domains:1 (Dl_netlist.Benchmarks.c17 ())
                  in
                  let direct = Experiment.run cfg in
                  let expect =
                    P.payload_of_experiment
                      ~key:(Experiment.request_key cfg) direct
                  in
                  (match reply with
                  | P.Result served ->
                      let strip (p : P.result_payload) =
                        { p with stage_hits = 0; stage_misses = 0 }
                      in
                      Alcotest.(check bool)
                        "fanned-out answer equals a direct run" true
                        (strip served.P.payload = strip expect)
                  | P.Server_error m -> Alcotest.failf "coordinator: %s" m
                  | _ -> Alcotest.fail "unexpected reply kind");
                  let keys = Experiment.stage_keys cfg in
                  let stage_jobs =
                    List.filter
                      (fun k -> String.starts_with ~prefix:"stage/" k)
                      !jobs
                  in
                  Alcotest.(check (list string))
                    "one stage job per fanned stage"
                    (List.sort compare
                       (List.map
                          (fun s -> "stage/" ^ List.assoc s keys)
                          [ "atpg"; "layout-ifa"; "fault-sim"; "swift" ]))
                    (List.sort compare stage_jobs);
                  Alcotest.(check int) "and one full job" 1
                    (List.length !jobs - List.length stage_jobs)))))

(* --- coordinator failure handling ----------------------------------------- *)

(* A worker that accepts one connection, reads one request frame, then
   drops the connection without replying — a worker dying mid-job. *)
let start_dying_worker () =
  let fd = Transport.listen loopback in
  let bound = Transport.bound_endpoint fd loopback in
  let thread =
    Thread.create
      (fun () ->
        match Unix.accept ~cloexec:true fd with
        | conn, _ ->
            (try ignore (P.recv P.request_codec conn)
             with P.Protocol_error _ | Unix.Unix_error _ -> ());
            (try Unix.close conn with Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ())
        | exception Unix.Unix_error _ -> ())
      ()
  in
  (bound, thread)

let test_redispatch_on_worker_death () =
  let dying, dying_thread = start_dying_worker () in
  with_worker (fun live ->
      let coord =
        Coord.start
          (Coord.config ~probe_period_s:10.0 ~listen:loopback
             ~workers:[ dying; Worker.bound live ]
             ())
      in
      Fun.protect
        ~finally:(fun () -> Coord.stop coord)
        (fun () ->
          (* pick a spec whose request key homes on the dying worker, so
             the first dispatch is guaranteed to hit it *)
          let ring =
            Ring.create
              [ Transport.to_string dying;
                Transport.to_string (Worker.bound live) ]
          in
          let target = Transport.to_string dying in
          let rec find_seed s =
            if s > 200 then Alcotest.fail "no seed hashed to the dying worker"
            else
              let circuit = Dl_netlist.Benchmarks.c17 () in
              let cfg =
                Dl_core.Experiment.config ~seed:s ~max_random_vectors:32
                  circuit
              in
              if Ring.home ring (Dl_core.Experiment.request_key cfg) = target
              then s
              else find_seed (s + 1)
          in
          let seed = find_seed 0 in
          let reply =
            Client.with_client (Coord.bound coord) (fun c ->
                Client.submit c (quick_spec seed))
          in
          (match reply with
          | P.Result served ->
              Alcotest.(check bool) "re-dispatched job produced an answer"
                true
                (served.P.payload.P.vectors > 0)
          | P.Server_error m -> Alcotest.failf "coordinator error: %s" m
          | _ -> Alcotest.fail "unexpected reply kind");
          (* the dead worker was ejected along the way *)
          Alcotest.(check (list string))
            "only the live worker remains"
            [ Transport.to_string (Worker.bound live) ]
            (Coord.workers_alive coord)));
  Thread.join dying_thread

let test_probe_readmission () =
  with_worker (fun live ->
      (* reserve a port, then leave it dead: the coordinator starts with
         an unreachable worker *)
      let dead_fd = Transport.listen loopback in
      let dead = Transport.bound_endpoint dead_fd loopback in
      Transport.close_quietly dead_fd;
      let coord =
        Coord.start
          (Coord.config ~probe_period_s:0.1 ~connect_timeout_s:0.5
             ~listen:loopback
             ~workers:[ dead; Worker.bound live ]
             ())
      in
      Fun.protect
        ~finally:(fun () -> Coord.stop coord)
        (fun () ->
          (* two failed probe rounds eject the dead endpoint *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          while
            List.length (Coord.workers_alive coord) > 1
            && Unix.gettimeofday () < deadline
          do
            Thread.delay 0.02
          done;
          Alcotest.(check (list string))
            "dead endpoint ejected"
            [ Transport.to_string (Worker.bound live) ]
            (Coord.workers_alive coord);
          (* bring a real worker up on the reserved port: the prober must
             readmit it *)
          match dead with
          | Transport.Unix_socket _ -> Alcotest.fail "expected a TCP endpoint"
          | Transport.Tcp (_, port) ->
              with_worker_on_port port (fun _revived ->
                  let deadline = Unix.gettimeofday () +. 10.0 in
                  while
                    List.length (Coord.workers_alive coord) < 2
                    && Unix.gettimeofday () < deadline
                  do
                    Thread.delay 0.02
                  done;
                  Alcotest.(check int) "revived worker readmitted" 2
                    (List.length (Coord.workers_alive coord)))))

(* A worker that accepts every connection, reads what it is sent and
   never answers.  [requests ()] counts the frames it has read. *)
let start_silent_worker () =
  let fd = Transport.listen loopback in
  let bound = Transport.bound_endpoint fd loopback in
  let mutex = Mutex.create () in
  let held = ref [] and requests = ref 0 and stopped = ref false in
  let rec hold conn =
    match P.read_frame conn with
    | Some _ ->
        Mutex.protect mutex (fun () -> incr requests);
        hold conn
    | None -> ()
    | exception (P.Protocol_error _ | Unix.Unix_error _) -> ()
  in
  let rec accept () =
    match Unix.accept ~cloexec:true fd with
    | conn, _ ->
        Mutex.protect mutex (fun () -> held := conn :: !held);
        ignore (Thread.create hold conn);
        accept ()
    | exception Unix.Unix_error _ -> ()
  in
  let acceptor = Thread.create accept () in
  let stop () =
    Mutex.protect mutex (fun () ->
        if not !stopped then begin
          stopped := true;
          (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
          List.iter
            (fun c ->
              try Unix.shutdown c Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
            !held
        end);
    Thread.join acceptor;
    Transport.close_quietly fd
  in
  (bound, (fun () -> Mutex.protect mutex (fun () -> !requests)), stop)

(* [f ()] on its own thread; [Some v] once it has returned, [None] if it
   has not within [seconds].  A hung [f] is left behind, so the test fails
   instead of hanging. *)
let within seconds f =
  let result = Atomic.make None in
  ignore (Thread.create (fun () -> Atomic.set result (Some (f ()))) ());
  let deadline = Unix.gettimeofday () +. seconds in
  while Atomic.get result = None && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  Atomic.get result

let test_stop_with_silent_worker () =
  let worker, requests, stop_worker = start_silent_worker () in
  Fun.protect ~finally:stop_worker (fun () ->
      let probe_period_s = 0.5 in
      let coord =
        Coord.start
          (Coord.config ~probe_period_s ~listen:loopback ~workers:[ worker ] ())
      in
      (* One submit relayed to the worker before two unanswered probes
         eject it; the probe is its first request. *)
      let reply = Atomic.make None in
      let client =
        Thread.create
          (fun () ->
            Atomic.set reply
              (Some
                 (try
                    Client.with_client (Coord.bound coord) (fun c ->
                        match Client.submit c (quick_spec 1) with
                        | P.Server_error m -> m
                        | _ -> "an answer")
                  with P.Protocol_error m -> m)))
          ()
      in
      let deadline = Unix.gettimeofday () +. 5.0 in
      while requests () < 2 && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      Alcotest.(check bool) "the worker holds a probe and the relay" true
        (requests () >= 2);
      let drain_s = 10.0 and slack_s = 2.0 in
      let t0 = Unix.gettimeofday () in
      match within (drain_s +. probe_period_s +. slack_s) (fun () -> Coord.stop coord) with
      | None ->
          Alcotest.failf "Coord.stop still blocked after %.1f s"
            (drain_s +. probe_period_s +. slack_s)
      | Some () ->
          let took = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "stop returned in %.1f s, after the drain" took)
            true
            (took >= drain_s -. 0.5);
          Thread.join client;
          Alcotest.(check (option string)) "the client is told why"
            (Some "coordinator stopped before a worker answered")
            (Atomic.get reply))

let test_coord_rejects_probe_period () =
  List.iter
    (fun p ->
      match
        Coord.config ~probe_period_s:p ~listen:loopback ~workers:[ loopback ] ()
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "probe_period_s %g accepted" p)
    [ 0.0; -1.0; Float.nan; Float.neg_infinity ]

let () =
  Alcotest.run "dl_cluster"
    [
      ( "transport",
        [ Alcotest.test_case "endpoint parsing" `Quick test_endpoint_parsing ] );
      ( "hash-ring",
        [
          Alcotest.test_case "deterministic across member order" `Quick
            test_ring_determinism;
          Alcotest.test_case "balanced ownership" `Quick test_ring_balance;
          Alcotest.test_case "minimal movement on add/remove" `Quick
            test_ring_minimal_movement;
          Alcotest.test_case "route order and truncation" `Quick
            test_ring_route;
        ] );
      ( "framing",
        [
          Alcotest.test_case "frame split at every byte boundary" `Quick
            test_split_at_every_boundary;
          Alcotest.test_case "oversize frame rejected" `Quick
            test_oversize_frame_rejected;
          Alcotest.test_case "slow-loris read deadline" `Quick
            test_slow_loris_deadline;
          Alcotest.test_case "deadline starts at first byte" `Quick
            test_deadline_starts_at_first_byte;
        ] );
      ( "store-tier",
        [
          Alcotest.test_case "store get/put RPCs + corruption" `Quick
            test_store_rpcs;
          Alcotest.test_case "fetch-through between workers" `Quick
            test_fetch_through;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "re-dispatch on worker death" `Quick
            test_redispatch_on_worker_death;
          Alcotest.test_case "probe ejection and readmission" `Quick
            test_probe_readmission;
          Alcotest.test_case "fan-out submit = direct run" `Quick
            test_fanout_coordinator;
          Alcotest.test_case "non-positive probe period rejected" `Quick
            test_coord_rejects_probe_period;
          Alcotest.test_case "stop returns with a silent worker" `Slow
            test_stop_with_silent_worker;
        ] );
      ( "stage-table",
        [
          Alcotest.test_case "run_stage runs exactly each closure" `Quick
            test_run_stage_closures;
          Alcotest.test_case "fan-out waves derived from the table" `Quick
            test_stage_waves;
        ] );
    ]
