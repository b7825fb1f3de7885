(* In-memory span recorder for the traced benchmark runs.

   A span is a named interval on the monotonic clock, opened and closed
   around one call into a library's public interface.  A span opened while
   another is open on the same recorder is its child.  One recorder belongs
   to one thread, so recording takes no lock.

   Self time of a span = its duration minus the durations of its direct
   children.  A recorder is single-threaded, so children never overlap and
   this is exactly the part of the interval no child covers. *)

type span = {
  name : string;
  start_ns : int64;
  mutable stop_ns : int64;
  parent : int;  (** Index of the enclosing span, or -1 at top level. *)
}

type t = {
  mutable rev : span list;  (** Every span, most recently opened first. *)
  mutable count : int;
  mutable stack : int list;  (** Indices of the open spans, innermost first. *)
}

let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) *. 1e-9
let create () = { rev = []; count = 0; stack = [] }

let with_span t name f =
  let parent = match t.stack with [] -> -1 | p :: _ -> p in
  let s = { name; start_ns = now_ns (); stop_ns = 0L; parent } in
  t.stack <- t.count :: t.stack;
  t.count <- t.count + 1;
  t.rev <- s :: t.rev;
  Fun.protect f ~finally:(fun () ->
      s.stop_ns <- now_ns ();
      t.stack <- List.tl t.stack)

let spans t = Array.of_list (List.rev t.rev)
let duration_s s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) *. 1e-9

(* Per span: (span, self seconds). *)
let with_self t =
  let a = spans t in
  let children = Array.make (Array.length a) 0.0 in
  Array.iter
    (fun s -> if s.parent >= 0 then
        children.(s.parent) <- children.(s.parent) +. duration_s s)
    a;
  Array.mapi (fun i s -> (s, duration_s s -. children.(i))) a

type row = { calls : int; total_s : float; self_s : float }

(* Aggregate by span name over several recorders, in first-seen order. *)
let table recorders =
  let rows = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun t ->
      Array.iter
        (fun (s, self) ->
          let r =
            match Hashtbl.find_opt rows s.name with
            | Some r -> r
            | None ->
                order := s.name :: !order;
                { calls = 0; total_s = 0.0; self_s = 0.0 }
          in
          Hashtbl.replace rows s.name
            { calls = r.calls + 1; total_s = r.total_s +. duration_s s;
              self_s = r.self_s +. self })
        (with_self t))
    recorders;
  List.rev_map (fun n -> (n, Hashtbl.find rows n)) !order

(* Share of the recorder's active window (first span start to last span
   stop) spent under top-level spans: how much of its thread's time the
   trace attributes. *)
let coverage t =
  let a = spans t in
  if Array.length a = 0 then 0.0
  else
    let first = a.(0).start_ns
    and last = Array.fold_left (fun m s -> max m s.stop_ns) 0L a in
    let covered =
      Array.fold_left
        (fun acc s -> if s.parent < 0 then acc +. duration_s s else acc)
        0.0 a
    in
    covered /. (Int64.to_float (Int64.sub last first) *. 1e-9)

(* [self %] is a share of the recorders' combined time: [wall_s] per
   recorder. *)
let print_table ~wall_s recorders =
  let thread_s = wall_s *. float_of_int (List.length recorders) in
  Printf.printf "%-24s %7s %11s %11s %7s\n" "span" "calls" "total s"
    "self s" "self %";
  List.iter
    (fun (name, r) ->
      Printf.printf "%-24s %7d %11.6f %11.6f %6.1f%%\n" name r.calls r.total_s
        r.self_s (100.0 *. r.self_s /. thread_s))
    (table recorders)

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write_chrome path recorders =
  let base =
    List.fold_left
      (fun acc t ->
        Array.fold_left (fun acc s -> min acc s.start_ns) acc (spans t))
      Int64.max_int recorders
  in
  let us ns = Int64.to_float (Int64.sub ns base) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  List.iteri
    (fun i t ->
      Array.iter
        (fun s ->
          if not !first then output_string oc ",\n";
          first := false;
          Printf.fprintf oc
            "{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}"
            s.name (us s.start_ns) (us s.stop_ns -. us s.start_ns) (i + 1))
        (spans t))
    recorders;
  output_string oc "]}\n";
  close_out oc
