type t = {
  (* Sorted by point; binary-searched by [home]. *)
  points : (int * string) array;
  members : string list;
}

let default_replicas = 64

(* 63-bit ring position from an MD5 prefix — stable across runs,
   processes and architectures (unlike [Hashtbl.hash], whose output is
   version-dependent and only 30-bit). *)
let point_of s =
  let d = Digest.string s in
  let b i = Char.code d.[i] in
  let open Int64 in
  let v =
    List.fold_left
      (fun acc i -> logor (shift_left acc 8) (of_int (b i)))
      0L [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  to_int (shift_right_logical v 1)

let create ?(replicas = default_replicas) members =
  if replicas < 1 then invalid_arg "Hash_ring.create: replicas < 1";
  let members = List.sort_uniq compare members in
  let points =
    members
    |> List.concat_map (fun m ->
           List.init replicas (fun i ->
               (point_of (Printf.sprintf "%s#%d" m i), m)))
    |> Array.of_list
  in
  Array.sort compare points;
  { points; members }

let members t = t.members
let is_empty t = t.members = []

(* Index of the first ring point clockwise of [p] (wrapping). *)
let successor t p =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.points.(mid) <= p then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let home t key =
  if t.members = [] then invalid_arg "Hash_ring.home: empty ring";
  snd t.points.(successor t (point_of key))

(* Distinct members in ring order starting at the key's home — the
   preference list peers consult for fetch-through. *)
let route ?n t key =
  if t.members = [] then []
  else begin
    let want =
      match n with
      | None -> List.length t.members
      | Some n -> min n (List.length t.members)
    in
    let total = Array.length t.points in
    let start = successor t (point_of key) in
    let seen = Hashtbl.create 8 in
    let out = ref [] in
    let i = ref 0 in
    while Hashtbl.length seen < want && !i < total do
      let _, m = t.points.((start + !i) mod total) in
      if not (Hashtbl.mem seen m) then begin
        Hashtbl.add seen m ();
        out := m :: !out
      end;
      incr i
    done;
    List.rev !out
  end
