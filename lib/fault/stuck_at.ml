open Dl_netlist

type polarity = Sa0 | Sa1

type site = Stem of int | Branch of { gate : int; pin : int }

type t = { site : site; polarity : polarity }

let site_key = function
  | Stem id -> (0, id, 0)
  | Branch { gate; pin } -> (1, gate, pin)

let compare a b =
  let c = Stdlib.compare (site_key a.site) (site_key b.site) in
  if c <> 0 then c else Stdlib.compare a.polarity b.polarity

let equal a b = compare a b = 0

let polarity_bool = function Sa0 -> false | Sa1 -> true

let to_string (c : Circuit.t) f =
  let pol = match f.polarity with Sa0 -> "SA0" | Sa1 -> "SA1" in
  match f.site with
  | Stem id -> Printf.sprintf "%s %s" (Circuit.name c id) pol
  | Branch { gate; pin } ->
      Printf.sprintf "%s.in%d %s" (Circuit.name c gate) pin pol

let to_sim3_site = function
  | Stem id -> Dl_logic.Sim3.Stem id
  | Branch { gate; pin } -> Dl_logic.Sim3.Branch { gate; pin }

(* Fanin CSR offsets: pin [pin] of node [id] is slot [off.(id) + pin]. *)
let fanin_offsets (c : Circuit.t) =
  let n = Array.length c.nodes in
  let off = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    off.(id + 1) <- off.(id) + Array.length c.nodes.(id).fanin
  done;
  off

(* Both polarities of every stem (ascending ids), then of every branch
   by (gate, pin): the order [compare] sorts into, built without a sort.
   The two faults of a site share its [site] value. *)
let universe (c : Circuit.t) =
  let stems = Array.init (Array.length c.nodes) Fun.id in
  let branching src = Array.length c.fanouts.(src) > 1 in
  let n_branches = ref 0 in
  Array.iter
    (fun (nd : Circuit.node) ->
      Array.iter (fun src -> if branching src then incr n_branches) nd.fanin)
    c.nodes;
  let dummy = { site = Stem 0; polarity = Sa0 } in
  let out = Array.make (2 * (Array.length stems + !n_branches)) dummy in
  let next = ref 0 in
  let add site =
    out.(!next) <- { site; polarity = Sa0 };
    out.(!next + 1) <- { site; polarity = Sa1 };
    next := !next + 2
  in
  Array.iter (fun id -> add (Stem id)) stems;
  Array.iter
    (fun (nd : Circuit.node) ->
      Array.iteri
        (fun pin src -> if branching src then add (Branch { gate = nd.id; pin }))
        nd.fanin)
    c.nodes;
  out

(* Union-find over fault indices for equivalence collapsing. *)
module Uf = struct
  let create n = Array.init n (fun i -> i)

  let rec find t i = if t.(i) = i then i else begin
    t.(i) <- find t t.(i);
    t.(i)
  end

  let union t a b =
    let ra = find t a and rb = find t b in
    (* Keep the smaller index as representative for determinism. *)
    if ra < rb then t.(rb) <- ra else if rb < ra then t.(ra) <- rb
end

(* Fault index by site and polarity over dense slots: stems at [2 * id],
   branches after them at [2 * (n + fanin slot)], plus the polarity; -1
   for a fault not in the list.  A repeated fault resolves to its last
   occurrence. *)
let build_index (c : Circuit.t) faults =
  let n = Array.length c.nodes in
  let off = fanin_offsets c in
  let index = Array.make (2 * (n + off.(n))) (-1) in
  let slot site polarity =
    let base =
      match site with
      | Stem id when id >= 0 && id < n -> 2 * id
      | Branch { gate; pin }
        when gate >= 0 && gate < n && pin >= 0 && pin < off.(gate + 1) - off.(gate) ->
          2 * (n + off.(gate) + pin)
      | Stem _ | Branch _ -> -1
    in
    if base < 0 then -1 else base + (match polarity with Sa0 -> 0 | Sa1 -> 1)
  in
  Array.iteri
    (fun i f ->
      let k = slot f.site f.polarity in
      if k >= 0 then index.(k) <- i)
    faults;
  fun site polarity ->
    let k = slot site polarity in
    if k >= 0 then index.(k) else -1

let unify (c : Circuit.t) faults =
  let uf = Uf.create (Array.length faults) in
  let lookup = build_index c faults in
  let join s1 p1 s2 p2 =
    let a = lookup s1 p1 and b = lookup s2 p2 in
    if a >= 0 && b >= 0 then Uf.union uf a b
  in
  (* The fault "as seen at gate input pin": the branch fault if the net has
     fanout, otherwise the driver's stem fault. *)
  let pin_site (nd : Circuit.node) pin =
    let src = nd.fanin.(pin) in
    if Array.length c.fanouts.(src) > 1 then Branch { gate = nd.id; pin }
    else Stem src
  in
  Array.iter
    (fun (nd : Circuit.node) ->
      match nd.kind with
      | Gate.Input -> ()
      | Gate.Buf | Gate.Not ->
          let inv = Gate.inversion nd.kind in
          let flip p = if inv then (match p with Sa0 -> Sa1 | Sa1 -> Sa0) else p in
          let s_in = pin_site nd 0 in
          join s_in Sa0 (Stem nd.id) (flip Sa0);
          join s_in Sa1 (Stem nd.id) (flip Sa1)
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
          let ctrl =
            match Gate.controlling_value nd.kind with
            | Some b -> b
            | None -> assert false
          in
          let ctrl_pol = if ctrl then Sa1 else Sa0 in
          let resp = Gate.controlled_response nd.kind in
          let resp_pol = if resp then Sa1 else Sa0 in
          Array.iteri
            (fun pin _ -> join (pin_site nd pin) ctrl_pol (Stem nd.id) resp_pol)
            nd.fanin
      | Gate.Xor | Gate.Xnor -> ())
    c.nodes;
  uf

let equivalence_classes c faults =
  let uf = unify c faults in
  let groups = Hashtbl.create 64 in
  Array.iteri
    (fun i f ->
      let root = Uf.find uf i in
      let cur = Option.value ~default:[] (Hashtbl.find_opt groups root) in
      Hashtbl.replace groups root (f :: cur))
    faults;
  let roots = Hashtbl.fold (fun root _ acc -> root :: acc) groups [] in
  List.sort Stdlib.compare roots
  |> List.map (fun root -> Array.of_list (List.rev (Hashtbl.find groups root)))
  |> Array.of_list

let collapse c faults =
  let uf = unify c faults in
  let kept = ref [] in
  Array.iteri (fun i f -> if Uf.find uf i = i then kept := f :: !kept) faults;
  Array.of_list (List.rev !kept)
