open Dl_netlist


(* Evaluate the fanout cone of the seed overrides against the good machine;
   returns the sparse faulty-value map. *)
let run (c : Circuit.t) good seeds =
  let map : (int, Ternary.t) Hashtbl.t = Hashtbl.create 32 in
  let depth = Circuit.depth c in
  let buckets = Array.make (depth + 1) [] in
  let queued = Array.make (Circuit.node_count c) false in
  let push id =
    if not queued.(id) then begin
      queued.(id) <- true;
      let l = c.levels.(id) in
      buckets.(l) <- id :: buckets.(l)
    end
  in
  let good3 id = Ternary.of_bool good.(id) in
  List.iter
    (fun (id, v) ->
      if not (Ternary.equal v (good3 id)) then begin
        Hashtbl.replace map id v;
        Array.iter push c.fanouts.(id)
      end)
    seeds;
  let value id = match Hashtbl.find_opt map id with Some v -> v | None -> good3 id in
  for level = 0 to depth do
    List.iter
      (fun id ->
        queued.(id) <- false;
        let nd = c.nodes.(id) in
        if nd.kind <> Gate.Input && not (Hashtbl.mem map id) then begin
          let v = Ternary.eval nd.kind (Array.map value nd.fanin) in
          if not (Ternary.equal v (good3 id)) then begin
            Hashtbl.replace map id v;
            Array.iter push c.fanouts.(id)
          end
        end)
      (List.rev buckets.(level));
    buckets.(level) <- []
  done;
  map

let po_detects (c : Circuit.t) good map =
  Array.exists
    (fun o ->
      match Hashtbl.find_opt map o with
      | Some Ternary.V0 -> good.(o)
      | Some Ternary.V1 -> not good.(o)
      | Some Ternary.VX | None -> false)
    c.outputs

(* The same cone walk on state allocated once per circuit: the sparse map
   is a value array plus an in-map flag, cleared through the list of
   entries made; the level queue is one array cut into per-level buckets
   sized from the level histogram (a node is queued at most once per
   walk). *)
module Cone = struct
  type t = {
    c : Circuit.t;
    mutable good : bool array;
    value : Ternary.t array;
    in_map : bool array;
    entries : int array;
    mutable n_entries : int;
    queued : bool array;
    bucket : int array;
    level_start : int array;
    level_fill : int array;
    mutable lo : int;
    mutable hi : int;
  }

  let create (c : Circuit.t) =
    let n = Circuit.node_count c in
    let depth = Circuit.depth c in
    let level_start = Array.make (depth + 2) 0 in
    Array.iter (fun l -> level_start.(l + 1) <- level_start.(l + 1) + 1) c.levels;
    for l = 1 to depth + 1 do
      level_start.(l) <- level_start.(l) + level_start.(l - 1)
    done;
    {
      c;
      good = [||];
      value = Array.make n Ternary.VX;
      in_map = Array.make n false;
      entries = Array.make n 0;
      n_entries = 0;
      queued = Array.make n false;
      bucket = Array.make n 0;
      level_start;
      level_fill = Array.make (depth + 1) 0;
      lo = max_int;
      hi = -1;
    }

  let start t good =
    for i = 0 to t.n_entries - 1 do
      t.in_map.(t.entries.(i)) <- false
    done;
    t.n_entries <- 0;
    t.good <- good

  let mem t id = t.in_map.(id)
  let get t id = if t.in_map.(id) then t.value.(id) else Ternary.of_bool t.good.(id)

  let set t id v =
    if not t.in_map.(id) then begin
      t.in_map.(id) <- true;
      t.entries.(t.n_entries) <- id;
      t.n_entries <- t.n_entries + 1
    end;
    t.value.(id) <- v

  let push_fanouts t id =
    let fo = t.c.fanouts.(id) in
    for k = 0 to Array.length fo - 1 do
      let f = fo.(k) in
      if not t.queued.(f) then begin
        t.queued.(f) <- true;
        let l = t.c.levels.(f) in
        t.bucket.(t.level_start.(l) + t.level_fill.(l)) <- f;
        t.level_fill.(l) <- t.level_fill.(l) + 1;
        if l < t.lo then t.lo <- l;
        if l > t.hi then t.hi <- l
      end
    done

  (* Ternary values are immediates: physical equality is equality. *)
  let differs t id v = v != Ternary.of_bool t.good.(id)

  let seed t id v =
    if differs t id v then begin
      set t id v;
      push_fanouts t id
    end

  let fold t fanin op init =
    let acc = ref init in
    for k = 0 to Array.length fanin - 1 do
      acc := op !acc (get t fanin.(k))
    done;
    !acc

  (* [Ternary.eval] over the current faulty values, without building the
     input array. *)
  let eval t (nd : Circuit.node) =
    let fanin = nd.fanin in
    match nd.kind with
    | Gate.Buf -> get t fanin.(0)
    | Gate.Not -> Ternary.inv (get t fanin.(0))
    | Gate.And -> fold t fanin Ternary.band Ternary.V1
    | Gate.Nand -> Ternary.inv (fold t fanin Ternary.band Ternary.V1)
    | Gate.Or -> fold t fanin Ternary.bor Ternary.V0
    | Gate.Nor -> Ternary.inv (fold t fanin Ternary.bor Ternary.V0)
    | Gate.Xor -> fold t fanin Ternary.bxor Ternary.V0
    | Gate.Xnor -> Ternary.inv (fold t fanin Ternary.bxor Ternary.V0)
    | Gate.Input -> invalid_arg "Propagate.Cone: Input has no function"

  let propagate t =
    let l = ref t.lo in
    while !l <= t.hi do
      let base = t.level_start.(!l) in
      for k = 0 to t.level_fill.(!l) - 1 do
        let id = t.bucket.(base + k) in
        t.queued.(id) <- false;
        let nd = t.c.nodes.(id) in
        if nd.kind <> Gate.Input && not t.in_map.(id) then begin
          let v = eval t nd in
          if differs t id v then begin
            set t id v;
            push_fanouts t id
          end
        end
      done;
      t.level_fill.(!l) <- 0;
      incr l
    done;
    t.lo <- max_int;
    t.hi <- -1

  let po_detects t =
    let outs = t.c.outputs in
    let hit = ref false in
    for k = 0 to Array.length outs - 1 do
      let o = outs.(k) in
      if t.in_map.(o) then
        match t.value.(o) with
        | Ternary.V0 -> if t.good.(o) then hit := true
        | Ternary.V1 -> if not t.good.(o) then hit := true
        | Ternary.VX -> ()
    done;
    !hit
end
