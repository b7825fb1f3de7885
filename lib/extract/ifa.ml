module Geom = Dl_layout.Geom
module Layout = Dl_layout.Layout
module Mapping = Dl_cell.Mapping
module Realistic = Dl_switch.Realistic

type class_summary = {
  cls : Defect_stats.defect_class;
  count : int;
  total_weight : float;
}

type extraction = {
  layout : Layout.t Lazy.t;
  faults : Realistic.t array;
  gross_weight : float;
  summaries : class_summary list;
}

(* Accumulator merging faults that share an electrical site. *)
type acc = {
  table : (Realistic.kind, float * string * Defect_stats.defect_class) Hashtbl.t;
  mutable gross : float;
  class_totals : (Defect_stats.defect_class, int * float) Hashtbl.t;
}

let add_class acc cls w =
  let count, total =
    Option.value ~default:(0, 0.0) (Hashtbl.find_opt acc.class_totals cls)
  in
  Hashtbl.replace acc.class_totals cls (count + 1, total +. w)

let add_fault acc cls kind label w =
  if w > 0.0 then begin
    add_class acc cls w;
    match Hashtbl.find_opt acc.table kind with
    | Some (w0, label0, cls0) -> Hashtbl.replace acc.table kind (w0 +. w, label0, cls0)
    | None -> Hashtbl.replace acc.table kind (w, label, cls)
  end

let bridge_layers =
  [ Geom.Metal1; Geom.Metal2; Geom.Poly; Geom.Diffusion_n; Geom.Diffusion_p ]

(* Every pair [(i, j)], [i < j], whose gaps in x and in y are both at most
   [limit], as [i * n + j] in ascending order: a superset of the pairs
   [Geom.facing] places within [limit], in the all-pairs scan's order.  A
   sweep over the rectangles sorted by [x0] (once a rectangle starts more
   than [limit] right of [a]'s right edge, so do all later ones), then two
   stable counting sorts, by [j] and then by [i]. *)
let near_pairs (rects : Geom.rect array) ~limit =
  let n = Array.length rects in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Int.compare rects.(i).Geom.x0 rects.(j).Geom.x0) order;
  let pairs = ref [] in
  for p = 0 to n - 1 do
    let i = order.(p) in
    let a = rects.(i) in
    let q = ref (p + 1) in
    while !q < n && float_of_int (rects.(order.(!q)).Geom.x0 - a.Geom.x1) <= limit do
      let j = order.(!q) in
      let b = rects.(j) in
      let gap_x = Int.max a.Geom.x0 b.Geom.x0 - Int.min a.Geom.x1 b.Geom.x1 in
      let gap_y = Int.max a.Geom.y0 b.Geom.y0 - Int.min a.Geom.y1 b.Geom.y1 in
      if float_of_int gap_x <= limit && float_of_int gap_y <= limit then
        pairs := ((Int.min i j * n) + Int.max i j) :: !pairs;
      incr q
    done
  done;
  let sort_by key codes =
    let count = Array.make (n + 1) 0 in
    Array.iter (fun c -> count.(key c + 1) <- count.(key c + 1) + 1) codes;
    for k = 1 to n do
      count.(k) <- count.(k) + count.(k - 1)
    done;
    let sorted = Array.make (Array.length codes) 0 in
    Array.iter
      (fun c ->
        sorted.(count.(key c)) <- c;
        count.(key c) <- count.(key c) + 1)
      codes;
    sorted
  in
  sort_by (fun c -> c / n) (sort_by (fun c -> c mod n) (Array.of_list !pairs))

(* A bridge site while the scan merges it. *)
type site = {
  kind : Realistic.kind;
  mutable weight : float;
  label : string;
  site_cls : Defect_stats.defect_class;
}

module Int_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

let extract ?(stats = Defect_stats.default) ?(min_weight_ratio = 0.0) (l : Layout.t) =
  let m = l.Layout.network in
  let acc =
    { table = Hashtbl.create 256; gross = 0.0; class_totals = Hashtbl.create 16 }
  in
  let is_rail n = n = m.Mapping.gnd || n = m.Mapping.vdd in
  let node_name n =
    if n >= 0 && n < Array.length m.Mapping.node_names then m.Mapping.node_names.(n)
    else "?"
  in
  (* --- Bridges: facing same-layer wire pairs --------------------------- *)
  (* Sites merge in a table keyed by [lo * node_count + hi]; each layer's
     class total accumulates in place.  Both then enter [acc] as [add_fault]
     would have left it: sites in first-insertion order, each label built
     once. *)
  let sites = Int_table.create 1024 and met = ref [] in
  List.iter
    (fun layer ->
      let cls = Defect_stats.Short_on layer in
      let density = Defect_stats.density stats cls in
      if density > 0.0 then begin
        let x0 = Defect_stats.x0 stats cls in
        let limit = Critical_area.interaction_distance ~x0 in
        let rects = Layout.rects_on l layer in
        let n = Array.length rects in
        let count, total =
          Option.value ~default:(0, 0.0) (Hashtbl.find_opt acc.class_totals cls)
        in
        let count = ref count and total = ref total in
        Array.iter
          (fun code ->
            let a = rects.(code / n) and b = rects.(code mod n) in
            if a.Geom.net <> b.Geom.net then
              match Geom.facing a b with
              | Some { spacing; common_run }
                when float_of_int spacing <= limit && common_run > 0 ->
                  let area =
                    Critical_area.short_parallel ~run:(float_of_int common_run)
                      ~spacing:(float_of_int spacing) ~x0
                  in
                  let w = area *. density in
                  if is_rail a.Geom.net && is_rail b.Geom.net then
                    acc.gross <- acc.gross +. w
                  else if w > 0.0 then begin
                    incr count;
                    total := !total +. w;
                    let lo = Int.min a.Geom.net b.Geom.net
                    and hi = Int.max a.Geom.net b.Geom.net in
                    let key = (lo * m.Mapping.node_count) + hi in
                    match Int_table.find_opt sites key with
                    | Some site -> site.weight <- site.weight +. w
                    | None ->
                        let site =
                          {
                            kind = Realistic.Bridge { node_a = lo; node_b = hi };
                            weight = w;
                            label =
                              Printf.sprintf "%s %s/%s" (Geom.layer_name layer)
                                (node_name lo) (node_name hi);
                            site_cls = cls;
                          }
                        in
                        Int_table.add sites key site;
                        met := site :: !met
                  end
              | _ -> ())
          (near_pairs rects ~limit);
        if !count > 0 then Hashtbl.replace acc.class_totals cls (!count, !total)
      end)
    bridge_layers;
  List.iter
    (fun site -> Hashtbl.replace acc.table site.kind (site.weight, site.label, site.site_cls))
    (List.rev !met);
  (* --- helpers for open mapping ----------------------------------------- *)
  let c = m.Mapping.circuit in
  let signal_of g =
    let n_signals = Dl_netlist.Circuit.node_count c in
    if g >= 2 && g < 2 + n_signals then Some (g - 2) else None
  in
  let pin_of_input ii node =
    let inst = m.Mapping.instances.(ii) in
    let nd = c.nodes.(inst.gate_id) in
    let rec scan p =
      if p >= Array.length nd.fanin then None
      else if m.Mapping.signal_node.(nd.fanin.(p)) = node then Some (inst.gate_id, p)
      else scan (p + 1)
    in
    scan 0
  in
  let transistor_with_terminal ii node =
    let inst = m.Mapping.instances.(ii) in
    let n_ts = List.length inst.cell.Dl_cell.Cell.transistors in
    let rec scan k =
      if k >= n_ts then None
      else begin
        let ti = inst.first_transistor + k in
        let tr = m.Mapping.transistors.(ti) in
        if tr.source = node || tr.drain = node then Some ti else scan (k + 1)
      end
    in
    scan 0
  in
  let transistor_with_gate ii node =
    let inst = m.Mapping.instances.(ii) in
    let n_ts = List.length inst.cell.Dl_cell.Cell.transistors in
    let rec scan k =
      if k >= n_ts then None
      else begin
        let ti = inst.first_transistor + k in
        if m.Mapping.transistors.(ti).gate = node then Some ti else scan (k + 1)
      end
    in
    scan 0
  in
  (* --- Opens on conducting wires ---------------------------------------- *)
  let open_layers =
    [ Geom.Metal1; Geom.Metal2; Geom.Poly; Geom.Diffusion_n; Geom.Diffusion_p ]
  in
  Array.iteri
    (fun ri (r : Geom.rect) ->
      if List.mem r.Geom.layer open_layers then begin
        let cls = Defect_stats.Open_on r.Geom.layer in
        let density = Defect_stats.density stats cls in
        if density > 0.0 then begin
          let x0 = Defect_stats.x0 stats cls in
          let length = float_of_int (max (Geom.width r) (Geom.height r)) in
          let wire_w = float_of_int (min (Geom.width r) (Geom.height r)) in
          let w = Critical_area.open_wire ~length ~width:wire_w ~x0 *. density in
          let tag = l.Layout.tags.(ri) in
          let label site = Printf.sprintf "%s %s" (Geom.layer_name r.Geom.layer) site in
          match tag with
          | Layout.Pad_rect _ -> acc.gross <- acc.gross +. w
          | Layout.Trunk cnode | Layout.Driver_drop cnode ->
              add_fault acc cls
                (Realistic.Stem_open { node = cnode; policy = Realistic.Floats_low })
                (label (Dl_netlist.Circuit.name c cnode))
                w
          | Layout.Pin_drop { gate; pin } ->
              add_fault acc cls
                (Realistic.Input_open { gate; pin; policy = Realistic.Floats_low })
                (label (Printf.sprintf "%s.in%d" (Dl_netlist.Circuit.name c gate) pin))
                w
          | Layout.Cell_rect ii -> (
              if is_rail r.Geom.net then acc.gross <- acc.gross +. w
              else begin
                let inst = m.Mapping.instances.(ii) in
                match signal_of r.Geom.net with
                | Some cnode when cnode = inst.gate_id ->
                    (* Output spine / strap: the cell loses its drive. *)
                    add_fault acc cls
                      (Realistic.Stem_open
                         { node = cnode; policy = Realistic.Floats_low })
                      (label (Dl_netlist.Circuit.name c cnode))
                      w
                | Some cnode -> (
                    (* Input-side geometry: poly gates float to an
                       intermediate level, metal pads break cleanly. *)
                    match pin_of_input ii r.Geom.net with
                    | Some (gate, pin) ->
                        let policy =
                          if r.Geom.layer = Geom.Poly then Realistic.Floats_unknown
                          else Realistic.Floats_low
                        in
                        add_fault acc cls
                          (Realistic.Input_open { gate; pin; policy })
                          (label
                             (Printf.sprintf "%s.in%d"
                                (Dl_netlist.Circuit.name c gate) pin))
                          w
                    | None ->
                        ignore cnode;
                        acc.gross <- acc.gross +. w)
                | None -> (
                    (* Cell-internal node: a broken island or internal poly
                       isolates one device. *)
                    let target =
                      if r.Geom.layer = Geom.Poly then transistor_with_gate ii r.Geom.net
                      else transistor_with_terminal ii r.Geom.net
                    in
                    match target with
                    | Some ti ->
                        add_fault acc cls
                          (Realistic.Transistor_stuck_open ti)
                          (label (Printf.sprintf "%s#t%d" (node_name r.Geom.net) ti))
                          w
                    | None -> acc.gross <- acc.gross +. w)
              end)
        end
      end)
    l.Layout.rects;
  (* --- Contact and via opens --------------------------------------------- *)
  let contact_density = Defect_stats.density stats Defect_stats.Contact_open in
  if contact_density > 0.0 then
    Array.iteri
      (fun ri (r : Geom.rect) ->
        if r.Geom.layer = Geom.Contact || r.Geom.layer = Geom.Via then begin
          let w = float_of_int (Geom.area r) *. contact_density in
          let cls = Defect_stats.Contact_open in
          match l.Layout.tags.(ri) with
          | Layout.Pad_rect _ -> acc.gross <- acc.gross +. w
          | Layout.Trunk cnode | Layout.Driver_drop cnode ->
              add_fault acc cls
                (Realistic.Stem_open { node = cnode; policy = Realistic.Floats_low })
                (Printf.sprintf "via %s" (Dl_netlist.Circuit.name c cnode))
                w
          | Layout.Pin_drop { gate; pin } ->
              add_fault acc cls
                (Realistic.Input_open { gate; pin; policy = Realistic.Floats_low })
                (Printf.sprintf "via %s.in%d" (Dl_netlist.Circuit.name c gate) pin)
                w
          | Layout.Cell_rect ii -> (
              if is_rail r.Geom.net then acc.gross <- acc.gross +. w
              else begin
                let inst = m.Mapping.instances.(ii) in
                match signal_of r.Geom.net with
                | Some cnode when cnode = inst.gate_id -> (
                    (* Output contact: one device's drive is lost. *)
                    match transistor_with_terminal ii r.Geom.net with
                    | Some ti ->
                        add_fault acc cls (Realistic.Transistor_stuck_open ti)
                          (Printf.sprintf "contact %s#t%d" (node_name r.Geom.net) ti)
                          w
                    | None -> acc.gross <- acc.gross +. w)
                | Some _ -> (
                    (* Input-pad contact: the poly gate floats. *)
                    match pin_of_input ii r.Geom.net with
                    | Some (gate, pin) ->
                        add_fault acc cls
                          (Realistic.Input_open
                             { gate; pin; policy = Realistic.Floats_unknown })
                          (Printf.sprintf "contact %s.in%d"
                             (Dl_netlist.Circuit.name c gate) pin)
                          w
                    | None -> acc.gross <- acc.gross +. w)
                | None -> (
                    match transistor_with_terminal ii r.Geom.net with
                    | Some ti ->
                        add_fault acc cls (Realistic.Transistor_stuck_open ti)
                          (Printf.sprintf "contact %s#t%d" (node_name r.Geom.net) ti)
                          w
                    | None -> acc.gross <- acc.gross +. w)
              end)
        end)
      l.Layout.rects;
  (* --- Gate-oxide pinholes: one stuck-on fault per device --------------- *)
  let oxide_density = Defect_stats.density stats Defect_stats.Oxide_pinhole in
  if oxide_density > 0.0 then begin
    let gate_area = 2.0 *. 6.0 in
    Array.iteri
      (fun ti (_ : Mapping.transistor) ->
        add_fault acc Defect_stats.Oxide_pinhole
          (Realistic.Transistor_stuck_on ti)
          (Printf.sprintf "oxide t%d" ti)
          (gate_area *. oxide_density))
      m.Mapping.transistors
  end;
  (* --- Assemble ----------------------------------------------------------- *)
  let all =
    Hashtbl.fold
      (fun kind (w, label, _) lst -> { Realistic.kind; weight = w; label } :: lst)
      acc.table []
  in
  (* Optional pruning of negligible faults: their weight is preserved in
     [gross_weight] so yield stays exact. *)
  let w_max = List.fold_left (fun m (f : Realistic.t) -> Float.max m f.weight) 0.0 all in
  let threshold = min_weight_ratio *. w_max in
  let kept, dropped =
    List.partition (fun (f : Realistic.t) -> f.weight >= threshold) all
  in
  List.iter (fun (f : Realistic.t) -> acc.gross <- acc.gross +. f.weight) dropped;
  let faults =
    kept
    |> List.sort (fun (a : Realistic.t) b ->
           match String.compare a.label b.label with 0 -> compare a.kind b.kind | c -> c)
    |> Array.of_list
  in
  let summaries =
    Hashtbl.fold
      (fun cls (count, total_weight) lst -> { cls; count; total_weight } :: lst)
      acc.class_totals []
    |> List.sort (fun a b -> compare b.total_weight a.total_weight)
  in
  { layout = Lazy.from_val l; faults; gross_weight = acc.gross; summaries }

let total_weight e =
  Dl_util.Stats.total (Array.map (fun (f : Realistic.t) -> f.weight) e.faults)

let yield_of e = exp (-.total_weight e)

let weight_histogram ?(bins = 24) e =
  let ws = Array.map (fun (f : Realistic.t) -> f.weight) e.faults in
  let lo, hi = Dl_util.Stats.min_max ws in
  let lo = if lo <= 0.0 then 1e-12 else lo in
  let hi = Float.max hi (lo *. 10.0) in
  let h = Dl_util.Histogram.create (Dl_util.Histogram.Log10 { lo; hi; bins }) in
  Dl_util.Histogram.add_many h ws;
  h

let pp_summary ppf e =
  Format.fprintf ppf "IFA %s: %d weighted faults, total weight %.4e (Y=%.4f), gross %.3e@."
    (Lazy.force e.layout).Layout.network.Mapping.circuit.title (Array.length e.faults)
    (total_weight e) (yield_of e) e.gross_weight;
  List.iter
    (fun s ->
      Format.fprintf ppf "  %-16s %5d faults, weight %.4e@."
        (Defect_stats.class_name s.cls) s.count s.total_weight)
    e.summaries
