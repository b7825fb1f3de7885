open Dl_netlist
open Dl_layout
module Mapping = Dl_cell.Mapping

let build name =
  let c = Transform.decompose_for_cells (Option.get (Benchmarks.by_name name)) in
  let m = Mapping.flatten c in
  (c, m, Layout.synthesize m)

(* --- Geometry ------------------------------------------------------------------ *)

let test_rect_basics () =
  let r = Geom.make_rect Geom.Metal1 ~x0:0 ~y0:0 ~x1:10 ~y1:2 ~net:5 in
  Alcotest.(check int) "width" 10 (Geom.width r);
  Alcotest.(check int) "height" 2 (Geom.height r);
  Alcotest.(check int) "area" 20 (Geom.area r)

let test_rect_empty_rejected () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Geom.make_rect Geom.Poly ~x0:5 ~y0:0 ~x1:5 ~y1:2 ~net:0);
       false
     with Invalid_argument _ -> true)

let test_overlap () =
  let a = Geom.make_rect Geom.Metal1 ~x0:0 ~y0:0 ~x1:4 ~y1:4 ~net:0 in
  let b = Geom.make_rect Geom.Metal1 ~x0:2 ~y0:2 ~x1:6 ~y1:6 ~net:1 in
  let c = Geom.make_rect Geom.Metal2 ~x0:2 ~y0:2 ~x1:6 ~y1:6 ~net:1 in
  let d = Geom.make_rect Geom.Metal1 ~x0:4 ~y0:0 ~x1:8 ~y1:4 ~net:1 in
  Alcotest.(check bool) "overlapping" true (Geom.overlaps a b);
  Alcotest.(check bool) "different layer" false (Geom.overlaps a c);
  Alcotest.(check bool) "touching is not overlap" false (Geom.overlaps a d)

let test_facing_horizontal () =
  let a = Geom.make_rect Geom.Metal1 ~x0:0 ~y0:0 ~x1:2 ~y1:20 ~net:0 in
  let b = Geom.make_rect Geom.Metal1 ~x0:6 ~y0:5 ~x1:8 ~y1:30 ~net:1 in
  match Geom.facing a b with
  | Some { spacing; common_run } ->
      Alcotest.(check int) "spacing" 4 spacing;
      Alcotest.(check int) "common run" 15 common_run
  | None -> Alcotest.fail "should face"

let test_facing_vertical () =
  let a = Geom.make_rect Geom.Metal1 ~x0:0 ~y0:0 ~x1:30 ~y1:2 ~net:0 in
  let b = Geom.make_rect Geom.Metal1 ~x0:10 ~y0:6 ~x1:40 ~y1:8 ~net:1 in
  match Geom.facing a b with
  | Some { spacing; common_run } ->
      Alcotest.(check int) "spacing" 4 spacing;
      Alcotest.(check int) "common run" 20 common_run
  | None -> Alcotest.fail "should face"

let test_facing_diagonal_none () =
  let a = Geom.make_rect Geom.Metal1 ~x0:0 ~y0:0 ~x1:2 ~y1:2 ~net:0 in
  let b = Geom.make_rect Geom.Metal1 ~x0:5 ~y0:5 ~x1:7 ~y1:7 ~net:1 in
  Alcotest.(check bool) "diagonal has no facing run" true (Geom.facing a b = None)

let test_facing_symmetric () =
  let a = Geom.make_rect Geom.Poly ~x0:0 ~y0:0 ~x1:2 ~y1:14 ~net:0 in
  let b = Geom.make_rect Geom.Poly ~x0:8 ~y0:4 ~x1:10 ~y1:20 ~net:1 in
  Alcotest.(check bool) "symmetric" true (Geom.facing a b = Geom.facing b a)

(* --- Cell templates --------------------------------------------------------------- *)

let test_templates_have_pins () =
  let c, m, _ = build "c432s_small" in
  ignore c;
  Array.iteri
    (fun ii (inst : Mapping.instance) ->
      let tpl = Cell_template.build m ~instance_index:ii in
      Alcotest.(check int) "one pin per input" (Array.length inst.input_nodes)
        (List.length tpl.input_pins);
      Alcotest.(check bool) "positive width" true (tpl.width > 0);
      Alcotest.(check int) "uniform height" Cell_template.cell_height tpl.height;
      (* pins connect the right nodes *)
      List.iteri
        (fun i (pin : Cell_template.pin) ->
          Alcotest.(check int) "pin node" inst.input_nodes.(i) pin.node)
        tpl.input_pins;
      Alcotest.(check int) "output pin node" inst.output_node tpl.output_pin.node)
    m.Mapping.instances

let test_template_rects_inside_cell () =
  let _, m, _ = build "c17" in
  for ii = 0 to Array.length m.Mapping.instances - 1 do
    let tpl = Cell_template.build m ~instance_index:ii in
    List.iter
      (fun (r : Geom.rect) ->
        Alcotest.(check bool) "inside" true
          (r.x0 >= 0 && r.y0 >= 0 && r.x1 <= tpl.width && r.y1 <= tpl.height))
      tpl.rects
  done

let test_template_no_intra_cell_shorts () =
  (* no same-layer overlap between rects of different nets inside a cell *)
  let _, m, _ = build "c432s_small" in
  for ii = 0 to Array.length m.Mapping.instances - 1 do
    let tpl = Cell_template.build m ~instance_index:ii in
    let rects = Array.of_list tpl.rects in
    Array.iteri
      (fun i a ->
        for j = i + 1 to Array.length rects - 1 do
          let b = rects.(j) in
          if a.Geom.net <> b.Geom.net && Geom.overlaps a b then
            Alcotest.failf "intra-cell short in instance %d (%s)" ii
              (Geom.layer_name a.Geom.layer)
        done)
      rects
  done

let test_template_diffusion_sharing () =
  (* NAND2: the NMOS series stack shares its midpoint island, so ndiff has
     3 islands (gnd, mid, out), not 4. *)
  let b = Circuit.Builder.create ~title:"n2" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b "o" Gate.Nand [ "a"; "b" ];
  Circuit.Builder.add_output b "o";
  let c = Circuit.Builder.finalize b in
  let m = Mapping.flatten c in
  let tpl = Cell_template.build m ~instance_index:0 in
  let ndiff =
    List.filter (fun (r : Geom.rect) -> r.layer = Geom.Diffusion_n) tpl.rects
  in
  Alcotest.(check int) "three islands" 3 (List.length ndiff)

(* --- Full layout ------------------------------------------------------------------- *)

let test_layout_no_shorts () =
  List.iter
    (fun name ->
      let _, _, l = build name in
      let rs = l.Layout.rects in
      Array.iteri
        (fun i a ->
          for j = i + 1 to Array.length rs - 1 do
            let b = rs.(j) in
            if a.Geom.net <> b.Geom.net && Geom.overlaps a b then
              Alcotest.failf "%s: %s overlap nets %d/%d" name
                (Geom.layer_name a.Geom.layer) a.Geom.net b.Geom.net
          done)
        rs)
    [ "c17"; "c432s_small" ]

let test_layout_tags_parallel () =
  let _, _, l = build "c432s_small" in
  Alcotest.(check int) "tags parallel to rects" (Array.length l.Layout.rects)
    (Array.length l.Layout.tags)

let test_layout_within_bounds () =
  let _, _, l = build "c432s_small" in
  Array.iter
    (fun (r : Geom.rect) ->
      Alcotest.(check bool) "inside chip" true
        (r.x0 >= 0 && r.y0 >= 0 && r.x1 <= l.Layout.width && r.y1 <= l.Layout.height))
    l.Layout.rects

let test_layout_every_net_has_geometry () =
  let c, m, l = build "c432s_small" in
  (* every circuit signal with a consumer or pad must appear in the layout *)
  Array.iter
    (fun (nd : Circuit.node) ->
      let has_reader =
        Array.length c.Circuit.fanouts.(nd.id) > 0 || Circuit.is_output c nd.id
      in
      if has_reader then begin
        let net = m.Mapping.signal_node.(nd.id) in
        Alcotest.(check bool)
          (Printf.sprintf "net %s has geometry" nd.name)
          true
          (Layout.net_rects l net <> [])
      end)
    c.Circuit.nodes

let test_layout_rows_override () =
  let c = Transform.decompose_for_cells (Benchmarks.c17 ()) in
  let m = Mapping.flatten c in
  let l = Layout.synthesize ~rows:2 m in
  Alcotest.(check int) "rows" 2 l.Layout.rows;
  let placed_rows =
    Array.fold_left
      (fun acc (p : Layout.placement) -> if List.mem p.row acc then acc else p.row :: acc)
      [] l.Layout.placements
  in
  Alcotest.(check int) "both rows used" 2 (List.length placed_rows)

let test_layout_placements_disjoint () =
  let _, _, l = build "c432s_small" in
  Array.iteri
    (fun i (a : Layout.placement) ->
      Array.iteri
        (fun j (b : Layout.placement) ->
          if i < j && a.row = b.row then begin
            let a1 = a.x + a.template.width and b1 = b.x + b.template.width in
            Alcotest.(check bool) "cells disjoint" true (a1 <= b.x || b1 <= a.x)
          end)
        l.Layout.placements)
    l.Layout.placements

let test_layout_deterministic () =
  let mk () =
    let c = Transform.decompose_for_cells (Benchmarks.c432s_small ()) in
    Layout.synthesize (Mapping.flatten c)
  in
  let a = mk () and b = mk () in
  Alcotest.(check int) "same rect count" (Array.length a.Layout.rects)
    (Array.length b.Layout.rects);
  Alcotest.(check bool) "identical geometry" true (a.Layout.rects = b.Layout.rects)

let test_wire_length_positive () =
  let _, _, l = build "c432s_small" in
  Alcotest.(check bool) "m1 wire" true (Layout.wire_length l Geom.Metal1 > 0);
  Alcotest.(check bool) "m2 wire" true (Layout.wire_length l Geom.Metal2 > 0)

let () =
  Alcotest.run "dl_layout"
    [
      ( "geometry",
        [
          Alcotest.test_case "rect basics" `Quick test_rect_basics;
          Alcotest.test_case "empty rejected" `Quick test_rect_empty_rejected;
          Alcotest.test_case "overlap" `Quick test_overlap;
          Alcotest.test_case "facing horizontal" `Quick test_facing_horizontal;
          Alcotest.test_case "facing vertical" `Quick test_facing_vertical;
          Alcotest.test_case "diagonal none" `Quick test_facing_diagonal_none;
          Alcotest.test_case "facing symmetric" `Quick test_facing_symmetric;
        ] );
      ( "templates",
        [
          Alcotest.test_case "pins wired" `Quick test_templates_have_pins;
          Alcotest.test_case "rects inside" `Quick test_template_rects_inside_cell;
          Alcotest.test_case "no intra-cell shorts" `Quick test_template_no_intra_cell_shorts;
          Alcotest.test_case "diffusion sharing" `Quick test_template_diffusion_sharing;
        ] );
      ( "layout",
        [
          Alcotest.test_case "no shorts" `Slow test_layout_no_shorts;
          Alcotest.test_case "tags parallel" `Quick test_layout_tags_parallel;
          Alcotest.test_case "within bounds" `Quick test_layout_within_bounds;
          Alcotest.test_case "all nets drawn" `Quick test_layout_every_net_has_geometry;
          Alcotest.test_case "rows override" `Quick test_layout_rows_override;
          Alcotest.test_case "placements disjoint" `Quick test_layout_placements_disjoint;
          Alcotest.test_case "deterministic" `Quick test_layout_deterministic;
          Alcotest.test_case "wire length" `Quick test_wire_length_positive;
        ] );
    ]
