open Dl_netlist
open Dl_extract
module Mapping = Dl_cell.Mapping
module Realistic = Dl_switch.Realistic
module Geom = Dl_layout.Geom

let build name =
  let c = Transform.decompose_for_cells (Option.get (Benchmarks.by_name name)) in
  let m = Mapping.flatten c in
  (c, m, Dl_layout.Layout.synthesize m)

(* --- Defect statistics ----------------------------------------------------------- *)

let test_default_bridging_dominant () =
  let s = Defect_stats.default in
  (* the paper's premise: conducting-layer shorts dominate opens *)
  List.iter
    (fun layer ->
      Alcotest.(check bool)
        (Geom.layer_name layer ^ " shorts > opens")
        true
        (Defect_stats.density s (Defect_stats.Short_on layer)
        > Defect_stats.density s (Defect_stats.Open_on layer)))
    [ Geom.Metal1; Geom.Metal2; Geom.Poly ]

let test_scale () =
  let s = Defect_stats.scale Defect_stats.default 2.0 in
  Alcotest.(check (float 1e-18)) "doubled"
    (2.0 *. Defect_stats.density Defect_stats.default (Defect_stats.Short_on Geom.Metal1))
    (Defect_stats.density s (Defect_stats.Short_on Geom.Metal1))

let test_scale_class () =
  let cls = Defect_stats.Short_on Geom.Poly in
  let s = Defect_stats.scale_class Defect_stats.default cls 3.0 in
  Alcotest.(check (float 1e-18)) "class scaled"
    (3.0 *. Defect_stats.density Defect_stats.default cls)
    (Defect_stats.density s cls);
  Alcotest.(check (float 1e-18)) "others untouched"
    (Defect_stats.density Defect_stats.default (Defect_stats.Short_on Geom.Metal1))
    (Defect_stats.density s (Defect_stats.Short_on Geom.Metal1))

let test_size_pdf_normalized () =
  let x0 = 3.0 in
  let integral =
    Dl_util.Numerics.integrate ~steps:20000
      ~f:(fun u ->
        let x = exp u in
        Defect_stats.size_pdf ~x0 x *. x)
      (log x0) (log 1e7)
  in
  Alcotest.(check (float 1e-6)) "integrates to 1" 1.0 integral

let test_unknown_class_zero () =
  let s = Defect_stats.make [] in
  Alcotest.(check (float 0.0)) "zero" 0.0
    (Defect_stats.density s (Defect_stats.Short_on Geom.Metal1))

(* --- Critical areas ------------------------------------------------------------------ *)

let test_short_closed_form () =
  (* s >= x0: A = L x0^2 / s *)
  Alcotest.(check (float 1e-9)) "closed form" (100.0 *. 16.0 /. 8.0)
    (Critical_area.short_parallel ~run:100.0 ~spacing:8.0 ~x0:4.0)

let test_short_touching () =
  (* s < x0: A = L (2 x0 - s) *)
  Alcotest.(check (float 1e-9)) "touching branch" (10.0 *. 7.0)
    (Critical_area.short_parallel ~run:10.0 ~spacing:1.0 ~x0:4.0)

let test_short_matches_numeric () =
  List.iter
    (fun spacing ->
      let closed = Critical_area.short_parallel ~run:50.0 ~spacing ~x0:4.0 in
      let numeric =
        Critical_area.short_parallel_numeric ~x_max:1e8 ~run:50.0 ~spacing ~x0:4.0 ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "spacing %.0f" spacing)
        true
        (Float.abs (closed -. numeric) /. closed < 1e-3))
    [ 4.0; 8.0; 16.0; 40.0 ]

let test_short_monotone_decreasing_in_spacing () =
  let prev = ref infinity in
  List.iter
    (fun s ->
      let a = Critical_area.short_parallel ~run:20.0 ~spacing:s ~x0:4.0 in
      Alcotest.(check bool) "decreasing" true (a <= !prev);
      prev := a)
    [ 0.0; 2.0; 4.0; 8.0; 16.0; 32.0 ]

let test_short_linear_in_run () =
  let a1 = Critical_area.short_parallel ~run:10.0 ~spacing:6.0 ~x0:4.0 in
  let a2 = Critical_area.short_parallel ~run:20.0 ~spacing:6.0 ~x0:4.0 in
  Alcotest.(check (float 1e-9)) "linear" (2.0 *. a1) a2

let test_open_wire () =
  Alcotest.(check (float 1e-9)) "open form" (100.0 *. 16.0 /. 4.0)
    (Critical_area.open_wire ~length:100.0 ~width:4.0 ~x0:4.0)

(* --- IFA -------------------------------------------------------------------------------- *)

let test_extract_c17 () =
  let _, _, l = build "c17" in
  let e = Ifa.extract l in
  Alcotest.(check bool) "nonempty" true (Array.length e.Ifa.faults > 0);
  Array.iter
    (fun (f : Realistic.t) ->
      Alcotest.(check bool) "positive weight" true (f.weight > 0.0))
    e.Ifa.faults

let test_extract_bridging_dominates () =
  let _, _, l = build "c432s_small" in
  let e = Ifa.extract l in
  let shorts, opens =
    Array.fold_left
      (fun (s, o) (f : Realistic.t) ->
        if Realistic.is_short f then (s +. f.weight, o) else (s, o +. f.weight))
      (0.0, 0.0) e.Ifa.faults
  in
  Alcotest.(check bool) "shorts dominate" true (shorts > opens)

let test_extract_yield_identity () =
  let _, _, l = build "c17" in
  let e = Ifa.extract l in
  Alcotest.(check (float 1e-12)) "yield = exp(-total)"
    (exp (-.Ifa.total_weight e))
    (Ifa.yield_of e)

let test_extract_weight_dispersion () =
  (* fig 3's point: weights spread over decades *)
  let _, _, l = build "c432s_small" in
  let e = Ifa.extract l in
  let ws = Array.map (fun (f : Realistic.t) -> f.weight) e.Ifa.faults in
  let lo, hi = Dl_util.Stats.min_max ws in
  Alcotest.(check bool) "at least 2 decades" true (hi /. lo > 100.0)

let test_extract_histogram () =
  let _, _, l = build "c432s_small" in
  let e = Ifa.extract l in
  let h = Ifa.weight_histogram e in
  Alcotest.(check int) "all faults binned" (Array.length e.Ifa.faults)
    (Dl_util.Histogram.total h)

let test_extract_fault_sites_valid () =
  let c, m, l = build "c432s_small" in
  let e = Ifa.extract l in
  let n_nodes = m.Mapping.node_count in
  let n_ts = Mapping.transistor_count m in
  Array.iter
    (fun (f : Realistic.t) ->
      match f.kind with
      | Realistic.Bridge { node_a; node_b } ->
          Alcotest.(check bool) "bridge nodes valid" true
            (node_a >= 0 && node_a < n_nodes && node_b >= 0 && node_b < n_nodes
           && node_a <> node_b)
      | Realistic.Transistor_stuck_open ti | Realistic.Transistor_stuck_on ti ->
          Alcotest.(check bool) "transistor valid" true (ti >= 0 && ti < n_ts)
      | Realistic.Input_open { gate; pin; _ } ->
          Alcotest.(check bool) "pin valid" true
            (gate >= 0
            && gate < Circuit.node_count c
            && pin >= 0
            && pin < Array.length c.Circuit.nodes.(gate).fanin)
      | Realistic.Stem_open { node; _ } ->
          Alcotest.(check bool) "stem valid" true
            (node >= 0 && node < Circuit.node_count c))
    e.Ifa.faults

let test_extract_no_duplicate_kinds () =
  let _, _, l = build "c432s_small" in
  let e = Ifa.extract l in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun (f : Realistic.t) ->
      Alcotest.(check bool) "unique electrical site" false (Hashtbl.mem seen f.kind);
      Hashtbl.replace seen f.kind ())
    e.Ifa.faults

let test_extract_pruning_conserves_yield () =
  let _, _, l = build "c432s_small" in
  let full = Ifa.extract l in
  let pruned = Ifa.extract ~min_weight_ratio:0.01 l in
  Alcotest.(check bool) "fewer faults" true
    (Array.length pruned.Ifa.faults < Array.length full.Ifa.faults);
  Alcotest.(check (float 1e-12)) "total conserved"
    (Ifa.total_weight full +. full.Ifa.gross_weight)
    (Ifa.total_weight pruned +. pruned.Ifa.gross_weight)

let test_extract_density_scaling_scales_weights () =
  let _, _, l = build "c17" in
  let base = Ifa.extract l in
  let doubled = Ifa.extract ~stats:(Defect_stats.scale Defect_stats.default 2.0) l in
  Alcotest.(check bool) "weights double" true
    (Float.abs ((Ifa.total_weight doubled /. Ifa.total_weight base) -. 2.0) < 1e-9)

(* --- IFA bridge scan vs the all-pairs reference ------------------------------------------ *)

(* The bridge scan before the sweep, kept as a test-only reference: every
   pair of same-layer rectangles in (layer, i, j) order, accumulated like
   [Ifa.extract] with every other defect class at zero density. *)
let all_pairs_bridges stats (l : Dl_layout.Layout.t) =
  let m = l.Dl_layout.Layout.network in
  let table = Hashtbl.create 256 and totals = Hashtbl.create 8 in
  let gross = ref 0.0 in
  let is_rail n = n = m.Mapping.gnd || n = m.Mapping.vdd in
  let node_name n =
    if n >= 0 && n < Array.length m.Mapping.node_names then m.Mapping.node_names.(n)
    else "?"
  in
  List.iter
    (fun layer ->
      let cls = Defect_stats.Short_on layer in
      let density = Defect_stats.density stats cls in
      if density > 0.0 then begin
        let x0 = Defect_stats.x0 stats cls in
        let limit = Critical_area.interaction_distance ~x0 in
        let rects = Dl_layout.Layout.rects_on l layer in
        let n = Array.length rects in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            let a = rects.(i) and b = rects.(j) in
            if a.Geom.net <> b.Geom.net then
              match Geom.facing a b with
              | Some { spacing; common_run }
                when float_of_int spacing <= limit && common_run > 0 ->
                  let w =
                    Critical_area.short_parallel ~run:(float_of_int common_run)
                      ~spacing:(float_of_int spacing) ~x0
                    *. density
                  in
                  if is_rail a.Geom.net && is_rail b.Geom.net then gross := !gross +. w
                  else if w > 0.0 then begin
                    let count, total =
                      Option.value ~default:(0, 0.0) (Hashtbl.find_opt totals cls)
                    in
                    Hashtbl.replace totals cls (count + 1, total +. w);
                    let lo = min a.Geom.net b.Geom.net and hi = max a.Geom.net b.Geom.net in
                    let kind = Realistic.Bridge { node_a = lo; node_b = hi } in
                    match Hashtbl.find_opt table kind with
                    | Some (w0, label) -> Hashtbl.replace table kind (w0 +. w, label)
                    | None ->
                        Hashtbl.replace table kind
                          ( w,
                            Printf.sprintf "%s %s/%s" (Geom.layer_name layer)
                              (node_name lo) (node_name hi) )
                  end
              | _ -> ()
          done
        done
      end)
    [ Geom.Metal1; Geom.Metal2; Geom.Poly; Geom.Diffusion_n; Geom.Diffusion_p ];
  let faults =
    Hashtbl.fold (fun kind (w, label) acc -> (label, kind, Int64.bits_of_float w) :: acc) table []
    |> List.sort compare
  in
  let summaries =
    Hashtbl.fold
      (fun cls (count, total) acc ->
        (Defect_stats.class_name cls, count, Int64.bits_of_float total) :: acc)
      totals []
    |> List.sort compare
  in
  (faults, Int64.bits_of_float !gross, summaries)

let bridges_only ~x0_scale =
  Defect_stats.make
    (List.map
       (fun layer ->
         let cls = Defect_stats.Short_on layer in
         let e = Defect_stats.entry Defect_stats.default cls in
         (cls, { e with Defect_stats.x0 = e.Defect_stats.x0 *. x0_scale }))
       [ Geom.Metal1; Geom.Metal2; Geom.Poly; Geom.Diffusion_n; Geom.Diffusion_p ])

let check_scan_matches_reference what (l : Dl_layout.Layout.t) =
  List.iter
    (fun x0_scale ->
      let stats = bridges_only ~x0_scale in
      let e = Ifa.extract ~stats l in
      let faults =
        Array.to_list e.Ifa.faults
        |> List.map (fun (f : Realistic.t) ->
               (f.label, f.kind, Int64.bits_of_float f.weight))
        |> List.sort compare
      in
      let summaries =
        List.map
          (fun (s : Ifa.class_summary) ->
            (Defect_stats.class_name s.cls, s.count, Int64.bits_of_float s.total_weight))
          e.Ifa.summaries
        |> List.sort compare
      in
      let want_faults, want_gross, want_summaries = all_pairs_bridges stats l in
      let label = Printf.sprintf "%s, x0 x%g" what x0_scale in
      Alcotest.(check bool) (label ^ ": some bridges") true (want_faults <> []);
      Alcotest.(check bool) (label ^ ": faults") true (faults = want_faults);
      Alcotest.(check int64) (label ^ ": gross weight bits") want_gross
        (Int64.bits_of_float e.Ifa.gross_weight);
      Alcotest.(check bool) (label ^ ": summaries") true (summaries = want_summaries))
    [ 1.0; 4.0 ]

let test_scan_matches_reference_benchmarks () =
  List.iter
    (fun name ->
      let _, _, l = build name in
      check_scan_matches_reference name l)
    [ "c17"; "c432s_small" ]

let test_scan_matches_reference_families () =
  List.iteri
    (fun i (fam : Generator.Family.t) ->
      let c =
        Transform.decompose_for_cells
          (Generator.Family.build fam ~seed:(31 + i) ~gates:(20 + (7 * i)))
      in
      check_scan_matches_reference fam.Generator.Family.name
        (Dl_layout.Layout.synthesize (Mapping.flatten c)))
    Generator.Family.all

(* --- Realistic fault helpers ------------------------------------------------------------ *)

let test_probability_weight_inverses () =
  List.iter
    (fun w ->
      let f = { Realistic.kind = Realistic.Transistor_stuck_on 0; weight = w; label = "" } in
      let p = Realistic.probability f in
      Alcotest.(check (float 1e-12)) "inverse" w (Realistic.weight_of_probability p))
    [ 1e-9; 1e-6; 1e-3; 0.1; 2.0 ]

let test_is_short_classification () =
  let mk kind = { Realistic.kind; weight = 1.0; label = "" } in
  Alcotest.(check bool) "bridge" true
    (Realistic.is_short (mk (Realistic.Bridge { node_a = 0; node_b = 1 })));
  Alcotest.(check bool) "ts-on" true
    (Realistic.is_short (mk (Realistic.Transistor_stuck_on 0)));
  Alcotest.(check bool) "ts-open" false
    (Realistic.is_short (mk (Realistic.Transistor_stuck_open 0)));
  Alcotest.(check bool) "stem open" false
    (Realistic.is_short
       (mk (Realistic.Stem_open { node = 0; policy = Realistic.Floats_low })))

let () =
  Alcotest.run "dl_extract"
    [
      ( "defect-stats",
        [
          Alcotest.test_case "bridging dominant" `Quick test_default_bridging_dominant;
          Alcotest.test_case "scale" `Quick test_scale;
          Alcotest.test_case "scale class" `Quick test_scale_class;
          Alcotest.test_case "size pdf normalized" `Quick test_size_pdf_normalized;
          Alcotest.test_case "unknown class zero" `Quick test_unknown_class_zero;
        ] );
      ( "critical-area",
        [
          Alcotest.test_case "short closed form" `Quick test_short_closed_form;
          Alcotest.test_case "touching branch" `Quick test_short_touching;
          Alcotest.test_case "matches numeric" `Quick test_short_matches_numeric;
          Alcotest.test_case "monotone in spacing" `Quick
            test_short_monotone_decreasing_in_spacing;
          Alcotest.test_case "linear in run" `Quick test_short_linear_in_run;
          Alcotest.test_case "open wire" `Quick test_open_wire;
        ] );
      ( "ifa",
        [
          Alcotest.test_case "extract c17" `Quick test_extract_c17;
          Alcotest.test_case "bridging dominates" `Quick test_extract_bridging_dominates;
          Alcotest.test_case "yield identity" `Quick test_extract_yield_identity;
          Alcotest.test_case "weight dispersion" `Quick test_extract_weight_dispersion;
          Alcotest.test_case "histogram complete" `Quick test_extract_histogram;
          Alcotest.test_case "fault sites valid" `Quick test_extract_fault_sites_valid;
          Alcotest.test_case "no duplicate sites" `Quick test_extract_no_duplicate_kinds;
          Alcotest.test_case "pruning conserves yield" `Quick
            test_extract_pruning_conserves_yield;
          Alcotest.test_case "density scaling" `Quick
            test_extract_density_scaling_scales_weights;
          Alcotest.test_case "bridge scan = all pairs, benchmarks" `Quick
            test_scan_matches_reference_benchmarks;
          Alcotest.test_case "bridge scan = all pairs, families" `Quick
            test_scan_matches_reference_families;
        ] );
      ( "realistic",
        [
          Alcotest.test_case "probability inverses" `Quick test_probability_weight_inverses;
          Alcotest.test_case "short/open classes" `Quick test_is_short_classification;
        ] );
    ]
