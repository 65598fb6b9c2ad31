open Repro_graph
open Repro_embedding
open Repro_tree
open Repro_core

let qtest = QCheck_alcotest.to_alcotest

(* The real fundamental edges, as Phase 1's table lists them. *)
let fundamental cfg = Weights.edges (Weights.all_weights cfg)

(* The one-pass weights equal per-edge Definition 2 on every edge. *)
let one_pass_weights_exact cfg =
  List.for_all
    (fun ((u, v), w) -> w = Weights.weight cfg ~u ~v)
    (Weights.to_list (Weights.all_weights cfg))

(* The core experiment-E6 property: Definition 2 equals its proven meaning
   (Lemmas 3/4), i.e. the exact count from the reference interior, and the
   one-pass weights equal it. *)
let weights_exact emb spanning =
  let cfg = Config.of_embedded ~spanning emb in
  one_pass_weights_exact cfg
  && List.for_all
       (fun (u, v) -> Weights.weight cfg ~u ~v = Weights.count_reference cfg ~u ~v)
       (fundamental cfg)

let test_weights_grid () =
  List.iter
    (fun sp ->
      Alcotest.(check bool)
        (Spanning.kind_name sp) true
        (weights_exact (Gen.grid ~rows:6 ~cols:6) sp))
    [ Spanning.Bfs; Spanning.Dfs; Spanning.Random 7 ]

let test_weights_wheel_fan () =
  List.iter
    (fun emb ->
      List.iter
        (fun sp ->
          Alcotest.(check bool)
            (Embedded.name emb ^ "/" ^ Spanning.kind_name sp)
            true (weights_exact emb sp))
        [ Spanning.Bfs; Spanning.Dfs; Spanning.Random 3 ])
    [ Gen.wheel 12; Gen.fan 11; Gen.cycle 9 ]

let prop_weights_exact_everywhere =
  QCheck.Test.make ~name:"Definition 2 = Lemma 3/4 count (E6)" ~count:80
    QCheck.(triple (int_range 0 3) (int_range 8 80) (int_bound 100000))
    (fun (which, n, seed) ->
      let emb =
        match which with
        | 0 -> Gen.grid_diag ~seed ~rows:(max 2 (n / 6)) ~cols:6 ()
        | 1 -> Gen.stacked_triangulation ~seed ~n ()
        | 2 -> Gen.thin ~seed ~keep:0.6 (Gen.stacked_triangulation ~seed ~n ())
        | _ -> Gen.grid ~rows:(max 2 (n / 7)) ~cols:7
      in
      let spanning =
        match seed mod 3 with
        | 0 -> Spanning.Bfs
        | 1 -> Spanning.Dfs
        | _ -> Spanning.Random seed
      in
      weights_exact emb spanning)

(* ω bounds the interior size from above (what Lemma 5 uses). *)
let prop_weight_bounds_interior =
  QCheck.Test.make ~name:"interior <= weight <= interior + border" ~count:40
    QCheck.(pair (int_range 8 50) (int_bound 10000))
    (fun (n, seed) ->
      let emb = Gen.stacked_triangulation ~seed ~n () in
      let cfg = Config.of_embedded ~spanning:(Spanning.Random seed) emb in
      List.for_all
        (fun (u, v) ->
          let w = Weights.weight cfg ~u ~v in
          let interior = List.length (Faces.interior_reference cfg ~u ~v) in
          let border = List.length (Faces.border cfg ~u ~v) in
          interior <= w && w <= interior + border)
        (fundamental cfg))

(* Lemma 5 soundness: weight in range implies the border path is balanced. *)
let prop_lemma5_soundness =
  QCheck.Test.make ~name:"weight in [n/3,2n/3] => border path balanced" ~count:60
    QCheck.(pair (int_range 8 120) (int_bound 100000))
    (fun (n, seed) ->
      let emb = Gen.stacked_triangulation ~seed ~n () in
      let spanning =
        match seed mod 3 with
        | 0 -> Spanning.Bfs
        | 1 -> Spanning.Dfs
        | _ -> Spanning.Random seed
      in
      let cfg = Config.of_embedded ~spanning emb in
      let tree = Config.tree cfg in
      let nn = Config.n cfg in
      List.for_all
        (fun ((u, v), w) ->
          if 3 * w >= nn && 3 * w <= 2 * nn then
            Check.balanced cfg (Rooted.path tree u v)
          else true)
        (Weights.to_list (Weights.all_weights cfg)))

let test_outside_split_partition () =
  let cfg =
    Config.of_embedded ~spanning:Spanning.Bfs (Gen.grid_diag ~seed:3 ~rows:5 ~cols:5 ())
  in
  let g = Config.graph cfg in
  List.iter
    (fun (u, v) ->
      let nl, nr, region = Weights.outside_split cfg ~u ~v in
      let fl = region `Left and fr = region `Right in
      Alcotest.(check int) "|F_l| counted = listed" (List.length fl) nl;
      Alcotest.(check int) "|F_r| counted = listed" (List.length fr) nr;
      let interior = Faces.interior_reference cfg ~u ~v in
      let border = Faces.border cfg ~u ~v in
      Alcotest.(check int) "F_l + F_r + face = n" (Graph.n g)
        (List.length fl + List.length fr + List.length interior + List.length border);
      (* Disjointness *)
      let seen = Hashtbl.create 32 in
      List.iter
        (fun z ->
          Alcotest.(check bool) "disjoint" false (Hashtbl.mem seen z);
          Hashtbl.replace seen z ())
        (fl @ fr @ interior @ border))
    (fundamental cfg)

let test_p_term_matches_subtree_count () =
  let cfg =
    Config.of_embedded ~spanning:Spanning.Dfs (Gen.stacked_triangulation ~seed:9 ~n:40 ())
  in
  let tree = Config.tree cfg in
  List.iter
    (fun (u, v) ->
      let case = Faces.classify cfg ~u ~v in
      let interior = Faces.interior_reference cfg ~u ~v in
      let count_in_subtree x =
        List.length
          (List.filter (fun z -> Rooted.is_ancestor tree ~anc:x ~desc:z && z <> x) interior)
      in
      (* p_{F_e}(v) counts the strict-subtree members of the face at v. *)
      Alcotest.(check int)
        (Printf.sprintf "p(v) e=(%d,%d)" u v)
        (count_in_subtree v)
        (Weights.p_term cfg ~u ~v ~case v))
    (fundamental cfg)

(* ------------------------------------------------------------------ *)
(* Part configurations: what Dfs.run and Decomposition.build hand to    *)
(* the separator.  [Config.of_part] leaves root_first = None, and the   *)
(* root (a component's anchor, or its smallest member) need not lie on  *)
(* the outer face — unlike every [Config.of_embedded] property above.   *)
(* ------------------------------------------------------------------ *)

let part_family which ~n ~seed =
  match which with
  | 0 -> Gen.stacked_triangulation ~seed ~n ()
  | 1 -> Gen.by_family ~seed "tgrid" ~n
  | 2 -> Gen.grid_diag ~seed ~rows:(max 2 (n / 8)) ~cols:8 ()
  | 3 -> Gen.thin ~seed ~keep:0.6 (Gen.stacked_triangulation ~seed ~n ())
  | 4 -> Gen.wheel (max 4 n)
  | _ -> Gen.fan (max 3 n)

let part_family_count = 6

(* The components of the first two DFS phases, built exactly as
   [Dfs.run] builds them (root at the component's anchor), followed by the
   parts of the first two decomposition levels (root at the smallest
   member, as [Decomposition.build] does).  Parts of at most 3 vertices
   never reach the separator and are skipped. *)
let part_configs emb =
  let g = Embedded.graph emb in
  let n = Graph.n g in
  let all = Array.init n Fun.id in
  let acc = ref [] in
  let keep cfg = acc := cfg :: !acc in
  let separator_of cfg =
    List.map (Config.to_global cfg) (Separator.find cfg).Separator.separator
  in
  let st = Join.create g ~root:0 in
  for _phase = 1 to 2 do
    let comps = Join.unvisited_components st all in
    let seps =
      List.map
        (fun members ->
          if Array.length members <= 3 then (members, Array.to_list members)
          else begin
            let root =
              match Join.component_anchor st members with
              | Some (v, _) -> v
              | None -> members.(0)
            in
            let cfg = Config.of_part ~members ~root emb in
            keep cfg;
            (members, separator_of cfg)
          end)
        comps
    in
    List.iter
      (fun (members, separator) -> ignore (Join.join st ~members ~separator))
      seps
  done;
  let split members =
    let cfg = Config.of_part ~members ~root:members.(0) emb in
    keep cfg;
    let sep = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace sep v ()) (separator_of cfg);
    Algo.restricted_components g ~members ~skip:(Hashtbl.mem sep)
    |> List.filter (fun m -> Array.length m > 3)
  in
  List.iter (fun m -> ignore (split m)) (split all);
  List.rev !acc

let arb_part_family =
  QCheck.(
    triple (int_range 0 (part_family_count - 1)) (int_range 12 80) (int_bound 10000))

let prop_p_term_prefix_sums_on_parts =
  QCheck.Test.make ~name:"prefix-sum p-term = per-child enumeration (parts)"
    ~count:40 arb_part_family (fun (which, n, seed) ->
      List.for_all
        (fun cfg ->
          one_pass_weights_exact cfg
          && List.for_all
            (fun (u, v) ->
              let case = Faces.classify cfg ~u ~v in
              List.for_all
                (fun x ->
                  Weights.p_term cfg ~u ~v ~case x
                  = Repro_testkit.Oracle.p_term_reference cfg ~u ~v ~case x)
                (Faces.border cfg ~u ~v))
            (fundamental cfg))
        (part_configs (part_family which ~n ~seed)))

let prop_weights_exact_on_parts =
  QCheck.Test.make ~name:"Definition 2 = Lemma 3/4 count (parts)" ~count:40
    arb_part_family (fun (which, n, seed) ->
      List.for_all
        (fun cfg ->
          one_pass_weights_exact cfg
          && List.for_all
            (fun (u, v) -> Weights.weight cfg ~u ~v = Weights.count_reference cfg ~u ~v)
            (fundamental cfg))
        (part_configs (part_family which ~n ~seed)))

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
        Alcotest.test_case "exact on grids" `Quick test_weights_grid;
        Alcotest.test_case "exact on wheel/fan/cycle" `Quick test_weights_wheel_fan;
        Alcotest.test_case "outside split partitions" `Quick
          test_outside_split_partition;
        Alcotest.test_case "p-term = subtree count" `Quick
          test_p_term_matches_subtree_count;
        qtest prop_weights_exact_everywhere;
        qtest prop_weight_bounds_interior;
        qtest prop_lemma5_soundness;
        qtest prop_p_term_prefix_sums_on_parts;
        qtest prop_weights_exact_on_parts;
    ]
