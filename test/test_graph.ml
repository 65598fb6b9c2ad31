open Repro_util
open Repro_graph

let qtest = QCheck_alcotest.to_alcotest

(* Small named graphs used across the suite. *)
let triangle = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ]
let path5 = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ]

let k4 =
  Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]

(* Random connected graph generator for property tests. *)
let random_connected ~seed ~n ~extra =
  let rng = Rng.create seed in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v, Rng.int rng v) :: !edges
  done;
  for _ = 1 to extra do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then edges := (u, v) :: !edges
  done;
  Graph.of_edges ~n !edges

let test_build_dedup () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 0); (1, 2) ] in
  Alcotest.(check int) "m dedups" 2 (Graph.m g);
  Alcotest.(check int) "deg 1" 2 (Graph.degree g 1)

let test_build_rejects_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self loop")
    (fun () -> ignore (Graph.of_edges ~n:2 [ (1, 1) ]))

let test_build_rejects_range () =
  Alcotest.check_raises "range"
    (Invalid_argument "Graph.of_edges: vertex out of range") (fun () ->
      ignore (Graph.of_edges ~n:2 [ (0, 2) ]))

let test_mem_edge () =
  Alcotest.(check bool) "in" true (Graph.mem_edge triangle 0 2);
  Alcotest.(check bool) "sym" true (Graph.mem_edge triangle 2 0);
  Alcotest.(check bool) "out" false (Graph.mem_edge path5 0 2);
  Alcotest.(check bool) "self" false (Graph.mem_edge triangle 1 1)

let test_edges_list () =
  let es = Graph.edges triangle |> List.sort compare in
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (0, 2); (1, 2) ] es

let test_induced () =
  let keep = [| true; false; true; true |] in
  let sub, old2new, new2old = Graph.induced k4 keep in
  Alcotest.(check int) "n" 3 (Graph.n sub);
  Alcotest.(check int) "m" 3 (Graph.m sub);
  Alcotest.(check int) "map drop" (-1) old2new.(1);
  Alcotest.(check int) "roundtrip" 2 old2new.(new2old.(2))

let test_induced_members_scratch () =
  let g = random_connected ~seed:42 ~n:40 ~extra:30 in
  let scratch = Graph.Scratch.create () in
  let check members =
    let keep = Array.make 40 false in
    Array.iter (fun v -> keep.(v) <- true) members;
    let sub_k, old2new_k, new2old_k = Graph.induced g keep in
    let sub_m, old2new_m, new2old_m = Graph.induced_members ~scratch g members in
    Alcotest.(check (array int)) "new->old = keep build" new2old_k new2old_m;
    for v = 0 to 39 do
      Alcotest.(check int) "old->new = keep build" old2new_k.(v) old2new_m.(v)
    done;
    Alcotest.(check int) "sub m" (Graph.m sub_k) (Graph.m sub_m);
    for v = 0 to Graph.n sub_k - 1 do
      Alcotest.(check (array int)) "sub row"
        (Graph.neighbors sub_k v) (Graph.neighbors sub_m v)
    done;
    new2old_m
  in
  (* Two calls on overlapping member sets through ONE scratch: the second
     must see a clean map (the un-mark pass between calls), and the first
     call's new->old map, the scratch's occupant until then, must come out
     of it unchanged. *)
  let first = check [| 3; 1; 7; 12; 30; 21; 9 |] in
  ignore (check [| 5; 7; 2; 21; 33; 14 |]);
  Alcotest.(check (array int)) "first new->old kept, sorted"
    [| 1; 3; 7; 9; 12; 21; 30 |] first

(* [induced_members] orders its members by an insertion sort up to 32 of
   them and by a radix sort on bytes beyond: on a graph of more than 2^16
   vertices the ids need three radix passes.  Chords of span 1, 256 and
   2^16 give every byte a part in the induced rows.  Each case draws
   members around a random base (plus its 256- and 2^16-shifted copies, a
   few ids anywhere and a few among the top ids), shuffled, with sizes on
   both sides of the cut, on the large graph and on two smaller ones; all
   calls go through one scratch, whose map must equal the keep-array
   build exactly. *)
let radix_graph =
  let n = 70_000 in
  let edges = ref [] in
  for v = 0 to n - 2 do
    edges := (v, v + 1) :: !edges;
    if v mod 3 = 0 && v + 256 < n then edges := (v, v + 256) :: !edges;
    if v + 65_536 < n then edges := (v, v + 65_536) :: !edges
  done;
  Graph.of_edges ~n !edges

let induced_scratch = Graph.Scratch.create ()

let prop_induced_members_keep =
  let small = random_connected ~seed:7 ~n:200 ~extra:300 in
  let medium = random_connected ~seed:8 ~n:3000 ~extra:3000 in
  QCheck.Test.make ~name:"induced_members = keep-array induced" ~count:80
    QCheck.(pair (int_bound 100_000) (int_range 1 400))
    (fun (seed, size) ->
      let rng = Rng.create seed in
      let agrees g =
        let n = Graph.n g in
        let base = Rng.int rng n and width = 1 + Rng.int rng 64 in
        let pool = Hashtbl.create 64 in
        let add v = if v >= 0 && v < n then Hashtbl.replace pool v () in
        for i = 0 to width - 1 do
          List.iter (fun d -> add (base + i + d)) [ 0; 256; 65_536 ]
        done;
        for _ = 1 to 1 + Rng.int rng 8 do
          add (Rng.int rng n);
          add (n - 1 - Rng.int rng (min n 4_000))
        done;
        let members = Array.of_seq (Hashtbl.to_seq_keys pool) in
        Rng.shuffle_in_place rng members;
        let members = Array.sub members 0 (min size (Array.length members)) in
        let keep = Array.make n false in
        Array.iter (fun v -> keep.(v) <- true) members;
        let sub_k, old2new_k, new2old_k = Graph.induced g keep in
        let sub_m, old2new_m, new2old_m =
          Graph.induced_members ~scratch:induced_scratch g members
        in
        new2old_k = new2old_m
        && Array.for_all Fun.id (Array.init n (fun v -> old2new_k.(v) = old2new_m.(v)))
        && Graph.n sub_k = Graph.n sub_m
        && Graph.m sub_k = Graph.m sub_m
        && List.for_all
             (fun v -> Graph.neighbors sub_k v = Graph.neighbors sub_m v)
             (List.init (Graph.n sub_k) Fun.id)
      in
      agrees radix_graph && agrees small && agrees medium)

(* [Rotation.induced] places each kept neighbour by counting kept slots
   of the parent row.  The reference restriction is each member's parent
   clockwise order with non-members dropped, validated by
   [Rotation.of_orders]; both must agree on every order and every rank's
   slot.  Member sets are connected BFS balls and scattered random subsets
   (in random order), on every clean family, through one scratch. *)
let prop_rotation_induced =
  let open Repro_embedding in
  let families = Array.of_list Repro_testkit.Instance.families in
  QCheck.Test.make ~name:"Rotation.induced = dropped parent orders" ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 4 300))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let family = families.(seed mod Array.length families) in
      let inst =
        Repro_testkit.Instance.build
          { family; n; seed; spanning = Repro_tree.Spanning.Bfs }
      in
      let emb = inst.Repro_testkit.Instance.emb in
      let g = Embedded.graph emb and rot = Embedded.rot emb in
      let n = Graph.n g in
      let agrees members =
        let sub, new_of_old, old_of_new =
          Graph.induced_members ~scratch:induced_scratch g members
        in
        let got = Rotation.induced rot ~sub ~new_of_old ~old_of_new in
        let reference =
          Rotation.of_orders sub
            (Array.map
               (fun v ->
                 Rotation.order rot v |> Array.to_list
                 |> List.filter_map (fun u ->
                        if new_of_old.(u) >= 0 then Some new_of_old.(u) else None)
                 |> Array.of_list)
               old_of_new)
        in
        List.for_all
          (fun nv ->
            Rotation.order got nv = Rotation.order reference nv
            && List.for_all
                 (fun r ->
                   Rotation.position_of_rank got nv r
                   = Rotation.position_of_rank reference nv r)
                 (List.init (Graph.degree sub nv) Fun.id))
          (List.init (Graph.n sub) Fun.id)
      in
      let ball =
        let dist = Algo.bfs_dist g (Rng.int rng n) in
        let radius = Rng.int rng (1 + Array.fold_left max 0 dist) in
        let members =
          Array.of_list
            (List.filter (fun v -> dist.(v) <= radius) (List.init n Fun.id))
        in
        Rng.shuffle_in_place rng members;
        members
      in
      let scattered =
        let members = Array.init n Fun.id in
        Rng.shuffle_in_place rng members;
        Array.sub members 0 (Rng.int_in_range rng ~lo:1 ~hi:n)
      in
      agrees ball && agrees scattered && agrees (Array.init n Fun.id))

(* The pre-CSR edge index encoded a pair as u * 2^30 + v, so vertex ids
   past 2^30 silently collided: encode 1 5 = encode 0 (2^30 + 5).  The CSR
   core must either accept such graphs without collision or reject them
   with [Invalid_argument] (small hosts run out of memory allocating the
   row array — also a graceful outcome). *)
let test_large_n_no_collision () =
  let n = (1 lsl 30) + 8 in
  match Graph.of_edges ~n [ (1, 5) ] with
  | g ->
    Alcotest.(check bool) "edge present" true (Graph.mem_edge g 1 5);
    Alcotest.(check bool) "no 2^30 collision" false
      (Graph.mem_edge g 0 ((1 lsl 30) + 5));
    Alcotest.(check int) "m" 1 (Graph.m g)
  | exception (Invalid_argument _ | Out_of_memory) -> ()

let test_bfs_dist () =
  let d = Algo.bfs_dist path5 0 in
  Alcotest.(check (array int)) "dists" [| 0; 1; 2; 3; 4 |] d

let test_bfs_parents_tree () =
  let p = Algo.bfs_parents path5 2 in
  Alcotest.(check int) "root" (-1) p.(2);
  Alcotest.(check int) "left" 2 p.(1);
  Alcotest.(check int) "right" 2 p.(3)

let test_components () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (2, 3) ] in
  let _, k = Algo.components g in
  Alcotest.(check int) "three comps" 3 k;
  Alcotest.(check bool) "not connected" false (Algo.is_connected g);
  Alcotest.(check bool) "path connected" true (Algo.is_connected path5)

let test_diameter () =
  Alcotest.(check int) "path" 4 (Algo.diameter path5);
  Alcotest.(check int) "triangle" 1 (Algo.diameter triangle);
  Alcotest.(check int) "k4" 1 (Algo.diameter k4)

(* The reference: the largest finite BFS distance over every source. *)
let all_pairs_diameter g =
  let d = ref 0 in
  for v = 0 to Graph.n g - 1 do
    Array.iter (fun x -> d := max !d x) (Algo.bfs_dist g v)
  done;
  !d

(* A double sweep from vertex 0 reads 63 here; all-pairs BFS reads 66. *)
let test_diameter_tgrid_3025 () =
  let emb = Repro_embedding.Gen.by_family ~seed:3 "tgrid" ~n:3025 in
  Alcotest.(check int) "D" 66
    (Algo.diameter (Repro_embedding.Embedded.graph emb))

(* Every generator family up to n = 400, a union of two grids, a graph
   with isolated vertices, and the graphs on 0, 1 and 2 vertices. *)
let diameter_cases () =
  let module Gen = Repro_embedding.Gen in
  let family =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun n ->
            List.map
              (fun seed ->
                ( Printf.sprintf "%s:%d:%d" name n seed,
                  Repro_embedding.Embedded.graph (Gen.by_family ~seed name ~n) ))
              [ 1; 2 ])
          [ 1; 2; 3; 5; 9; 17; 40; 100; 230; 400 ])
      Gen.families
  in
  let union seed =
    ( Printf.sprintf "xunion:%d" seed,
      Repro_embedding.Embedded.graph
        (Repro_testkit.Instance.disconnected_union ~seed ~n:150) )
  in
  family
  @ [
      union 1;
      union 2;
      ("isolated", Graph.of_edges ~n:8 [ (1, 2); (2, 3); (5, 6) ]);
      ("n=0", Graph.of_edges ~n:0 []);
      ("n=1", Graph.of_edges ~n:1 []);
      ("n=2", Graph.of_edges ~n:2 [ (0, 1) ]);
      ("n=2 no edge", Graph.of_edges ~n:2 []);
    ]

let test_diameter_all_pairs () =
  List.iter
    (fun (name, g) ->
      Alcotest.(check int) name (all_pairs_diameter g) (Algo.diameter g))
    (diameter_cases ())

let test_diameter_exceeds () =
  List.iter
    (fun (name, g) ->
      let d = Algo.diameter g in
      for k = d - 2 to d + 2 do
        Alcotest.(check bool)
          (Printf.sprintf "%s: D = %d > %d" name d k)
          (d > k) (Algo.diameter_exceeds g k)
      done)
    (diameter_cases ())

let test_dfs_parents () =
  let p = Algo.dfs_parents k4 0 in
  Alcotest.(check int) "root" (-1) p.(0);
  Alcotest.(check bool) "dfs tree" true (Algo.is_dfs_tree k4 ~root:0 ~parent:p)

let test_is_dfs_tree_rejects_bfs_on_cycle () =
  (* On C4, the BFS tree from 0 has a non-tree edge between two branches:
     not a DFS tree. *)
  let c4 = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let bfs = Algo.bfs_parents c4 0 in
  let dfs = Algo.dfs_parents c4 0 in
  Alcotest.(check bool) "bfs rejected" false (Algo.is_dfs_tree c4 ~root:0 ~parent:bfs);
  Alcotest.(check bool) "dfs accepted" true (Algo.is_dfs_tree c4 ~root:0 ~parent:dfs)

let test_is_dfs_tree_rejects_garbage () =
  let bad = [| -1; 0; 0; 5 |] in
  Alcotest.(check bool) "garbage parent" false
    (Algo.is_dfs_tree k4 ~root:0 ~parent:bad)

let prop_dfs_tree_valid =
  QCheck.Test.make ~name:"centralized DFS always yields a DFS tree" ~count:100
    QCheck.(pair (int_range 2 60) (int_bound 1000))
    (fun (n, seed) ->
      let g = random_connected ~seed ~n ~extra:(n / 2) in
      let p = Algo.dfs_parents g 0 in
      Algo.is_dfs_tree g ~root:0 ~parent:p)

let prop_bfs_dist_triangle_ineq =
  QCheck.Test.make ~name:"bfs distances are 1-Lipschitz along edges" ~count:100
    QCheck.(pair (int_range 2 60) (int_bound 1000))
    (fun (n, seed) ->
      let g = random_connected ~seed ~n ~extra:n in
      let d = Algo.bfs_dist g 0 in
      let ok = ref true in
      Graph.iter_edges g (fun u v -> if abs (d.(u) - d.(v)) > 1 then ok := false);
      !ok)

(* The hash-table version [Algo.restricted_components] replaced, verbatim:
   the output it must keep, component order and BFS order included. *)
let restricted_components_reference g ~members ~skip =
  let k = Array.length members in
  let inside = Hashtbl.create (2 * k) in
  Array.iter (fun v -> if not (skip v) then Hashtbl.replace inside v ()) members;
  let queue = Array.make (max 1 k) 0 in
  let tail = ref 0 in
  let comps = ref [] in
  Array.iter
    (fun v ->
      if Hashtbl.mem inside v then begin
        let start = !tail in
        Hashtbl.remove inside v;
        queue.(!tail) <- v;
        incr tail;
        let head = ref start in
        while !head < !tail do
          let x = queue.(!head) in
          incr head;
          Graph.iter_neighbors g x (fun u ->
              if Hashtbl.mem inside u then begin
                Hashtbl.remove inside u;
                queue.(!tail) <- u;
                incr tail
              end)
        done;
        comps := Array.sub queue start (!tail - start) :: !comps
      end)
    members;
  List.rev !comps

(* A random member subset in random order, and a random skip set. *)
let random_restriction rng g =
  let n = Graph.n g in
  let members = Array.init n Fun.id in
  Rng.shuffle_in_place rng members;
  let members = Array.sub members 0 (Rng.int_in_range rng ~lo:1 ~hi:n) in
  let skipped = Array.init n (fun _ -> Rng.int rng 4 = 0) in
  (members, fun v -> skipped.(v))

(* The per-domain marks against the reference.  Each case first runs a
   larger graph, so the marks are longer than the graph under test, then a
   call whose [skip] raises halfway: the next call on the domain must not
   see the marks it left. *)
let prop_restricted_components =
  let large = Repro_embedding.(Embedded.graph (Gen.by_family ~seed:1 "grid" ~n:2500)) in
  QCheck.Test.make ~name:"restricted_components = reference" ~count:60
    QCheck.(pair (int_bound 6) (int_bound 10_000))
    (fun (f, seed) ->
      let rng = Rng.create seed in
      let agrees g (members, skip) =
        Algo.restricted_components g ~members ~skip
        = restricted_components_reference g ~members ~skip
      in
      let family = List.nth Repro_embedding.Gen.family_names f in
      let g =
        Repro_embedding.(
          Embedded.graph
            (Gen.by_family ~seed family ~n:(Rng.int_in_range rng ~lo:4 ~hi:300)))
      in
      let large_ok = agrees large (random_restriction rng large) in
      let first = agrees g (random_restriction rng g) in
      let members, skip = random_restriction rng g in
      let calls = ref 0 in
      let raising v =
        incr calls;
        if !calls > Array.length members / 2 then raise Exit;
        skip v
      in
      (match Algo.restricted_components g ~members ~skip:raising with
      | _ -> ()
      | exception Exit -> ());
      large_ok && first && agrees g (random_restriction rng g))

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
        Alcotest.test_case "dedup" `Quick test_build_dedup;
        Alcotest.test_case "reject loop" `Quick test_build_rejects_loop;
        Alcotest.test_case "reject range" `Quick test_build_rejects_range;
        Alcotest.test_case "mem_edge" `Quick test_mem_edge;
        Alcotest.test_case "edges list" `Quick test_edges_list;
        Alcotest.test_case "induced" `Quick test_induced;
        Alcotest.test_case "induced_members scratch reuse" `Quick
          test_induced_members_scratch;
        Alcotest.test_case "n > 2^30 rejected or collision-free" `Slow
          test_large_n_no_collision;
        Alcotest.test_case "bfs dist" `Quick test_bfs_dist;
        Alcotest.test_case "bfs parents" `Quick test_bfs_parents_tree;
        Alcotest.test_case "components" `Quick test_components;
        Alcotest.test_case "diameter" `Quick test_diameter;
        Alcotest.test_case "dfs parents" `Quick test_dfs_parents;
        Alcotest.test_case "is_dfs_tree rejects bfs" `Quick
          test_is_dfs_tree_rejects_bfs_on_cycle;
        Alcotest.test_case "is_dfs_tree rejects garbage" `Quick
          test_is_dfs_tree_rejects_garbage;
        qtest prop_dfs_tree_valid;
        qtest prop_bfs_dist_triangle_ineq;
        qtest prop_restricted_components;
        qtest prop_induced_members_keep;
        qtest prop_rotation_induced;
        Alcotest.test_case "diameter exact on tgrid n=3025 seed 3" `Quick
          test_diameter_tgrid_3025;
        Alcotest.test_case "diameter = all-pairs reference" `Quick
          test_diameter_all_pairs;
        Alcotest.test_case "diameter_exceeds = diameter > k" `Quick
          test_diameter_exceeds;
    ]
