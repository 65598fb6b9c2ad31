open Repro_util

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done

let test_rng_range () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in range" true (x >= -5 && x <= 5)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = Array.init 20 (fun _ -> Rng.int a 1000000) in
  let ys = Array.init 20 (fun _ -> Rng.int b 1000000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* ------------------------------------------------------------------ *)
(* Union_find                                                          *)
(* ------------------------------------------------------------------ *)

let test_uf_basic () =
  let uf = Union_find.create 10 in
  Alcotest.(check int) "initial components" 10 (Union_find.components uf);
  Alcotest.(check bool) "union new" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union dup" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 2);
  Alcotest.(check int) "size" 2 (Union_find.component_size uf 0);
  Alcotest.(check int) "components" 9 (Union_find.components uf)

let test_uf_chain () =
  let n = 1000 in
  let uf = Union_find.create n in
  for i = 0 to n - 2 do
    ignore (Union_find.union uf i (i + 1))
  done;
  Alcotest.(check int) "one component" 1 (Union_find.components uf);
  Alcotest.(check int) "full size" n (Union_find.component_size uf 500);
  Alcotest.(check bool) "ends joined" true (Union_find.same uf 0 (n - 1))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_mean_median () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean a);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Stats.median a);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile a 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile a 100.0)

let test_stats_slope () =
  let x = [| 1.0; 2.0; 3.0; 4.0 |] in
  let y = [| 3.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "slope" 2.0 (Stats.linear_slope ~x ~y)

let test_stats_loglog () =
  (* y = x^2 has log-log slope 2. *)
  let x = [| 2.0; 4.0; 8.0; 16.0 |] in
  let y = Array.map (fun v -> v *. v) x in
  Alcotest.(check (float 1e-9)) "exponent" 2.0 (Stats.loglog_slope ~x ~y)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_renders () =
  let t = Table.create ~title:"demo" [ "a"; "bb" ] in
  Table.add_row t [ "1"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 7 = "== demo")

let test_table_arity () =
  let t = Table.create ~title:"demo" [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong arity")
    (fun () -> Table.add_row t [ "1" ])

(* Property: percentile is monotone in p. *)
let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 30) (float_bound_exclusive 1000.0))
              (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun (xs, (p1, p2)) ->
      let a = Array.of_list xs in
      let lo = min p1 p2 and hi = max p1 p2 in
      Stats.percentile a lo <= Stats.percentile a hi +. 1e-9)

let prop_union_find_transitive =
  QCheck.Test.make ~name:"union-find transitivity" ~count:200
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      (* find is idempotent and consistent with same *)
      List.for_all
        (fun (a, b) ->
          Union_find.same uf a b
          = (Union_find.find uf a = Union_find.find uf b))
        pairs)

let suites =
  Repro_testkit.Suite.make __MODULE__
    [
        Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
        Alcotest.test_case "rng range" `Quick test_rng_range;
        Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "rng split" `Quick test_rng_split_independent;
        Alcotest.test_case "union-find basic" `Quick test_uf_basic;
        Alcotest.test_case "union-find chain" `Quick test_uf_chain;
        Alcotest.test_case "stats mean/median" `Quick test_stats_mean_median;
        Alcotest.test_case "stats slope" `Quick test_stats_slope;
        Alcotest.test_case "stats loglog" `Quick test_stats_loglog;
        Alcotest.test_case "table renders" `Quick test_table_renders;
        Alcotest.test_case "table arity" `Quick test_table_arity;
        qtest prop_percentile_monotone;
        qtest prop_union_find_transitive;
    ]
