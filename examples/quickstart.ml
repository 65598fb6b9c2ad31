(* Quickstart: generate a planar graph, compute a deterministic cycle
   separator (Theorem 1), verify it, and show the charged CONGEST rounds.

   Run with:  dune exec examples/quickstart.exe *)

open Repro_graph
open Repro_embedding
open Repro_congest
open Repro_core

let () =
  (* A triangulated 20x20 grid: 400 nodes, diameter ~ 40. *)
  let emb = Gen.grid_diag ~seed:42 ~rows:20 ~cols:20 () in
  let g = Embedded.graph emb in
  let d = Algo.diameter g in
  Printf.printf "graph: %s with n=%d, m=%d, D=%d\n" (Embedded.name emb)
    (Graph.n g) (Graph.m g) d;

  (* A planar configuration: embedding + spanning tree with DFS orders. *)
  let cfg = Config.of_embedded emb in

  (* Charged CONGEST accounting (deterministic shortcut cost model). *)
  let rounds = Rounds.create ~n:(Graph.n g) ~d () in

  (* Theorem 1: a cycle separator. *)
  let r = Separator.find ~rounds cfg in
  Printf.printf "separator: %d nodes, found by phase %s (%d candidate(s))\n"
    (List.length r.Separator.separator)
    r.Separator.phase r.Separator.candidates_tried;
  (match r.Separator.endpoints with
  | Some (a, b) -> Printf.printf "closing fundamental edge: (%d, %d)\n" a b
  | None -> print_endline "no closing edge (tree phase)");

  (* Independent validation: tree-path shape + 2n/3 balance. *)
  let verdict = Check.check_separator cfg r.Separator.separator in
  Printf.printf "verdict: %s\n" (Fmt.str "%a" Check.pp_verdict verdict);
  assert verdict.Check.valid;

  (* The balanced-trim post-pass often shortens the path further. *)
  let small = Separator.shrink cfg r.Separator.separator in
  Printf.printf "after balanced trim: %d nodes (still balanced: %b)\n"
    (List.length small)
    (Check.balanced cfg small);

  Printf.printf "charged CONGEST rounds: %.0f  (D=%d, so rounds/D = %.0f)\n"
    (Rounds.total rounds) d
    (Rounds.total rounds /. float_of_int d);
  print_endline "\nper-subroutine breakdown:";
  List.iter
    (fun (label, cost, calls) ->
      Printf.printf "  %-28s %10.0f rounds %4d call(s)\n"
        (Rounds.label_name label) cost calls)
    (Rounds.breakdown rounds)
