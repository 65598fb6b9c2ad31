(* Randomized cycle separators in the style of Ghaffari–Parter (DISC 2017).

   Instead of the deterministic weight formula, face weights are *estimated*
   by node sampling: k uniformly random vertices are tested for membership
   inside each fundamental face (each test is an O(log n)-bit comparison of
   DFS-order intervals, exactly what the randomized algorithm broadcasts),
   and the face weight is extrapolated from the hit fraction.  The algorithm
   then trusts an estimate that falls inside a slack-narrowed window — the
   leap of faith whose failure probability experiment E4 measures against
   the deterministic algorithm's zero failures. *)

open Repro_util
open Repro_core
open Repro_congest

type outcome = {
  separator : int list;
  balanced : bool;
  estimate_used : int;
  exact_weight : int;
  fell_back : bool; (* no estimate fell in the window *)
}

(* Membership in the set the weight of Definition 2 counts (Lemmas 3/4):
   the interior, plus — when the endpoints are unrelated — the border tail
   from the LCA (exclusive) down to v: the ancestors of v that are not
   ancestors of u. *)
let in_weighted_set cfg ~u ~v z =
  let tree = Config.tree cfg in
  Faces.is_inside cfg ~u ~v z
  || (Faces.classify cfg ~u ~v = Faces.Unrelated
     && Repro_tree.Rooted.is_ancestor tree ~anc:z ~desc:v
     && not (Repro_tree.Rooted.is_ancestor tree ~anc:z ~desc:u))

let estimate_weight cfg rng ~samples ~u ~v =
  let n = Config.n cfg in
  let hits = ref 0 in
  for _ = 1 to samples do
    let z = Rng.int rng n in
    if in_weighted_set cfg ~u ~v z then incr hits
  done;
  int_of_float (float_of_int !hits /. float_of_int samples *. float_of_int n)

let find ?rounds ~seed ~samples cfg =
  let rng = Rng.create seed in
  let n = Config.n cfg in
  let tree = Config.tree cfg in
  Rounds.charge rounds Spanning_forest;
  Rounds.charge rounds Dfs_order;
  (* Sampling replaces the deterministic weights but costs the same
     aggregation schedule. *)
  Rounds.charge rounds Weights;
  let ws = Weights.all_weights cfg in
  let k = Array.length ws.w in
  let fallback () =
    (* Where estimation finds nothing, the randomized algorithm restarts
       with more samples; for the comparison we fall back to the
       deterministic search and flag it. *)
    let r = Separator.find ?rounds cfg in
    {
      separator = r.Separator.separator;
      balanced = Check.balanced cfg r.Separator.separator;
      estimate_used = -1;
      exact_weight = -1;
      fell_back = true;
    }
  in
  if k = 0 || n <= 3 then fallback ()
  else begin
    let estimates =
      Array.init k (fun i ->
          estimate_weight cfg rng ~samples ~u:ws.u.(i) ~v:ws.v.(i))
    in
    let in_window est = 3 * est >= n && 3 * est <= 2 * n in
    match Array.find_index in_window estimates with
    | Some i ->
      Rounds.charge rounds Mark_path;
      let path = Repro_tree.Rooted.path tree ws.u.(i) ws.v.(i) in
      {
        separator = path;
        balanced = Check.balanced cfg path;
        estimate_used = estimates.(i);
        exact_weight = ws.w.(i);
        fell_back = false;
      }
    | None -> fallback ()
  end
