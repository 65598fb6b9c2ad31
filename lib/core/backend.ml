(* The two separator backends and the small-part fast path between them. *)

open Repro_graph
open Repro_tree
open Repro_congest

type kind = Distributed | Centralized

type t = {
  name : string;
  kind : kind;
  find : ?rounds:Rounds.t -> Config.t -> Separator.result;
  trim : ?rounds:Rounds.t -> Config.t -> int list -> int list;
}

(* The six-phase algorithm of Theorem 1: [find] and [trim] are the exact
   functions the stack calls directly, so dispatching through this value
   is bit-identical to calling them. *)
let congest =
  {
    name = "congest";
    kind = Distributed;
    find = Separator.find;
    trim = Separator.shrink;
  }

(* Lipton–Tarjan's first step (1979): the first BFS level at which the
   levels so far hold at least n/3 vertices.  Both strict sides then hold
   at most 2n/3, so the level always balances; it may be large and is not
   a cycle. *)
let level_separator g ~root =
  let n = Graph.n g in
  let dist = Algo.bfs_dist g root in
  let depth = Array.fold_left max 0 dist in
  let count = Array.make (depth + 1) 0 in
  Array.iter (fun d -> if d >= 0 then count.(d) <- count.(d) + 1) dist;
  let rec pick level seen =
    let seen = seen + count.(level) in
    if 3 * seen >= n || level = depth then level else pick (level + 1) seen
  in
  let cut = pick 0 0 in
  let members = ref [] in
  Array.iteri (fun v d -> if d = cut then members := v :: !members) dist;
  !members

(* The ledger gets the CONGEST cost of using a host-side solver: collecting
   the part's topology to one node over a pipelined BFS tree (and
   broadcasting the answer back) costs O(part size) rounds. *)
let lt_level_find ?rounds cfg =
  let n = Config.n cfg in
  let root = Rooted.root (Config.tree cfg) in
  Rounds.span rounds "backend.lt-level" @@ fun () ->
  Rounds.charge_rounds rounds Backend_collect n;
  if n <= 3 then
    Separator.
      {
        separator = [ root ];
        endpoints = None;
        phase = "trivial";
        candidates_tried = 0;
      }
  else
    Separator.
      {
        separator = level_separator (Config.graph cfg) ~root;
        endpoints = None;
        phase = "lt-level";
        candidates_tried = 1;
      }

let lt_level =
  {
    name = "lt-level";
    kind = Centralized;
    find = lt_level_find;
    trim = Separator.shrink;
  }

let all = [ congest; lt_level ]
let lookup name = List.find_opt (fun b -> b.name = name) all
let default () = congest

let fast_path ~cutoff b =
  let pick cfg = if Config.n cfg <= cutoff then lt_level else b in
  {
    b with
    find = (fun ?rounds cfg -> (pick cfg).find ?rounds cfg);
    trim = (fun ?rounds cfg s -> (pick cfg).trim ?rounds cfg s);
  }
