(* Seed-driven generator combinators (QuickCheck style, but with the
   repository's splitmix Rng so every draw is reproducible from a seed). *)

open Repro_util
open Repro_graph
open Repro_tree

type 'a t = Rng.t -> 'a

let oneof xs rng = Rng.pick rng (Array.of_list xs)

(* BFS trees are the shallow common case; bias toward DFS and random trees,
   which stress the depth-dependent bounds much harder. *)
let spanning_kind rng =
  match Rng.int rng 5 with
  | 0 -> Spanning.Bfs
  | 1 | 2 -> Spanning.Dfs
  | _ -> Spanning.Random (Rng.int rng 1000)

let spec ?(families = Instance.families) ~size rng =
  let family = oneof families rng in
  let lo = Instance.min_size family in
  (* +-25% size jitter so one fuzz run covers a band, not a single n. *)
  let jitter = max 1 (size / 4) in
  let n = max lo (size + Rng.int rng (2 * jitter) - jitter) in
  {
    Instance.family;
    n;
    seed = Rng.int rng 100_000;
    spanning = spanning_kind rng;
  }

let connected_parts g ~parts rng =
  let n = Graph.n g in
  let k = max 1 (min parts n) in
  let perm = Array.init n Fun.id in
  Rng.shuffle_in_place rng perm;
  let part = Array.make n (-1) in
  let q = Queue.create () in
  for i = 0 to k - 1 do
    part.(perm.(i)) <- i;
    Queue.add perm.(i) q
  done;
  (* Multi-source BFS: each region grows from its seed, so every part is
     connected; a connected graph is fully covered. *)
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun u ->
        if part.(u) = -1 then begin
          part.(u) <- part.(v);
          Queue.add u q
        end)
      (Graph.neighbors g v)
  done;
  let members = Array.make k [] in
  for v = n - 1 downto 0 do
    if part.(v) >= 0 then members.(part.(v)) <- v :: members.(part.(v))
  done;
  Array.to_list members |> List.filter (fun m -> m <> [])
