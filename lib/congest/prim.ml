(* Message-level CONGEST primitives.

   These are real executions in the synchronous engine (no charged costs):
   BFS-tree construction, subtree and ancestor aggregation
   (DESCENDANT-SUM-PROBLEM and ANCESTOR-SUM-PROBLEM of Proposition 5; a
   tree broadcast is the ancestor sum of a value held only at the root),
   the one-round neighbour exchange and pipelined part-wise aggregation
   over a global BFS tree.  The part-wise implementation runs in
   O(depth + #parts · k) rounds for k value slots — the classic pipelining
   bound — and is the executable counterpart of the shortcut-based Õ(D)
   black box the charged mode models.

   Every program's [finished] is a *quiescence* predicate: true whenever
   the node would take no action on an empty inbox, even if it is still
   waiting for input.  Under the event-driven engine only frontier nodes
   are stepped, so e.g. BFS flooding costs O(sum of frontier sizes) work
   instead of O(n * rounds); the message schedule (and hence every
   statistic) is unchanged, because a quiescent node's step was a no-op.
   The trade-off: on inputs that deadlock (a disconnected flood, a broken
   parent array) the engine now returns the partial outputs instead of
   spinning to Did_not_terminate, so callers must pass well-formed
   instances — which all in-repo callers do. *)

type op = Sum | Min | Max

let apply op a b =
  match op with Sum -> a + b | Min -> min a b | Max -> max a b

(* ------------------------------------------------------------------ *)
(* BFS tree construction by flooding.                                  *)
(* ------------------------------------------------------------------ *)

module Bfs_program = struct
  type input = bool (* am I the root? *)

  type state = {
    nbrs : int array;
    mutable dist : int; (* -1 while unknown *)
    mutable parent : int; (* -1 at root, -2 while unknown *)
  }

  type msg = int (* sender's distance *)
  type output = int * int (* parent, dist *)

  let msg_bits = Bandwidth.bits_for_int

  let init ~n:_ ~id:_ ~neighbors is_root =
    if is_root then
      ( { nbrs = neighbors; dist = 0; parent = -1 },
        Array.to_list neighbors |> List.map (fun v -> (v, 0)) )
    else ({ nbrs = neighbors; dist = -1; parent = -2 }, [])

  let step ~round:_ ~id:_ st ~inbox =
    if st.dist >= 0 then (st, [])
    else begin
      match inbox with
      | [] -> (st, [])
      | (src0, d0) :: rest ->
        let best_src, best_d =
          List.fold_left
            (fun (s, d) (s', d') -> if d' < d then (s', d') else (s, d))
            (src0, d0) rest
        in
        st.dist <- best_d + 1;
        st.parent <- best_src;
        let out =
          Array.to_list st.nbrs
          |> List.filter (fun v -> v <> best_src)
          |> List.map (fun v -> (v, st.dist))
        in
        (st, out)
    end

  (* A BFS node only ever acts on message receipt: the root is done after
     its init sends, and everyone else waits quietly for the wave. *)
  let finished _ = true
  let output st = (st.parent, st.dist)
end

module Bfs_engine = Engine.Make (Bfs_program)

let bfs_tree g ~root =
  let input = Array.init (Repro_graph.Graph.n g) (fun v -> v = root) in
  let out, stats = Bfs_engine.run g ~input in
  let parent = Array.map fst out and dist = Array.map snd out in
  ((parent, dist), stats)

(* Multi-source flooding: a BFS forest (every root gets parent -1). *)
let bfs_forest g ~roots =
  let out, stats = Bfs_engine.run g ~input:roots in
  let parent = Array.map fst out and dist = Array.map snd out in
  ((parent, dist), stats)

(* ------------------------------------------------------------------ *)
(* Subtree aggregation (convergecast) over a given spanning tree.      *)
(* Every node ends up knowing the aggregate of its own subtree.        *)
(* ------------------------------------------------------------------ *)

module Subtree_program = struct
  type input = { parent : int; value : int; op : op }

  type state = {
    parent : int;
    op : op;
    mutable children : int list; (* known after round 1 *)
    mutable waiting : int; (* children that have not reported *)
    mutable acc : int;
    mutable learned_children : bool;
    mutable reported : bool;
  }

  type msg = Child | Report of int
  type output = int

  let msg_bits = function Child -> 2 | Report x -> 2 + Bandwidth.bits_for_int x

  let init ~n:_ ~id:_ ~neighbors:_ { parent; value; op } =
    let st =
      {
        parent;
        op;
        children = [];
        waiting = 0;
        acc = value;
        learned_children = false;
        reported = false;
      }
    in
    let out = if parent >= 0 then [ (parent, Child) ] else [] in
    (st, out)

  let step ~round ~id:_ st ~inbox =
    if round = 1 then begin
      st.children <- List.filter_map (function s, Child -> Some s | _ -> None) inbox;
      st.waiting <- List.length st.children;
      st.learned_children <- true
    end
    else
      List.iter
        (function
          | _, Report x ->
            st.acc <- apply st.op st.acc x;
            st.waiting <- st.waiting - 1
          | _, Child -> ())
        inbox;
    if st.learned_children && st.waiting = 0 && not st.reported then begin
      st.reported <- true;
      if st.parent >= 0 then (st, [ (st.parent, Report st.acc) ]) else (st, [])
    end
    else (st, [])

  (* Quiescent once reported, and also while waiting on children reports:
     [step] reports in the very round [waiting] reaches 0, so a node that
     still waits only acts on message receipt.  Round 1 (learning the
     children) must run on every node, hence not-learned => active. *)
  let finished st = st.reported || (st.learned_children && st.waiting > 0)
  let output st = st.acc
end

module Subtree_engine = Engine.Make (Subtree_program)

let subtree_agg g ~parent ~op ~values =
  let input =
    Array.init (Repro_graph.Graph.n g) (fun v ->
        Subtree_program.{ parent = parent.(v); value = values.(v); op })
  in
  Subtree_engine.run g ~input

(* ------------------------------------------------------------------ *)
(* Ancestor aggregation (downcast): every node learns the aggregate of *)
(* the values on its root path, itself included                        *)
(* (ANCESTOR-SUM-PROBLEM of Proposition 5).                            *)
(* ------------------------------------------------------------------ *)

module Ancestor_program = struct
  type input = { parent : int; value : int; op : op }

  type state = {
    parent : int;
    op : op;
    value : int;
    mutable children : int list;
    mutable learned_children : bool;
    mutable acc : int option; (* aggregate over ancestors incl. self *)
    mutable forwarded : bool;
  }

  type msg = Child | Down of int
  type output = int

  let msg_bits = function Child -> 2 | Down x -> 2 + Bandwidth.bits_for_int x

  let init ~n:_ ~id:_ ~neighbors:_ (inp : input) =
    let st =
      {
        parent = inp.parent;
        op = inp.op;
        value = inp.value;
        children = [];
        learned_children = false;
        acc = (if inp.parent < 0 then Some inp.value else None);
        forwarded = false;
      }
    in
    let out = if inp.parent >= 0 then [ (inp.parent, Child) ] else [] in
    (st, out)

  let step ~round ~id:_ st ~inbox =
    if round = 1 then begin
      st.children <- List.filter_map (function s, Child -> Some s | _ -> None) inbox;
      st.learned_children <- true
    end;
    List.iter
      (function
        | _, Down x -> st.acc <- Some (apply st.op st.value x)
        | _, Child -> ())
      inbox;
    match st.acc with
    | Some a when st.learned_children && not st.forwarded ->
      st.forwarded <- true;
      (st, List.map (fun c -> (c, Down a)) st.children)
    | _ -> (st, [])

  (* Quiescent once forwarded, and while waiting for the Down value (the
     forward happens in the same round the value arrives).  Round 1 must
     run everywhere to learn the children. *)
  let finished st = st.forwarded || (st.learned_children && st.acc = None)
  let output st = match st.acc with Some a -> a | None -> assert false
end

module Ancestor_engine = Engine.Make (Ancestor_program)

let ancestor_agg g ~parent ~op ~values =
  let input =
    Array.init (Repro_graph.Graph.n g) (fun v ->
        Ancestor_program.{ parent = parent.(v); value = values.(v); op })
  in
  Ancestor_engine.run g ~input

(* Broadcast of the root's value over the tree: the ancestor sum of a
   value held only at the root. *)
let broadcast g ~parent ~root ~value =
  ancestor_agg g ~parent ~op:Sum
    ~values:
      (Array.init (Repro_graph.Graph.n g) (fun v -> if v = root then value else 0))

(* ------------------------------------------------------------------ *)
(* One-round neighbour exchange: each node sends one integer to chosen  *)
(* neighbours and collects what arrived.                                *)
(* ------------------------------------------------------------------ *)

module Exchange_program = struct
  type input = (int * int) list (* (neighbour, value) pairs to send *)

  type state = { mutable received : (int * int) list; mutable done_ : bool }

  type msg = int
  type output = (int * int) list

  let msg_bits = Bandwidth.bits_for_int

  let init ~n:_ ~id:_ ~neighbors:_ sends =
    ({ received = []; done_ = false }, sends)

  let step ~round:_ ~id:_ st ~inbox =
    st.received <- inbox @ st.received;
    st.done_ <- true;
    (st, [])

  let finished st = st.done_
  let output st = st.received
end

module Exchange_engine = Engine.Make (Exchange_program)

let exchange g ~sends =
  Exchange_engine.run g ~input:sends

(* ------------------------------------------------------------------ *)
(* Pipelined part-wise aggregation over a global spanning tree.        *)
(*                                                                     *)
(* Every node holds (part, k slot values); at the end every node knows *)
(* the k aggregates of its part.  The k per-part streams interleave    *)
(* over composite keys part * k + slot.  Upcast: each node merges      *)
(* ascending streams of (key, aggregate) pairs from its children and   *)
(* emits its own ascending stream, one pair per round — a key is       *)
(* emitted once every child's stream has passed it, so each pair is    *)
(* final when sent.  Downcast: the root pipelines the full result      *)
(* stream back down.  The part count is unknown to the nodes, so       *)
(* UpDone/DownDone close the streams.  Both phases take                *)
(* O(depth + #parts · k) rounds.                                       *)
(* ------------------------------------------------------------------ *)

module Partwise_program = struct
  type input = {
    parent : int;
    part : int;
    values : int array; (* length >= k: this node's per-slot value *)
    ops : op array; (* length exactly k; physically shared *)
  }

  type phase = Up | Down | Finished

  type state = {
    parent : int;
    k : int;
    my_part : int;
    ops : op array;
    mutable phase : phase;
    mutable children : int list;
    mutable learned_children : bool;
    acc : (int, int) Hashtbl.t; (* composite key -> aggregate *)
    frontier : (int, int) Hashtbl.t; (* child -> last key received *)
    mutable emitted_upto : int;
    mutable up_done_sent : bool;
    down_queue : (int * int) Queue.t;
    mutable down_done_received : bool;
    mutable down_done_sent : bool;
    answer : int array; (* per-slot aggregate of my own part *)
  }

  type msg = Child | Up of int * int | UpDone | Down of int * int | DownDone
  type output = int array

  let msg_bits = function
    | Child | UpDone | DownDone -> 3
    | Up (key, x) | Down (key, x) ->
      3 + Bandwidth.bits_for_int key + Bandwidth.bits_for_int x

  let init ~n:_ ~id:_ ~neighbors:_ (inp : input) =
    let k = Array.length inp.ops in
    let acc = Hashtbl.create 8 in
    for j = 0 to k - 1 do
      Hashtbl.replace acc ((inp.part * k) + j) inp.values.(j)
    done;
    let st =
      {
        parent = inp.parent;
        k;
        my_part = inp.part;
        ops = inp.ops;
        phase = Up;
        children = [];
        learned_children = false;
        acc;
        frontier = Hashtbl.create 8;
        emitted_upto = -1;
        up_done_sent = false;
        down_queue = Queue.create ();
        down_done_received = false;
        down_done_sent = false;
        answer = Array.make k 0;
      }
    in
    let out = if inp.parent >= 0 then [ (inp.parent, Child) ] else [] in
    (st, out)

  let record_answer st key x =
    if key / st.k = st.my_part then st.answer.(key mod st.k) <- x

  let merge st key x =
    let cur = Hashtbl.find_opt st.acc key in
    Hashtbl.replace st.acc key
      (match cur with
      | None -> x
      | Some y -> apply st.ops.(key mod st.k) x y)

  (* Smallest not-yet-emitted key that every child's stream has passed. *)
  let emittable st =
    let min_frontier =
      List.fold_left
        (fun m c ->
          match Hashtbl.find_opt st.frontier c with
          | None -> min m (-1)
          | Some f -> min m f)
        max_int st.children
    in
    Hashtbl.fold
      (fun key _ best ->
        if key > st.emitted_upto && key <= min_frontier then
          match best with Some b when b <= key -> best | _ -> Some key
        else best)
      st.acc None

  let all_children_done st =
    List.for_all
      (fun c -> Hashtbl.find_opt st.frontier c = Some max_int)
      st.children

  let pending_up st =
    Hashtbl.fold (fun key _ any -> any || key > st.emitted_upto) st.acc false

  let step ~round ~id:_ st ~inbox =
    if round = 1 then begin
      st.children <-
        List.filter_map (function s, Child -> Some s | _ -> None) inbox;
      st.learned_children <- true
    end;
    List.iter
      (function
        | c, Up (key, x) ->
          merge st key x;
          Hashtbl.replace st.frontier c key
        | c, UpDone -> Hashtbl.replace st.frontier c max_int
        | _, Down (key, x) ->
          record_answer st key x;
          Queue.add (key, x) st.down_queue
        | _, DownDone -> st.down_done_received <- true
        | _, Child -> ())
      inbox;
    if not st.learned_children then (st, [])
    else begin
      match st.phase with
      | Up ->
        if st.parent >= 0 then begin
          (* Interior node: emit one pair, or UpDone when drained. *)
          match emittable st with
          | Some key ->
            st.emitted_upto <- key;
            (st, [ (st.parent, Up (key, Hashtbl.find st.acc key)) ])
          | None ->
            if all_children_done st && (not (pending_up st)) && not st.up_done_sent
            then begin
              st.up_done_sent <- true;
              st.phase <- Down;
              (st, [ (st.parent, UpDone) ])
            end
            else (st, [])
        end
        else if all_children_done st then begin
          (* Root: aggregation complete; seed the down stream. *)
          for j = 0 to st.k - 1 do
            st.answer.(j) <- Hashtbl.find st.acc ((st.my_part * st.k) + j)
          done;
          let pairs =
            Hashtbl.fold (fun key x acc -> (key, x) :: acc) st.acc []
            |> List.sort compare
          in
          List.iter (fun kx -> Queue.add kx st.down_queue) pairs;
          st.down_done_received <- true;
          st.phase <- Down;
          (st, [])
        end
        else (st, [])
      | Down ->
        if not (Queue.is_empty st.down_queue) then begin
          let key, x = Queue.pop st.down_queue in
          record_answer st key x;
          (st, List.map (fun c -> (c, Down (key, x))) st.children)
        end
        else if st.down_done_received && not st.down_done_sent then begin
          st.down_done_sent <- true;
          st.phase <- Finished;
          (st, List.map (fun c -> (c, DownDone)) st.children)
        end
        else (st, [])
      | Finished -> (st, [])
    end

  (* Quiescent exactly when [step] would be a no-op on an empty inbox:
     nothing emittable going up, no UpDone/root transition pending, and no
     queued pair or DownDone to push down.  During the up phase this strips
     the already-drained subtrees from the active set; during the down
     phase, the nodes whose streams have not arrived yet. *)
  let finished st =
    st.learned_children
    &&
    match st.phase with
    | Finished -> true
    | Up ->
      if st.parent >= 0 then
        emittable st = None
        && not (all_children_done st && (not (pending_up st)) && not st.up_done_sent)
      else not (all_children_done st)
    | Down ->
      Queue.is_empty st.down_queue
      && not (st.down_done_received && not st.down_done_sent)

  let output st = st.answer
end

module Partwise_engine = Engine.Make (Partwise_program)

(* One slot: the single-value part-wise aggregation. *)
let partwise g ~parent ~op ~parts ~values =
  let ops = [| op |] in
  let input =
    Array.init (Repro_graph.Graph.n g) (fun v ->
        Partwise_program.
          { parent = parent.(v); part = parts.(v); values = [| values.(v) |]; ops })
  in
  let out, stats = Partwise_engine.run g ~input in
  (Array.map (fun slots -> slots.(0)) out, stats)
