(* Message-level CONGEST primitives.

   These are real executions in the synchronous engine (no charged costs):
   BFS-tree construction, tree broadcast, subtree aggregation
   (DESCENDANT-SUM-PROBLEM of Proposition 5) and pipelined part-wise
   aggregation over a global BFS tree.  The part-wise implementation runs in
   O(depth + #parts) rounds — the classic pipelining bound — and is the
   executable counterpart of the shortcut-based Õ(D) black box the charged
   mode models.

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

(* ------------------------------------------------------------------ *)
(* Broadcast of the root's value over the tree.                        *)
(* ------------------------------------------------------------------ *)

module Broadcast_program = struct
  type input = { parent : int; value : int option (* Some at the root *) }

  type state = {
    parent : int;
    mutable children : int list;
    mutable learned_children : bool;
    mutable value : int option;
    mutable forwarded : bool;
  }

  type msg = Child | Value of int
  type output = int

  let msg_bits = function Child -> 2 | Value x -> 2 + Bandwidth.bits_for_int x

  let init ~n:_ ~id:_ ~neighbors:_ (inp : input) =
    let st =
      {
        parent = inp.parent;
        children = [];
        learned_children = false;
        value = inp.value;
        forwarded = false;
      }
    in
    let parent = inp.parent in
    let out = if parent >= 0 then [ (parent, Child) ] else [] in
    (st, out)

  let step ~round ~id:_ st ~inbox =
    if round = 1 then begin
      st.children <- List.filter_map (function s, Child -> Some s | _ -> None) inbox;
      st.learned_children <- true
    end;
    List.iter
      (function _, Value x -> st.value <- Some x | _, Child -> ())
      inbox;
    match st.value with
    | Some x when st.learned_children && not st.forwarded ->
      st.forwarded <- true;
      (st, List.map (fun c -> (c, Value x)) st.children)
    | _ -> (st, [])

  (* Same quiescence shape as the downcast: waiting for the value is
     passive, learning the children (round 1) is not. *)
  let finished st = st.forwarded || (st.learned_children && st.value = None)
  let output st = match st.value with Some x -> x | None -> assert false
end

module Broadcast_engine = Engine.Make (Broadcast_program)

let broadcast g ~parent ~root ~value =
  let input =
    Array.init (Repro_graph.Graph.n g) (fun v ->
        Broadcast_program.{ parent = parent.(v); value = (if v = root then Some value else None) })
  in
  Broadcast_engine.run g ~input

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
(* Every node holds (part, value); at the end every node knows the     *)
(* aggregate of its part.  Upcast: each node merges ascending streams  *)
(* of (part, aggregate) pairs from its children and emits its own      *)
(* ascending stream, one pair per round — a part is emitted once every *)
(* child's stream has passed it, so each pair is final when sent.      *)
(* Downcast: the root pipelines the full result stream back down.      *)
(* Both phases take O(depth + #parts) rounds.                          *)
(* ------------------------------------------------------------------ *)

module Partwise_program = struct
  type input = { parent : int; part : int; value : int; op : op }

  type phase = Up | Down | Finished

  type state = {
    parent : int;
    my_part : int;
    op : op;
    mutable phase : phase;
    mutable children : int list;
    mutable learned_children : bool;
    acc : (int, int) Hashtbl.t; (* part -> aggregate at this node *)
    frontier : (int, int) Hashtbl.t; (* child -> last part id received *)
    mutable emitted_upto : int;
    mutable up_done_sent : bool;
    down_queue : (int * int) Queue.t;
    mutable down_done_received : bool;
    mutable down_done_sent : bool;
    mutable answer : int option;
  }

  type msg = Child | Up of int * int | UpDone | Down of int * int | DownDone
  type output = int

  let msg_bits = function
    | Child | UpDone | DownDone -> 3
    | Up (p, x) | Down (p, x) -> 3 + Bandwidth.bits_for_int p + Bandwidth.bits_for_int x

  let init ~n:_ ~id:_ ~neighbors:_ { parent; part; value; op } =
    let acc = Hashtbl.create 8 in
    Hashtbl.replace acc part value;
    let st =
      {
        parent;
        my_part = part;
        op;
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
        answer = None;
      }
    in
    let out = if parent >= 0 then [ (parent, Child) ] else [] in
    (st, out)

  let merge st p x =
    let cur = Hashtbl.find_opt st.acc p in
    Hashtbl.replace st.acc p (match cur with None -> x | Some y -> apply st.op x y)

  (* Smallest not-yet-emitted part that every child's stream has passed. *)
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
      (fun p _ best ->
        if p > st.emitted_upto && p <= min_frontier then
          match best with Some b when b <= p -> best | _ -> Some p
        else best)
      st.acc None

  let all_children_done st =
    List.for_all
      (fun c -> Hashtbl.find_opt st.frontier c = Some max_int)
      st.children

  let pending_up st =
    Hashtbl.fold (fun p _ any -> any || p > st.emitted_upto) st.acc false

  let step ~round ~id:_ st ~inbox =
    if round = 1 then begin
      st.children <- List.filter_map (function s, Child -> Some s | _ -> None) inbox;
      st.learned_children <- true
    end;
    List.iter
      (function
        | c, Up (p, x) ->
          merge st p x;
          Hashtbl.replace st.frontier c p
        | c, UpDone -> Hashtbl.replace st.frontier c max_int
        | _, Down (p, x) ->
          if p = st.my_part then st.answer <- Some x;
          Queue.add (p, x) st.down_queue
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
          | Some p ->
            st.emitted_upto <- p;
            (st, [ (st.parent, Up (p, Hashtbl.find st.acc p)) ])
          | None ->
            if all_children_done st && not (pending_up st) && not st.up_done_sent
            then begin
              st.up_done_sent <- true;
              st.phase <- Down;
              (st, [ (st.parent, UpDone) ])
            end
            else (st, [])
        end
        else if all_children_done st then begin
          (* Root: aggregation complete; seed the down stream. *)
          st.answer <- Some (Hashtbl.find st.acc st.my_part);
          let pairs =
            Hashtbl.fold (fun p x acc -> (p, x) :: acc) st.acc []
            |> List.sort compare
          in
          List.iter (fun px -> Queue.add px st.down_queue) pairs;
          st.down_done_received <- true;
          st.phase <- Down;
          (st, [])
        end
        else (st, [])
      | Down ->
        if not (Queue.is_empty st.down_queue) then begin
          let (p, x) = Queue.pop st.down_queue in
          if p = st.my_part then st.answer <- Some x;
          (st, List.map (fun c -> (c, Down (p, x))) st.children)
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
        && not (all_children_done st && not (pending_up st) && not st.up_done_sent)
      else not (all_children_done st)
    | Down ->
      Queue.is_empty st.down_queue
      && not (st.down_done_received && not st.down_done_sent)

  let output st = match st.answer with Some x -> x | None -> assert false
end

module Partwise_engine = Engine.Make (Partwise_program)

let partwise g ~parent ~op ~parts ~values =
  let input =
    Array.init (Repro_graph.Graph.n g) (fun v ->
        Partwise_program.{ parent = parent.(v); part = parts.(v); value = values.(v); op })
  in
  Partwise_engine.run g ~input
