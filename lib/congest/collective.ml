(* Batched convergecast/broadcast collectives over a communication tree.

   The paper's Õ(D) bounds (Theorems 1–2) come from running many tree
   broadcasts and aggregations back to back and *pipelining* them — the
   role the deterministic low-congestion shortcuts of
   Haeupler–Hershkowitz–Wajc play in Section 5.2.  Executed naively, every
   scalar "learn" costs two serial engine runs (a convergecast to the root
   plus a broadcast down), so a subroutine that needs k scalars pays
   k · O(depth) rounds and 2k engine invocations.

   This module provides the substrate the composed subroutines build on:

   - a [ctx]: a communication tree fixed once (parents, root) together
     with an accumulating statistics tally, so callers stop threading
     stats records by hand; a one-run [Prim] primitive joins the tally
     through [record];
   - the batched collectives ([learn_batch], [agg_batch],
     [partwise_batch]): k independent scalar collectives multiplexed
     into a single pipelined engine run with k payload slots, costing
     O(depth + k) rounds instead of k · O(depth).

   [partwise_batch] runs [Prim.Partwise_program] with k slots.  The
   collect program follows its streaming discipline: one (slot, value)
   pair per edge per round, slots strictly ascending, so a pair is
   emitted only when it is final.  Unlike the part-wise pipeline the slot
   count k is globally known, so no Done control messages are needed: a
   node knows it has seen slot i from a child exactly when the child's
   stream has passed i. *)

open Repro_graph

(* ------------------------------------------------------------------ *)
(* Statistics: full engine stats plus execution observability.         *)
(* ------------------------------------------------------------------ *)

type stats = {
  rounds : int;
  messages : int;
  max_edge_bits : int;
  total_bits : int;
  engine_runs : int; (* number of engine invocations *)
  collectives : int; (* number of logical collective ops (batch = k) *)
}

let no_stats =
  {
    rounds = 0;
    messages = 0;
    max_edge_bits = 0;
    total_bits = 0;
    engine_runs = 0;
    collectives = 0;
  }

let add a b =
  {
    rounds = a.rounds + b.rounds;
    messages = a.messages + b.messages;
    max_edge_bits = max a.max_edge_bits b.max_edge_bits;
    total_bits = a.total_bits + b.total_bits;
    engine_runs = a.engine_runs + b.engine_runs;
    collectives = a.collectives + b.collectives;
  }

let of_engine ?(collectives = 1) (s : Engine.stats) =
  {
    rounds = s.Engine.rounds;
    messages = s.Engine.messages;
    max_edge_bits = s.Engine.max_edge_bits;
    total_bits = s.Engine.total_bits;
    engine_runs = 1;
    collectives;
  }

(* ------------------------------------------------------------------ *)
(* The batched collect program: k convergecast+broadcast slots in one   *)
(* pipelined run.                                                       *)
(* ------------------------------------------------------------------ *)

module Collect_program = struct
  type input = {
    parent : int;
    slots : int array; (* per-slot contribution; length >= k *)
    ops : Prim.op array; (* length exactly k; physically shared *)
  }

  type state = {
    parent : int;
    k : int;
    ops : Prim.op array;
    acc : int array; (* per-slot aggregate of this node's subtree so far *)
    result : int array; (* filled by the down stream (root: directly) *)
    mutable children : int list;
    mutable learned_children : bool;
    frontier : (int, int) Hashtbl.t; (* child -> highest slot received *)
    mutable sent_up : int; (* next slot to push to the parent *)
    mutable next_done : int; (* root only: next slot to complete *)
    down_queue : (int * int) Queue.t;
  }

  type msg = Child | Up of int * int | Down of int * int
  type output = int array

  let msg_bits = function
    | Child -> 2
    | Up (i, x) | Down (i, x) ->
      2 + Bandwidth.bits_for_int i + Bandwidth.bits_for_int x

  let init ~n:_ ~id:_ ~neighbors:_ (inp : input) =
    let k = Array.length inp.ops in
    let st =
      {
        parent = inp.parent;
        k;
        ops = inp.ops;
        acc = Array.sub inp.slots 0 k;
        result = Array.make k 0;
        children = [];
        learned_children = false;
        frontier = Hashtbl.create 4;
        sent_up = 0;
        next_done = 0;
        down_queue = Queue.create ();
      }
    in
    let out = if inp.parent >= 0 then [ (inp.parent, Child) ] else [] in
    (st, out)

  (* Slot i of [acc] is final once every child's stream has passed i. *)
  let min_frontier st =
    List.fold_left
      (fun m c ->
        match Hashtbl.find_opt st.frontier c with
        | None -> min m (-1)
        | Some f -> min m f)
      max_int st.children

  let can_send_up st =
    st.parent >= 0 && st.sent_up < st.k && min_frontier st >= st.sent_up

  let root_can_complete st =
    st.parent < 0 && st.next_done < st.k && min_frontier st >= st.next_done

  let step ~round ~id:_ st ~inbox =
    if round = 1 then begin
      st.children <-
        List.filter_map (function s, Child -> Some s | _ -> None) inbox;
      st.learned_children <- true
    end;
    List.iter
      (function
        | c, Up (i, x) ->
          st.acc.(i) <- Prim.apply st.ops.(i) st.acc.(i) x;
          Hashtbl.replace st.frontier c i
        | _, Down (i, x) ->
          st.result.(i) <- x;
          Queue.add (i, x) st.down_queue
        | _, Child -> ())
      inbox;
    if not st.learned_children then (st, [])
    else begin
      let out = ref [] in
      if can_send_up st then begin
        out := [ (st.parent, Up (st.sent_up, st.acc.(st.sent_up))) ];
        st.sent_up <- st.sent_up + 1
      end
      else if root_can_complete st then begin
        st.result.(st.next_done) <- st.acc.(st.next_done);
        Queue.add (st.next_done, st.acc.(st.next_done)) st.down_queue;
        st.next_done <- st.next_done + 1
      end;
      (if not (Queue.is_empty st.down_queue) then
         let i, x = Queue.pop st.down_queue in
         List.iter (fun c -> out := (c, Down (i, x)) :: !out) st.children);
      (st, !out)
    end

  (* Quiescent exactly when [step] would be a no-op on an empty inbox:
     nothing to push up (or complete, at the root) and nothing queued to
     push down.  Round 1 (learning the children) must run everywhere. *)
  let finished st =
    st.learned_children
    && (not (can_send_up st))
    && (not (root_can_complete st))
    && Queue.is_empty st.down_queue

  let output st = st.result
end

module Collect_engine = Engine.Make (Collect_program)
module Partwise_engine = Engine.Make (Prim.Partwise_program)

(* ------------------------------------------------------------------ *)
(* The context: one communication tree, one accumulating tally.        *)
(* ------------------------------------------------------------------ *)

type ctx = {
  g : Graph.t;
  parent : int array;
  root : int;
  n : int;
  mutable bottom : int array;
  (* shared all-bottom slot template for [learn_batch]: one buffer reused
     by every non-source node instead of an O(n) indicator array per
     scalar (grown to the largest k seen) *)
  mutable max_ops : Prim.op array; (* shared all-Max ops, grown likewise *)
  mutable tally : stats;
}

let create g ~parent ~root =
  {
    g;
    parent;
    root;
    n = Graph.n g;
    bottom = [||];
    max_ops = [||];
    tally = no_stats;
  }

let tally ctx = ctx.tally
let reset ctx = ctx.tally <- no_stats

(* The single funnel for every engine run issued on a ctx — the batched
   collectives here, and the [Prim] runs callers record — so the tally
   covers the whole executed layer. *)
let record ?collectives ctx s =
  ctx.tally <- add ctx.tally (of_engine ?collectives s)

let ensure_scratch ctx k =
  if Array.length ctx.bottom < k then ctx.bottom <- Array.make k (-1);
  if Array.length ctx.max_ops < k then ctx.max_ops <- Array.make k Prim.Max

(* --- batched collectives (k slots, one engine run) ----------------- *)

(* Aggregate k whole-graph reductions and broadcast all k results in one
   pipelined run over the ctx tree: O(depth + k) rounds. *)
let agg_batch ctx ~op (values : int array array) =
  let k = Array.length values in
  if k = 0 then [||]
  else begin
    let ops = Array.make k op in
    let input =
      Array.init ctx.n (fun v ->
          {
            Collect_program.parent = ctx.parent.(v);
            slots = Array.init k (fun j -> values.(j).(v));
            ops;
          })
    in
    let out, s = Collect_engine.run ctx.g ~input in
    record ~collectives:k ctx s;
    out.(ctx.root)
  end

(* k scalar learns — (source, value) pairs, values >= 0 — in one run.
   Non-source nodes all share the ctx's bottom buffer; only the (few)
   sources allocate a k-slot array. *)
let learn_batch ctx (slots : (int * int) array) =
  let k = Array.length slots in
  if k = 0 then [||]
  else begin
    ensure_scratch ctx k;
    let sources = Hashtbl.create 4 in
    Array.iteri
      (fun i (src, value) ->
        let arr =
          match Hashtbl.find_opt sources src with
          | Some a -> a
          | None ->
            let a = Array.make k (-1) in
            Hashtbl.add sources src a;
            a
        in
        arr.(i) <- value)
      slots;
    let ops = Array.sub ctx.max_ops 0 k in
    let bottom = ctx.bottom in
    let input =
      Array.init ctx.n (fun v ->
          {
            Collect_program.parent = ctx.parent.(v);
            slots =
              (match Hashtbl.find_opt sources v with
              | Some a -> a
              | None -> bottom);
            ops;
          })
    in
    let out, s = Collect_engine.run ctx.g ~input in
    record ~collectives:k ctx s;
    out.(ctx.root)
  end

let learn ctx ~source ~value = (learn_batch ctx [| (source, value) |]).(0)

(* k part-wise aggregations sharing one partition, one engine run over an
   explicit broadcast tree (the ctx tree is the *spanning* tree; part-wise
   pipelines usually want the BFS tree to pay depth_BFS). *)
let partwise_batch ctx ~bcast_parent ~op ~parts (values : int array array) =
  let k = Array.length values in
  if k = 0 then [||]
  else begin
    let ops = Array.make k op in
    let input =
      Array.init ctx.n (fun v ->
          {
            Prim.Partwise_program.parent = bcast_parent.(v);
            part = parts.(v);
            values = Array.init k (fun j -> values.(j).(v));
            ops;
          })
    in
    let out, s = Partwise_engine.run ctx.g ~input in
    record ~collectives:k ctx s;
    Array.init k (fun j -> Array.init ctx.n (fun v -> out.(v).(j)))
  end
