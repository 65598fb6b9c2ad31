(* The pre-optimisation twins of two production modules, kept verbatim
   as differential oracles, and the engine-executed JOIN elections.  They
   use only the public interfaces of the modules they check, so the
   production libraries ship only what runs.

   - [Engine.Make] is the original dense CONGEST scheduler: it scans all n
     nodes every round.  The event-driven [Repro_congest.Engine.Make] must
     produce bit-identical outputs and statistics on every program (the
     "engine" oracle, test/engine_equiv.ml, bench E12).
   - [Join.join] is the pre-batching JOIN choreography: one anchor
     aggregation, a re-root and a full mark-path per iteration, with a
     per-component hash-table member index.  [Repro_core.Join.join] must
     produce a bit-identical partial tree and iteration count on every
     input (the "join" oracle, test_join, bench E15).
   - [Join.executed] runs the batched elections of each iteration in the
     message engine ([Composed.join_elections]), with [Join.join]'s own
     forests and attachment between the batches, and must agree with both
     (the "join" oracle, test_join, bench E15, the digest). *)

open Repro_graph
open Repro_congest

module Engine = struct
  open Repro_congest.Engine

  module Make (P : PROGRAM) = struct
    let run ?max_rounds ?bandwidth g ~(input : P.input array) =
      let n = Graph.n g in
      if Array.length input <> n then invalid_arg "Engine.run: wrong input arity";
      let bandwidth = match bandwidth with Some b -> b | None -> Bandwidth.default ~n in
      let max_rounds = match max_rounds with Some r -> r | None -> 100 * (n + 10) in
      let states = Array.make n None in
      let inboxes : (int * P.msg) list array = Array.make n [] in
      let messages = ref 0 and max_edge_bits = ref 0 and total_bits = ref 0 in
      let pending = ref 0 in
      let deliver src outbox =
        (* At most one message per incident edge per round. *)
        let seen = Hashtbl.create (List.length outbox) in
        List.iter
          (fun (dst, msg) ->
            if not (Graph.mem_edge g src dst) then
              invalid_arg "Engine: message along a non-edge";
            if Hashtbl.mem seen dst then raise (Duplicate_message { src; dst });
            Hashtbl.add seen dst ();
            let bits = P.msg_bits msg in
            if bits > bandwidth then
              raise (Bandwidth_exceeded { src; dst; bits; limit = bandwidth });
            if bits > !max_edge_bits then max_edge_bits := bits;
            total_bits := !total_bits + bits;
            incr messages;
            incr pending;
            inboxes.(dst) <- (src, msg) :: inboxes.(dst))
          outbox
      in
      for v = 0 to n - 1 do
        let st, outbox = P.init ~n ~id:v ~neighbors:(Graph.neighbors g v) input.(v) in
        states.(v) <- Some st;
        deliver v outbox
      done;
      let round = ref 0 in
      let all_done () =
        !pending = 0
        && Array.for_all
             (function Some st -> P.finished st | None -> true)
             states
      in
      while not (all_done ()) do
        incr round;
        if !round > max_rounds then raise (Did_not_terminate { max_rounds });
        (* Swap in fresh inboxes so this round's sends arrive next round. *)
        let current = Array.copy inboxes in
        Array.fill inboxes 0 n [];
        pending := 0;
        for v = 0 to n - 1 do
          match states.(v) with
          | None -> ()
          | Some st ->
            let inbox = current.(v) in
            if inbox <> [] || not (P.finished st) then begin
              let st', outbox = P.step ~round:!round ~id:v st ~inbox in
              states.(v) <- Some st';
              deliver v outbox
            end
        done
      done;
      let outputs =
        Array.init n (fun v ->
            match states.(v) with
            | Some st -> P.output st
            | None -> assert false)
      in
      ( outputs,
        {
          rounds = !round;
          messages = !messages;
          max_edge_bits = !max_edge_bits;
          total_bits = !total_bits;
        } )
  end
end

module Join = struct
  open Repro_core.Join

  let preferring_tree st members ~anchor ~marked =
    let k = Array.length members in
    let member = Hashtbl.create (2 * k) in
    Array.iteri (fun i v -> Hashtbl.replace member v i) members;
    let idx v = Hashtbl.find member v in
    let uf = Repro_util.Union_find.create k in
    let adj = Array.make k [] in
    let add_edge u v =
      if Repro_util.Union_find.union uf (idx u) (idx v) then begin
        adj.(idx u) <- v :: adj.(idx u);
        adj.(idx v) <- u :: adj.(idx v)
      end
    in
    let consider pass =
      Array.iter
        (fun v ->
          Array.iter
            (fun u ->
              if Hashtbl.mem member u && v < u then begin
                let zero = marked v && marked u in
                if (pass = 0 && zero) || (pass = 1 && not zero) then add_edge v u
              end)
            (Graph.neighbors st.g v))
        members
    in
    consider 0;
    consider 1;
    let parent = Array.make k (-2) in
    let depth = Array.make k (-1) in
    parent.(idx anchor) <- -1;
    depth.(idx anchor) <- 0;
    let queue = Array.make k anchor in
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      List.iter
        (fun u ->
          if parent.(idx u) = -2 then begin
            parent.(idx u) <- v;
            depth.(idx u) <- depth.(idx v) + 1;
            queue.(!tail) <- u;
            incr tail
          end)
        adj.(idx v)
    done;
    (idx, parent, depth)

  let attach st ~anchor ~anchor_parent ~idx ~tree_parent target =
    let rec path_to v acc =
      if v = anchor then v :: acc else path_to tree_parent.(idx v) (v :: acc)
    in
    let path = path_to target [] in
    let rec walk prev = function
      | [] -> ()
      | v :: rest ->
        st.parent.(v) <- prev;
        st.depth.(v) <- st.depth.(prev) + 1;
        walk v rest
    in
    walk anchor_parent path

  let join_inner ?rounds st ~members ~separator =
    let remaining = Hashtbl.create (2 * List.length separator) in
    List.iter
      (fun v -> if not (in_tree st v) then Hashtbl.replace remaining v ())
      separator;
    let iterations = ref 0 in
    while Hashtbl.length remaining > 0 do
      incr iterations;
      (* One iteration: spanning forest, anchor/leaf aggregation,
         re-root, path marking — all Õ(D) (Section 6.1). *)
      Rounds.charge rounds Spanning_forest;
      Rounds.charge rounds Join_anchor;
      Rounds.charge rounds Re_root;
      Rounds.charge rounds Mark_path;
      let comps = unvisited_components st members in
      let touched = ref false in
      List.iter
        (fun comp ->
          let has_marked = Array.exists (Hashtbl.mem remaining) comp in
          if has_marked then begin
            match component_anchor st comp with
            | None -> invalid_arg "Join.join: component with no tree neighbour"
            | Some (anchor, anchor_parent) ->
              let idx, tree_parent, tree_depth =
                preferring_tree st comp ~anchor ~marked:(Hashtbl.mem remaining)
              in
              (* Deepest remaining marked node of this component's tree. *)
              let target =
                Array.fold_left
                  (fun acc v ->
                    if Hashtbl.mem remaining v then begin
                      match acc with
                      | Some best when tree_depth.(idx best) >= tree_depth.(idx v)
                        ->
                        acc
                      | _ -> Some v
                    end
                    else acc)
                  None comp
              in
              (match target with
              | None -> ()
              | Some h ->
                attach st ~anchor ~anchor_parent ~idx ~tree_parent h;
                touched := true;
                Array.iter
                  (fun v -> if in_tree st v then Hashtbl.remove remaining v)
                  comp)
          end)
        comps;
      if not !touched then
        invalid_arg "Join.join: no progress — separator nodes unreachable"
    done;
    !iterations

  let join ?rounds st ~members ~separator =
    Rounds.span rounds "join" (fun () -> join_inner ?rounds st ~members ~separator)

  (* The batched elections, executed: one [Composed.join_elections] per
     iteration over all active components, with this module's forests and
     attachment between the batches.  The part-wise MAX of the anchor codes
     1 + du n^2 + n^2 - 1 - (u n + v), formed in the engine, picks the
     candidate edge (u, v) -- u visited, v an unvisited member -- with the
     deepest u, ties to the lexicographically smallest (u, v); the MAX of
     the target codes 1 + depth n + n - 1 - rank picks the deepest marked
     node of the preferring tree, ties to the first in component order.
     The codes are O(n^3), so they fit the engine's O(log n)-bit messages;
     an n whose cube overflows an int is refused. *)
  let executed ?(serial = false) st ~root ~members ~separator =
    let n = Graph.n st.g in
    if n > 1 && n > max_int / n / n then
      invalid_arg "Reference.Join.executed: n^3 overflows the election codes";
    (* The pipeline tree is shared setup, identical for both bindings, so
       its construction cost is deliberately not tallied. *)
    let (bcast_parent, _), _ = Prim.bfs_tree st.g ~root in
    let elections =
      if serial then Composed.Reference.join_elections
      else Composed.join_elections
    in
    let remaining = Hashtbl.create (2 * List.length separator) in
    List.iter
      (fun v -> if not (in_tree st v) then Hashtbl.replace remaining v ())
      separator;
    let iterations = ref 0 and stats = ref Collective.no_stats in
    while Hashtbl.length remaining > 0 do
      incr iterations;
      let comps = Array.of_list (unvisited_components st members) in
      let m = Array.length comps in
      let parts = Array.make n m in
      Array.iteri (fun i comp -> Array.iter (fun v -> parts.(v) <- i) comp) comps;
      let visited_depth =
        Array.init n (fun v -> if in_tree st v then st.depth.(v) else -1)
      in
      let marked = Array.init n (Hashtbl.mem remaining) in
      let trees = Array.make m None in
      (* Decode the elected anchors, root the preferring trees there and
         return the node-local target codes. *)
      let forest a =
        let target_code = Array.make n 0 in
        Array.iteri
          (fun i comp ->
            let code = a.(0).(comp.(0)) in
            if a.(1).(comp.(0)) > 0 then begin
              if code = 0 then
                invalid_arg "Join.join: component with no tree neighbour";
              let e = (n * n) - 1 - ((code - 1) mod (n * n)) in
              let anchor = e mod n and anchor_parent = e / n in
              let idx, tree_parent, tree_depth =
                preferring_tree st comp ~anchor ~marked:(Hashtbl.mem remaining)
              in
              trees.(i) <- Some (anchor, anchor_parent, idx, tree_parent);
              Array.iteri
                (fun j v ->
                  if marked.(v) then
                    target_code.(v) <- 1 + (tree_depth.(idx v) * n) + (n - 1 - j))
                comp
            end)
          comps;
        target_code
      in
      (* Decode the elected targets, attach their paths and return the
         node-local still-marked and still-unvisited bits. *)
      let attach_all b =
        let touched = ref false in
        Array.iteri
          (fun i comp ->
            match trees.(i) with
            | Some (anchor, anchor_parent, idx, tree_parent) ->
              let j = n - 1 - ((b.(comp.(0)) - 1) mod n) in
              attach st ~anchor ~anchor_parent ~idx ~tree_parent comp.(j);
              touched := true;
              Array.iter
                (fun v -> if in_tree st v then Hashtbl.remove remaining v)
                comp
            | None -> ())
          comps;
        if not !touched then
          invalid_arg "Join.join: no progress — separator nodes unreachable";
        ( Array.init n (fun v -> if Hashtbl.mem remaining v then 1 else 0),
          Array.init n (fun v -> if in_tree st v then 0 else 1) )
      in
      let (_, _, t), s =
        elections st.g ~bcast_parent ~root ~parts ~visited_depth ~marked
          ~forest ~attach:attach_all
      in
      assert (t.(0) = Hashtbl.length remaining);
      stats := Collective.add !stats s
    done;
    (!iterations, !stats)
end
