(* Synchronous CONGEST execution engine.

   Nodes run in lock step.  In every round each node consumes the messages
   delivered along its incident edges, updates its local state and emits at
   most one message per incident edge; the engine enforces the per-edge
   bandwidth and reports round/message statistics.  Execution ends when all
   nodes have finished and no message is in flight.

   [Make] is an event-driven scheduler: it maintains an explicit worklist
   of active nodes (nodes holding a message or not yet finished),
   double-buffered flat message queues, a round-stamped
   duplicate-destination check and O(1) quiescence detection, so a round
   costs O(active nodes + messages in flight) instead of O(n).  The
   original dense scheduler, which scans all n nodes every round, lives
   on in the testkit ([Repro_testkit.Reference.Engine]) as the oracle of
   the differential suite: both must produce bit-identical outputs and
   statistics on every program.

   Equivalence argument for the event-driven scheduler: the reference
   steps node v in round r iff v's inbox is non-empty or v is not
   finished.  States only change inside [step], so a finished node with an
   empty inbox stays finished; hence the set of nodes to step next round
   is exactly {destinations of this round's messages} ∪ {nodes whose
   post-step state is unfinished} — which is what the worklist collects.
   The worklist is processed in ascending node order and messages are
   consed onto destination inboxes in delivery order, reproducing the
   reference inbox ordering (and exception ordering) exactly. *)

open Repro_graph

module type PROGRAM = sig
  type input
  type state
  type msg
  type output

  val msg_bits : msg -> int

  val init : n:int -> id:int -> neighbors:int array -> input -> state * (int * msg) list
  (** Initial state and round-0 outbox (destination, message). *)

  val step : round:int -> id:int -> state -> inbox:(int * msg) list -> state * (int * msg) list
  (** One synchronous round: consume the inbox, emit an outbox. *)

  val finished : state -> bool
  (** Quiescence predicate: [true] when the node will take no action on an
      empty inbox (it may still be woken by an incoming message).  The
      engine stops once every node is finished and no message is in
      flight; nodes that report [false] are stepped every round even with
      an empty inbox. *)

  val output : state -> output
end

type stats = {
  rounds : int;
  messages : int;
  max_edge_bits : int;
  total_bits : int;
}

let pp_stats fmt s =
  Format.fprintf fmt "rounds=%d messages=%d max_edge_bits=%d total_bits=%d"
    s.rounds s.messages s.max_edge_bits s.total_bits

exception Bandwidth_exceeded of { src : int; dst : int; bits : int; limit : int }
exception Duplicate_message of { src : int; dst : int }
exception Did_not_terminate of { max_rounds : int }

(* ------------------------------------------------------------------ *)
(* Event-driven implementation: sparse-activation scheduler.           *)
(* ------------------------------------------------------------------ *)

let compare_int (a : int) (b : int) = compare a b

module Make (P : PROGRAM) = struct
  let run ?max_rounds ?bandwidth g ~(input : P.input array) =
    let n = Graph.n g in
    if Array.length input <> n then invalid_arg "Engine.run: wrong input arity";
    let bandwidth = match bandwidth with Some b -> b | None -> Bandwidth.default ~n in
    let max_rounds = match max_rounds with Some r -> r | None -> 100 * (n + 10) in
    let states = Array.make n None in
    let messages = ref 0 and max_edge_bits = ref 0 and total_bits = ref 0 in
    (* Double-buffered flat message queues, kept in delivery order.  The
       payload is the exact (src, msg) pair later consed onto the
       destination's inbox, so building an inbox allocates only the list
       spine. *)
    let cur_dst = ref [||] in
    let cur_pay : (int * P.msg) array ref = ref [||] in
    let cur_len = ref 0 in
    let nxt_dst = ref [||] in
    let nxt_pay : (int * P.msg) array ref = ref [||] in
    let nxt_len = ref 0 in
    let push_msg dst pay =
      let len = !nxt_len in
      if len = Array.length !nxt_dst then begin
        let cap = if len = 0 then 64 else 2 * len in
        let dsts = Array.make cap 0 in
        Array.blit !nxt_dst 0 dsts 0 len;
        nxt_dst := dsts;
        let pays = Array.make cap pay in
        Array.blit !nxt_pay 0 pays 0 len;
        nxt_pay := pays
      end;
      !nxt_dst.(len) <- dst;
      !nxt_pay.(len) <- pay;
      nxt_len := len + 1
    in
    (* Worklists: the nodes to step this round (ascending) and the ones
       collected for the next round.  [queued] is stamped with the round
       number that enqueued the node, deduplicating without clearing. *)
    let work = Array.make n 0 in
    let work_len = ref 0 in
    let next_work = Array.make n 0 in
    let next_len = ref 0 in
    let queued = Array.make n (-1) in
    let enqueue ~stamp v =
      if queued.(v) <> stamp then begin
        queued.(v) <- stamp;
        next_work.(!next_len) <- v;
        incr next_len
      end
    in
    (* Per-sender duplicate-destination check: one token-stamped array
       shared by every [deliver] call instead of a Hashtbl per call. *)
    let seen = Array.make n (-1) in
    let token = ref 0 in
    let deliver ~stamp src outbox =
      incr token;
      let tok = !token in
      List.iter
        (fun (dst, msg) ->
          if not (Graph.mem_edge g src dst) then
            invalid_arg "Engine: message along a non-edge";
          if seen.(dst) = tok then raise (Duplicate_message { src; dst });
          seen.(dst) <- tok;
          let bits = P.msg_bits msg in
          if bits > bandwidth then
            raise (Bandwidth_exceeded { src; dst; bits; limit = bandwidth });
          if bits > !max_edge_bits then max_edge_bits := bits;
          total_bits := !total_bits + bits;
          incr messages;
          push_msg dst (src, msg);
          enqueue ~stamp dst)
        outbox
    in
    let inbox : (int * P.msg) list array = Array.make n [] in
    for v = 0 to n - 1 do
      let st, outbox = P.init ~n ~id:v ~neighbors:(Graph.neighbors g v) input.(v) in
      states.(v) <- Some st;
      deliver ~stamp:0 v outbox;
      if not (P.finished st) then enqueue ~stamp:0 v
    done;
    let round = ref 0 in
    (* Quiescence is O(1): the next worklist is empty exactly when no
       message is in flight and every node is finished. *)
    while !next_len > 0 do
      incr round;
      if !round > max_rounds then raise (Did_not_terminate { max_rounds });
      (* Swap the double buffers; this round's sends arrive next round. *)
      let t_dst = !cur_dst and t_pay = !cur_pay in
      cur_dst := !nxt_dst;
      cur_pay := !nxt_pay;
      cur_len := !nxt_len;
      nxt_dst := t_dst;
      nxt_pay := t_pay;
      nxt_len := 0;
      let wl = !next_len in
      Array.blit next_work 0 work 0 wl;
      work_len := wl;
      next_len := 0;
      (* Ascending node order, so deliveries interleave exactly as in the
         reference engine (inbox ordering and exception ordering).  Every
         entry was enqueued with stamp [!round - 1] and stamps strictly
         increase, so on dense rounds one linear scan of [queued] recovers
         the sorted worklist — O(n), but branch-cheap, beating the
         O(wl log wl) sort once most nodes are active anyway. *)
      if wl > 1 then
        if wl >= n / 8 then begin
          let stamp = !round - 1 in
          let k = ref 0 in
          for v = 0 to n - 1 do
            if queued.(v) = stamp then begin
              work.(!k) <- v;
              incr k
            end
          done
        end
        else begin
          let seg = Array.sub work 0 wl in
          Array.sort compare_int seg;
          Array.blit seg 0 work 0 wl
        end;
      let cd = !cur_dst and cp = !cur_pay in
      for i = 0 to !cur_len - 1 do
        let dst = cd.(i) in
        inbox.(dst) <- cp.(i) :: inbox.(dst)
      done;
      let stamp = !round in
      for j = 0 to wl - 1 do
        let v = work.(j) in
        match states.(v) with
        | None -> assert false
        | Some st ->
          let ib = inbox.(v) in
          inbox.(v) <- [];
          let st', outbox = P.step ~round:!round ~id:v st ~inbox:ib in
          states.(v) <- Some st';
          deliver ~stamp v outbox;
          if not (P.finished st') then enqueue ~stamp v
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
