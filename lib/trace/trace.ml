(* Span-tree tracer driven entirely by virtual time (charged rounds).  No
   wall clock, no identifiers minted from global state: a trace is a pure
   function of the run, which is what makes the jobs=N determinism
   guarantee (and the CI exact-diff gate) possible. *)

type counters = {
  mutable charged : float;
  mutable charges : int;
  mutable pa_units : int;
  mutable tasks : int;
}

type span = {
  name : string;
  self : counters;
  mutable children : span list; (* newest first *)
}

type t = {
  root_span : span;
  mutable stack : span list; (* innermost first; always ends with root_span *)
}

let zero () = { charged = 0.0; charges = 0; pa_units = 0; tasks = 0 }

let add_into ~into c =
  into.charged <- into.charged +. c.charged;
  into.charges <- into.charges + c.charges;
  into.pa_units <- into.pa_units + c.pa_units;
  into.tasks <- into.tasks + c.tasks

let create ?(root = "run") () =
  let root_span = { name = root; self = zero (); children = [] } in
  { root_span; stack = [ root_span ] }

let root t = t.root_span
let depth t = List.length t.stack

let current t =
  match t.stack with s :: _ -> s | [] -> assert false (* root never pops *)

let enter t name =
  let s = { name; self = zero (); children = [] } in
  let parent = current t in
  parent.children <- s :: parent.children;
  t.stack <- s :: t.stack

let leave t =
  match t.stack with
  | _ :: (_ :: _ as rest) -> t.stack <- rest
  | _ -> invalid_arg "Trace.leave: root span cannot be closed"

let with_span t name f =
  enter t name;
  Fun.protect ~finally:(fun () -> leave t) f

let within t name f =
  match t with None -> f () | Some t -> with_span t name f

(* --- attribution ---------------------------------------------------- *)

let note_charge t ~pa_units rounds =
  let c = (current t).self in
  c.charged <- c.charged +. rounds;
  c.charges <- c.charges + 1;
  c.pa_units <- c.pa_units + pa_units

let note_tasks t n =
  let c = (current t).self in
  c.tasks <- c.tasks + n

let absorb t other =
  let cur = current t in
  (* Both child lists are newest-first; prepending the other's keeps the
     chronological order after the final reversal. *)
  cur.children <- other.root_span.children @ cur.children;
  add_into ~into:cur.self other.root_span.self

(* --- reading -------------------------------------------------------- *)

let rec totals span =
  let acc = zero () in
  add_into ~into:acc span.self;
  List.iter (fun c -> add_into ~into:acc (totals c)) span.children;
  acc

let in_order span = List.rev span.children

(* Aggregation: sibling spans with equal names merge into one node, in
   order of first occurrence, and their children merge the same way at
   every depth — the per-phase attribution view. *)
type agg = {
  aname : string;
  count : int;
  aself : counters;
  atotal : counters;
  akids : agg list; (* order of first occurrence *)
}

(* Spans grouped by name, groups in order of first occurrence and each
   group's spans in their own order. *)
let by_name spans =
  let groups = Hashtbl.create 8 and names = ref [] in
  List.iter
    (fun s ->
      match Hashtbl.find_opt groups s.name with
      | Some group -> group := s :: !group
      | None ->
        Hashtbl.add groups s.name (ref [ s ]);
        names := s.name :: !names)
    spans;
  List.rev_map (fun name -> (name, List.rev !(Hashtbl.find groups name))) !names

let rec merge (name, group) =
  let aself = zero () and atotal = zero () in
  List.iter
    (fun s ->
      add_into ~into:aself s.self;
      add_into ~into:atotal (totals s))
    group;
  {
    aname = name;
    count = List.length group;
    aself;
    atotal;
    akids = List.map merge (by_name (List.concat_map in_order group));
  }

let aggregate span = merge (span.name, [ span ])

let pp fmt t =
  let rec go indent (a : agg) =
    let tot = a.atotal in
    Fmt.pf fmt "%s%-*s" indent (max 1 (34 - String.length indent)) a.aname;
    if a.count > 1 then Fmt.pf fmt " x%-5d" a.count else Fmt.pf fmt "       ";
    if tot.charged > 0.0 then Fmt.pf fmt " charged=%-10.0f" tot.charged;
    if tot.pa_units > 0 then Fmt.pf fmt " pa=%-6d" tot.pa_units;
    if tot.tasks > 0 then Fmt.pf fmt " tasks=%-5d" tot.tasks;
    Fmt.pf fmt "@.";
    List.iter (go (indent ^ "  ")) a.akids
  in
  go "" (aggregate t.root_span)

(* --- exporters ------------------------------------------------------ *)

let counters_fields (c : counters) =
  [
    ("charged_rounds", Json.Float c.charged);
    ("charges", Json.Int c.charges);
    ("pa_units", Json.Int c.pa_units);
    ("tasks", Json.Int c.tasks);
  ]

let to_chrome t =
  let events = ref [] in
  let rec emit ts span =
    let tot = totals span in
    events :=
      Json.Obj
        [
          ("name", Json.String span.name);
          ("cat", Json.String "congest");
          ("ph", Json.String "X");
          ("ts", Json.Float ts);
          ("dur", Json.Float tot.charged);
          ("pid", Json.Int 0);
          ("tid", Json.Int 0);
          ("args", Json.Obj (counters_fields tot));
        ]
      :: !events;
    (* Children occupy consecutive sub-intervals from the parent's start;
       the parent's self time fills whatever remains at the end. *)
    let cursor = ref ts in
    List.iter
      (fun c ->
        emit !cursor c;
        cursor := !cursor +. (totals c).charged)
      (in_order span)
  in
  emit 0.0 t.root_span;
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev !events));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj [ ("time_axis", Json.String "virtual-rounds") ] );
    ]

let metrics_of_span s =
  let rec node (a : agg) =
    Json.Obj
      ([ ("name", Json.String a.aname); ("count", Json.Int a.count) ]
      @ counters_fields a.atotal
      @ [
          ("self", Json.Obj (counters_fields a.aself));
          ("children", Json.List (List.map node a.akids));
        ])
  in
  node (aggregate s)

let to_metrics t = metrics_of_span t.root_span

let to_chrome_string t = Json.to_string (to_chrome t)
let to_metrics_string t = Json.to_string (to_metrics t)
