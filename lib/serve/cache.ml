type 'a entry = { value : 'a; mutable last_use : int }

type 'a t = {
  cap : int;
  table : (string, 'a entry) Hashtbl.t;
  mutable tick : int; (* logical time; strictly increasing per access *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity () =
  {
    cap = max 1 capacity;
    table = Hashtbl.create 32;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let length t = Hashtbl.length t.table
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let mem t key = Hashtbl.mem t.table key

let touch t e =
  t.tick <- t.tick + 1;
  e.last_use <- t.tick

(* O(entries) scan per eviction.  Capacities are small (the daemon's
   default is 64) and ticks are unique, so the victim — the minimal
   [last_use] — is unambiguous; no linked-list bookkeeping to get wrong. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, best) when best.last_use <= e.last_use -> ()
      | _ -> victim := Some (key, e))
    t.table;
  match !victim with
  | None -> ()
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1

let find_or_add t key compute =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.hits <- t.hits + 1;
    touch t e;
    (e.value, true)
  | None ->
    t.misses <- t.misses + 1;
    let value = compute () in
    (* [compute] may have recursed into the cache (a separator query
       filling its decomposition dependency); re-check before insert. *)
    if not (Hashtbl.mem t.table key) then begin
      if Hashtbl.length t.table >= t.cap then evict_lru t;
      let e = { value; last_use = 0 } in
      touch t e;
      Hashtbl.replace t.table key e
    end;
    (value, false)

let keys_lru_first t =
  Hashtbl.fold (fun key e acc -> (e.last_use, key) :: acc) t.table []
  |> List.sort compare |> List.map snd

let stats_json t =
  Repro_trace.Json.Obj
    [
      ("hits", Repro_trace.Json.Int t.hits);
      ("misses", Repro_trace.Json.Int t.misses);
      ("evictions", Repro_trace.Json.Int t.evictions);
      ("entries", Repro_trace.Json.Int (length t));
      ("capacity", Repro_trace.Json.Int t.cap);
    ]
