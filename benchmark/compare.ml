(* Compare benchmark sets of a parent commit and a change.

     compare.exe [--benchmark BENCHMARK.json] --parent P1.json P2.json ... \
                 --change C1.json C2.json ...

   Each file is one set written by [run.exe --out].  Files pair up in
   order (P1 with C1, ...), so run the two sides alternately.  For every
   workload and end-to-end metric this prints each side's median and
   quartiles, the share of pairs the change won, and a verdict:
   - improved: the change won at least 9 of 10 pairs and the medians
     differ by more than the parent's interquartile range;
   - worse: the change's median is worse than the parent's by more than
     the metric's bound;
   - unresolved: the parent's own spread (IQR / median) exceeds the
     bound, so "no worse" cannot be told from noise, and not every run
     of the change beat every run of the parent;
   - unchanged: otherwise.
   Traced sets add per-layer medians and their change.  Exits 1 when any
   verdict is "worse". *)

module Json = Repro_trace.Json

let median = Common.median
let quartiles = Common.quartiles

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.of_string s

let str k j = match Json.member k j with Some (Json.String s) -> s | _ -> ""

let num k j =
  match Json.member k j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> nan

type bound = { name : string; better_higher : bool; bound : float }

let end_to_end path =
  match Json.member "end_to_end" (read_json path) with
  | Some (Json.List l) ->
    List.map
      (fun m ->
        {
          name = str "name" m;
          better_higher = str "better" m = "higher";
          bound = num "bound" m;
        })
      l
  | _ -> failwith (path ^ ": no end_to_end list")

(* run key -> metric -> value, for one set file *)
let runs path =
  match Json.member "runs" (read_json path) with
  | Some (Json.Obj rs) ->
    List.map
      (fun (key, r) ->
        let ms =
          match Json.member "metrics" r with
          | Some (Json.Obj ms) -> List.map (fun (n, m) -> (n, num "value" m)) ms
          | _ -> []
        in
        (key, ms))
      rs
  | _ -> failwith (path ^ ": not a set written by run.exe --out")

let values sets key name =
  List.filter_map
    (fun set -> Option.bind (List.assoc_opt key set) (List.assoc_opt name))
    sets

let verdict b p c =
  let better x y = if b.better_higher then x > y else x < y in
  let k = min (List.length p) (List.length c) in
  let wins =
    List.length
      (List.filter Fun.id
         (List.init k (fun i -> better (List.nth c i) (List.nth p i))))
  in
  let won = float_of_int wins /. float_of_int (max 1 k) in
  let mp = median p and mc = median c in
  let q1, q3 = quartiles p in
  let iqr = q3 -. q1 in
  let worse_by = (if b.better_higher then mp -. mc else mc -. mp) /. mp in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) p) c in
  let v =
    if won >= 0.9 && better mc mp && Float.abs (mc -. mp) > iqr then "improved"
    else if worse_by > b.bound then "worse"
    else if iqr /. mp > b.bound && not all_better then "unresolved"
    else "unchanged"
  in
  (won, v)

let fmt x = Printf.sprintf "%.4g" x

let usage () =
  prerr_endline
    "usage: compare.exe [--benchmark FILE] --parent FILES --change FILES";
  exit 2

let () =
  let rec parse (bench, parent, change) side = function
    | [] -> (bench, List.rev parent, List.rev change)
    | "--benchmark" :: f :: rest -> parse (f, parent, change) side rest
    | "--parent" :: rest -> parse (bench, parent, change) `Parent rest
    | "--change" :: rest -> parse (bench, parent, change) `Change rest
    | f :: rest -> (
      match side with
      | `Parent -> parse (bench, f :: parent, change) side rest
      | `Change -> parse (bench, parent, f :: change) side rest
      | `None -> usage ())
  in
  let bench, parent, change =
    parse ("BENCHMARK.json", [], []) `None (List.tl (Array.to_list Sys.argv))
  in
  if parent = [] || change = [] then usage ();
  let bounds = end_to_end bench in
  let p = List.map runs parent and c = List.map runs change in
  let keys = List.sort_uniq compare (List.concat_map (List.map fst) p) in
  let worse = ref false in
  Printf.printf "%-22s %-16s %10s %21s %10s %21s %6s  %s\n" "workload" "metric"
    "parent" "(q1..q3)" "change" "(q1..q3)" "won" "verdict";
  List.iter
    (fun key ->
      if not (String.ends_with ~suffix:"+trace" key) then
        List.iter
          (fun b ->
            let pv = values p key b.name and cv = values c key b.name in
            if pv <> [] && cv <> [] then begin
              let won, v = verdict b pv cv in
              if v = "worse" then worse := true;
              let q1p, q3p = quartiles pv and q1c, q3c = quartiles cv in
              Printf.printf "%-22s %-16s %10s %21s %10s %21s %5.0f%%  %s\n" key
                b.name (fmt (median pv))
                (Printf.sprintf "(%s..%s)" (fmt q1p) (fmt q3p))
                (fmt (median cv))
                (Printf.sprintf "(%s..%s)" (fmt q1c) (fmt q3c))
                (100.0 *. won) v
            end)
          bounds)
    keys;
  let traced = List.filter (String.ends_with ~suffix:"+trace") keys in
  if traced <> [] then begin
    Printf.printf "\nper-layer medians (traced sets)\n";
    List.iter
      (fun key ->
        let names =
          List.sort_uniq compare
            (List.concat_map
               (fun set ->
                 List.map fst (Option.value (List.assoc_opt key set) ~default:[]))
               p)
        in
        List.iter
          (fun name ->
            let pv = values p key name and cv = values c key name in
            if pv <> [] && cv <> [] then begin
              let mp = median pv and mc = median cv in
              Printf.printf "%-28s %-24s %12s %12s %s\n" key name (fmt mp) (fmt mc)
                (if mp = 0.0 then ""
                 else Printf.sprintf "%+.1f%%" (100.0 *. (mc -. mp) /. mp))
            end)
          names)
      traced
  end;
  exit (if !worse then 1 else 0)
