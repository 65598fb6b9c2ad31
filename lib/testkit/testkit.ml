type report = {
  spec : Instance.spec;
  results : Oracle.report list;
  ok : bool;
  checks : int;
}

let check_all ?oracles (inst : Instance.t) =
  let oracles = match oracles with Some os -> os | None -> Oracle.all in
  let results = List.map (fun o -> Oracle.run_protected o inst) oracles in
  {
    spec = inst.Instance.spec;
    results;
    ok = List.for_all (fun r -> r.Oracle.ok) results;
    checks = List.fold_left (fun a r -> a + r.Oracle.checks) 0 results;
  }

let check_spec ?oracles spec = check_all ?oracles (Instance.build spec)

let pp_report fmt r =
  Format.fprintf fmt "%s: %s (%d checks)@."
    (Instance.to_string r.spec)
    (if r.ok then "ok" else "FAILED")
    r.checks;
  List.iter
    (fun (res : Oracle.report) ->
      Format.fprintf fmt "  %s %a@."
        (if res.Oracle.ok then "pass" else "FAIL")
        Runner.pp_report res)
    r.results
