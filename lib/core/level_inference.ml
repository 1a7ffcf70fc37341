type verdict = {
  profile : Il_profile.t;
  passed : bool;
  violations : int;
  violating_mechanisms : string list;
}

let profiles_of_dbms dbms =
  let prefix = dbms ^ "/" in
  List.filter
    (fun (p : Il_profile.t) ->
      String.length p.name > String.length prefix
      && String.sub p.name 0 (String.length prefix) = prefix)
    Il_profile.all

let strength (p : Il_profile.t) =
  (* conventional strength order by level suffix *)
  match String.index_opt p.name '/' with
  | None -> 0
  | Some i -> (
    match String.sub p.name (i + 1) (String.length p.name - i - 1) with
    | "RC" -> 1
    | "RR" -> 2
    | "SI" -> 3
    | "SR" -> 4
    | _ -> 0)

let infer ~dbms ?(mark = ignore) iter =
  let checkers =
    List.map
      (fun profile ->
        let checker = Checker.create ~relaxed_reads:true profile in
        mark checker;
        (profile, checker))
      (List.sort
         (fun a b -> Int.compare (strength a) (strength b))
         (profiles_of_dbms dbms))
  in
  iter (fun trace -> List.iter (fun (_, c) -> Checker.feed c trace) checkers);
  List.map
    (fun (profile, checker) ->
      Checker.finalize checker;
      let report = Checker.report checker in
      let violating_mechanisms =
        List.sort_uniq String.compare
          (List.map
             (fun (b : Bug.t) -> Bug.mechanism_to_string b.mechanism)
             report.Checker.bugs)
      in
      {
        profile;
        passed = report.Checker.bugs_total = 0;
        violations = report.Checker.bugs_total;
        violating_mechanisms;
      })
    checkers

let strongest_passed verdicts =
  List.fold_left
    (fun best v ->
      if not v.passed then best
      else
        match best with
        | Some b when strength b >= strength v.profile -> best
        | _ -> Some v.profile)
    None verdicts

let pp_verdicts ppf verdicts =
  List.iter
    (fun v ->
      Format.fprintf ppf "%-18s %s" v.profile.Il_profile.name
        (if v.passed then "PASS"
         else
           Printf.sprintf "FAIL (%d violations: %s)" v.violations
             (String.concat "," v.violating_mechanisms));
      Format.pp_print_newline ppf ())
    verdicts
