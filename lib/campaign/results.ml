(* The campaign results DB: one deterministic JSON document.

   Everything here is derived from the grid and the index-ordered result
   array — never from completion order, wall time, or the number of
   worker domains — so a serial sweep and a parallel sweep of the same
   grid emit byte-identical documents, and a resumed sweep emits the
   same bytes as an uninterrupted one (checkpoint floats round-trip by
   bit pattern).

   Aggregation per cell class: the verdict mix, the distribution
   (sum/max) of every degradation counter, and a latency profile (the
   median of the cells' p50s and the worst p99).  Latencies are
   simulated nanoseconds: they characterize what the injected fault
   planes do to transaction intervals and are exactly reproducible. *)

let esc = Leopard_util.Json.escape

let fl f =
  (* %.17g is lossless for doubles and deterministic; trailing-digit
     noise does not matter, byte-stability does.  JSON has no NaN or
     infinity. *)
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let unexpected results =
  Array.to_list results
  |> List.filter (fun r -> not (Runner.is_expected r))

type verdicts = {
  verified : int;
  violation : int;
  inconclusive : int;
  crashed : int;
  timeout : int;
}

let verdicts_of results =
  List.fold_left
    (fun v (r : Runner.result) ->
      match Runner.kind_of r.Runner.outcome with
      | Runner.K_verified -> { v with verified = v.verified + 1 }
      | Runner.K_violation -> { v with violation = v.violation + 1 }
      | Runner.K_inconclusive -> { v with inconclusive = v.inconclusive + 1 }
      | Runner.K_crashed -> { v with crashed = v.crashed + 1 }
      | Runner.K_timeout -> { v with timeout = v.timeout + 1 })
    { verified = 0; violation = 0; inconclusive = 0; crashed = 0; timeout = 0 }
    results

let verdicts_json v =
  Printf.sprintf
    "{\"verified\":%d,\"violation\":%d,\"inconclusive\":%d,\"crashed\":%d,\
     \"timeout\":%d}"
    v.verified v.violation v.inconclusive v.crashed v.timeout

type summary = {
  clazz : Grid.clazz;
  cells : int;
  unexpected : int;
  verdicts : verdicts;
  bugs : int;
  commits : int;
  aborts : int;
  degradation : (string * int * int) list;
  latency : (float * float) option;
}

let counters =
  [
    ("restarts", fun (d : Runner.degradation) -> d.Runner.restarts);
    ("recovery_lost_records", fun d -> d.Runner.recovery_lost);
    ("ambiguous_commits", fun d -> d.Runner.ambiguous);
    ("lost_suffix_commits", fun d -> d.Runner.lost_suffix);
    ("failovers", fun d -> d.Runner.failovers);
    ("coord_ambiguous_commits", fun d -> d.Runner.coord_ambiguous);
    ("crashed_clients", fun d -> d.Runner.crashed_clients);
    ("indeterminate_txns", fun d -> d.Runner.indeterminate);
  ]

let summarize_class clazz (results : Runner.result list) =
  let completed =
    List.filter_map
      (fun (r : Runner.result) ->
        match r.Runner.outcome with
        | Runner.Completed comp -> Some comp
        | Runner.Crashed _ | Runner.Timeout _ -> None)
      results
  in
  let fold f init get =
    List.fold_left (fun a (c : Runner.completed) -> f a (get c)) init completed
  in
  let sum = fold ( + ) 0 in
  {
    clazz;
    cells = List.length results;
    unexpected =
      List.length (List.filter (fun r -> not (Runner.is_expected r)) results);
    verdicts = verdicts_of results;
    bugs = sum (fun c -> c.Runner.bugs);
    commits = sum (fun c -> c.Runner.commits);
    aborts = sum (fun c -> c.Runner.aborts);
    degradation =
      List.map
        (fun (name, get) ->
          ( name,
            sum (fun c -> get c.Runner.deg),
            fold max 0 (fun c -> get c.Runner.deg) ))
        counters;
    latency =
      (match completed with
      | [] -> None
      | _ ->
        let p50s =
          List.map (fun (c : Runner.completed) -> c.Runner.p50_ns) completed
        in
        Some
          ( Leopard_util.Stats.percentile p50s 50.0,
            fold Float.max 0.0 (fun c -> c.Runner.p99_ns) ));
  }

let summarize ~(grid : Grid.t) (results : Runner.result array) =
  List.map
    (fun (clazz : Grid.clazz) ->
      summarize_class clazz
        (List.filter
           (fun (r : Runner.result) ->
             String.equal r.Runner.cell.Grid.clazz.Grid.cname clazz.Grid.cname)
           (Array.to_list results)))
    grid.Grid.classes

let class_json s =
  Printf.sprintf
    "{\"name\":\"%s\",\"workload\":\"%s\",\"expect\":\"%s\",\"cells\":%d,\
     \"unexpected\":%d,\"verdicts\":%s,\"degradation\":{%s},\"latency\":%s}"
    (esc s.clazz.Grid.cname) (esc s.clazz.Grid.workload)
    (Grid.expect_to_string s.clazz.Grid.expect)
    s.cells s.unexpected (verdicts_json s.verdicts)
    (String.concat ","
       (List.map
          (fun (name, sum, mx) ->
            Printf.sprintf "\"%s\":{\"sum\":%d,\"max\":%d}" name sum mx)
          s.degradation))
    (match s.latency with
    | None -> "null"
    | Some (p50, p99) ->
      Printf.sprintf "{\"p50_ns\":%s,\"p99_ns\":%s}" (fl p50) (fl p99))

let result_json (r : Runner.result) =
  let cell = r.Runner.cell in
  let common =
    Printf.sprintf
      "\"index\":%d,\"class\":\"%s\",\"seed\":%d,\"outcome\":\"%s\",\
       \"expected\":%b"
      cell.Grid.index
      (esc cell.Grid.clazz.Grid.cname)
      cell.Grid.seed
      (Runner.kind_to_string (Runner.kind_of r.Runner.outcome))
      (Runner.is_expected r)
  in
  let rest =
    match r.Runner.outcome with
    | Runner.Completed c ->
      Printf.sprintf
        ",\"bugs\":%d,\"commits\":%d,\"aborts\":%d,\"degradation\":\"%s\",\
         \"p50_ns\":%s,\"p99_ns\":%s,\"sim_ns\":%d"
        c.Runner.bugs c.Runner.commits c.Runner.aborts
        (esc c.Runner.degradation_line)
        (fl c.Runner.p50_ns) (fl c.Runner.p99_ns) c.Runner.sim_ns
    | Runner.Crashed { exn_text; backtrace = _ } ->
      Printf.sprintf ",\"exn\":\"%s\"" (esc exn_text)
    | Runner.Timeout { budget } -> Printf.sprintf ",\"budget\":%d" budget
  in
  Printf.sprintf "{%s%s,\"cli\":\"%s\"}" common rest
    (esc (Grid.cli_line cell))

let to_json ~(grid : Grid.t) (results : Runner.result array) =
  let summaries = summarize ~grid results in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"campaign_seed\": %d,\n  \"fingerprint\": \"%s\",\n  \
        \"seeds_per_class\": %d,\n  \"cells\": %d,\n  \"unexpected\": %d,\n"
       grid.Grid.campaign_seed (Grid.fingerprint grid)
       grid.Grid.seeds_per_class (Array.length results)
       (List.length (unexpected results)));
  Buffer.add_string b
    (Printf.sprintf "  \"verdicts\": %s,\n"
       (verdicts_json (verdicts_of (Array.to_list results))));
  Buffer.add_string b "  \"classes\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string b "    ";
      Buffer.add_string b (class_json s);
      if i < List.length summaries - 1 then Buffer.add_string b ",";
      Buffer.add_string b "\n")
    summaries;
  Buffer.add_string b "  ],\n  \"results\": [\n";
  Array.iteri
    (fun i r ->
      Buffer.add_string b "    ";
      Buffer.add_string b (result_json r);
      if i < Array.length results - 1 then Buffer.add_string b ",";
      Buffer.add_string b "\n")
    results;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
