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

let esc s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let fl f =
  (* %.17g is lossless for doubles and deterministic; trailing-digit
     noise does not matter, byte-stability does.  JSON has no NaN or
     infinity. *)
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let unexpected results =
  Array.to_list results
  |> List.filter (fun r -> not (Runner.is_expected r))

type counts = {
  mutable verified : int;
  mutable violation : int;
  mutable inconclusive : int;
  mutable crashed : int;
  mutable timeout : int;
  mutable bad : int;  (** unexpected under the class's expectation *)
}

let count_of results =
  let c =
    {
      verified = 0;
      violation = 0;
      inconclusive = 0;
      crashed = 0;
      timeout = 0;
      bad = 0;
    }
  in
  List.iter
    (fun (r : Runner.result) ->
      (match Runner.kind_of r.Runner.outcome with
      | Runner.K_verified -> c.verified <- c.verified + 1
      | Runner.K_violation -> c.violation <- c.violation + 1
      | Runner.K_inconclusive -> c.inconclusive <- c.inconclusive + 1
      | Runner.K_crashed -> c.crashed <- c.crashed + 1
      | Runner.K_timeout -> c.timeout <- c.timeout + 1);
      if not (Runner.is_expected r) then c.bad <- c.bad + 1)
    results;
  c

let counts_json c =
  Printf.sprintf
    "{\"verified\":%d,\"violation\":%d,\"inconclusive\":%d,\"crashed\":%d,\
     \"timeout\":%d}"
    c.verified c.violation c.inconclusive c.crashed c.timeout

(* sum/max distribution of one degradation counter over a class *)
let dist name get completed =
  let sum = List.fold_left (fun a c -> a + get c) 0 completed in
  let mx = List.fold_left (fun a c -> max a (get c)) 0 completed in
  Printf.sprintf "\"%s\":{\"sum\":%d,\"max\":%d}" name sum mx

let class_json (clazz : Grid.clazz) (results : Runner.result list) =
  let c = count_of results in
  let completed =
    List.filter_map
      (fun (r : Runner.result) ->
        match r.Runner.outcome with
        | Runner.Completed comp -> Some comp
        | Runner.Crashed _ | Runner.Timeout _ -> None)
      results
  in
  let degs = List.map (fun (x : Runner.completed) -> x.Runner.deg) completed in
  let lat =
    match completed with
    | [] -> "null"
    | _ ->
      let p50s = List.map (fun (x : Runner.completed) -> x.Runner.p50_ns) completed in
      let p99s = List.map (fun (x : Runner.completed) -> x.Runner.p99_ns) completed in
      Printf.sprintf "{\"p50_ns\":%s,\"p99_ns\":%s}"
        (fl (Leopard_util.Stats.percentile p50s 50.0))
        (fl (List.fold_left Float.max 0.0 p99s))
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"workload\":\"%s\",\"expect\":\"%s\",\"cells\":%d,\
     \"unexpected\":%d,\"verdicts\":%s,\"degradation\":{%s},\"latency\":%s}"
    (esc clazz.Grid.cname) (esc clazz.Grid.workload)
    (Grid.expect_to_string clazz.Grid.expect)
    (List.length results) c.bad (counts_json c)
    (String.concat ","
       [
         dist "restarts" (fun (d : Runner.degradation) -> d.Runner.restarts) degs;
         dist "recovery_lost_records"
           (fun (d : Runner.degradation) -> d.Runner.recovery_lost)
           degs;
         dist "ambiguous_commits"
           (fun (d : Runner.degradation) -> d.Runner.ambiguous)
           degs;
         dist "lost_suffix_commits"
           (fun (d : Runner.degradation) -> d.Runner.lost_suffix)
           degs;
         dist "failovers" (fun (d : Runner.degradation) -> d.Runner.failovers) degs;
         dist "coord_ambiguous_commits"
           (fun (d : Runner.degradation) -> d.Runner.coord_ambiguous)
           degs;
         dist "crashed_clients"
           (fun (d : Runner.degradation) -> d.Runner.crashed_clients)
           degs;
         dist "indeterminate_txns"
           (fun (d : Runner.degradation) -> d.Runner.indeterminate)
           degs;
       ])
    lat

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
  let by_class clazz =
    Array.to_list results
    |> List.filter (fun (r : Runner.result) ->
           String.equal r.Runner.cell.Grid.clazz.Grid.cname clazz.Grid.cname)
  in
  let b = Buffer.create 4096 in
  let all = count_of (Array.to_list results) in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"campaign_seed\": %d,\n  \"fingerprint\": \"%s\",\n  \
        \"seeds_per_class\": %d,\n  \"cells\": %d,\n  \"unexpected\": %d,\n"
       grid.Grid.campaign_seed (Grid.fingerprint grid)
       grid.Grid.seeds_per_class (Array.length results) all.bad);
  Buffer.add_string b
    (Printf.sprintf "  \"verdicts\": %s,\n" (counts_json all));
  Buffer.add_string b "  \"classes\": [\n";
  List.iteri
    (fun i clazz ->
      Buffer.add_string b "    ";
      Buffer.add_string b (class_json clazz (by_class clazz));
      if i < List.length grid.Grid.classes - 1 then Buffer.add_string b ",";
      Buffer.add_string b "\n")
    grid.Grid.classes;
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
