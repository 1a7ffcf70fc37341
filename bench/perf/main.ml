(* Leopard's performance benchmark.

     bash bench/perf/run.sh --seed 42               # every workload, both runs
     bash bench/perf/run.sh --workload check-tpcc --seed 7 --seconds 10 --trace 0
     bash bench/perf/run.sh compare A.json B.json

   run.sh builds bin/leopard_cli.exe and this program, then runs it from
   the repository root.  Per workload: generate the input from the seed
   (set-up, timed in child processes), run end-to-end repetitions each in
   its own untraced child process, and time the layers in a separate
   traced child.  Every run's exit code, verdict and report digest is
   checked; any mismatch makes the result incorrect and the exit code 1.
   bench/perf/README.md documents the workloads and metrics. *)

open Cmdliner
module W = Workload

let work_dir = Filename.concat "bench" (Filename.concat "perf" "_work")
let cli = "_build/default/bin/leopard_cli.exe"
let child_timeout_s = 90.

(* A workload's files for one seed, shared by the parent and its
   children. *)
let file (w : W.t) ~seed ext =
  Filename.concat work_dir (Printf.sprintf "%s-%d.%s" w.name seed ext)

(* Set-up runs this many times per end-to-end run; its median is
   [setup_s]. *)
let setup_runs = 3

type outcome = {
  workload : W.t;
  attempted : int;
  failed : int;
  problems : string list;
  input_digest : string;
  report_digest : string;
  metrics : (Metric.t * float list) list;
}

let run_workload ~seed ~seconds ~reps ~e2e ~traced (w : W.t) =
  let input = file w ~seed "trace" and ckpt = file w ~seed "ckpt" in
  let out = file w ~seed "out" in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let record = function
    | [] -> true
    | wrong ->
      incr failed;
      List.iter
        (fun m ->
          prerr_endline (w.name ^ ": " ^ m);
          problems := m :: !problems)
        wrong;
      false
  in
  (* One child process; [check] lists what is wrong with its result. *)
  let spawn (prog, args) ~check =
    incr attempted;
    let p = Proc.run ~timeout_s:child_timeout_s ~stdout_path:out prog args in
    (p, record (if p.timed_out then [ "child timed out" ] else check p))
  in
  let self mode =
    ( Sys.executable_name,
      [ "child"; mode; "--workload"; w.name; "--seed"; string_of_int seed ] )
  in
  let exit_is code (p : Proc.t) =
    if Proc.exit_code p = code then []
    else [ Printf.sprintf "exit code %d, expected %d" (Proc.exit_code p) code ]
  in
  (* Set-up: the same seed must give the same input every time. *)
  let setups =
    List.init
      (if e2e then setup_runs else 1)
      (fun _ ->
        let p, _ = spawn (self "setup") ~check:(exit_is 0) in
        let digest =
          if Sys.file_exists input then Digest.to_hex (Digest.file input) else ""
        in
        (p.wall_s, digest, Report.parse ~tag:"setup" p.stdout))
  in
  let _, input_digest, truth = List.hd setups in
  ignore
    (record
       (if List.for_all (fun (_, d, t) -> d = input_digest && t = truth) setups
        then []
        else [ "set-up is not deterministic" ]));
  let truth_int k = Option.value ~default:(-1) (Report.int_field truth k) in
  let traces = truth_int "traces" and committed = truth_int "committed" in
  (* A --check of the fault-free input must verify every trace. *)
  let against_truth (r : Report.t) =
    let expect k v =
      match Report.int_field r k with
      | Some x when x = v -> []
      | Some x -> [ Printf.sprintf "%s = %d, expected %d" k x v ]
      | None -> [ "no " ^ k ]
    in
    (match List.assoc_opt "verdict" r with
    | Some "PASS" -> []
    | Some v -> [ "verdict " ^ v ^ ", expected PASS" ]
    | None -> [ "no verdict" ])
    @ expect "traces" traces @ expect "committed" committed @ expect "bugs" 0
    @ expect "truncations" (traces / W.gc_watermark)
  in
  let expected_verdict r =
    match w.kind with
    | W.Check | W.Check_ckpt -> against_truth r
    | W.Online ->
      (match List.assoc_opt "verdict" r with
      | Some v when String.starts_with ~prefix:"INCONCLUSIVE" v -> []
      | Some v -> [ "verdict " ^ v ^ ", expected INCONCLUSIVE" ]
      | None -> [ "no verdict" ])
      @ if Report.int_field r "bugs" = Some 0 then [] else [ "bugs reported" ]
  in
  (* Every run of the workload's command must report the same digest. *)
  let reference = ref None in
  let same_digest r =
    let d = Report.digest r in
    match !reference with
    | None ->
      reference := Some d;
      []
    | Some d' when String.equal d d' -> []
    | Some _ -> [ "report digest differs from the first run's" ]
  in
  let e2e_run () =
    let report = ref [] in
    let cmd =
      match w.kind with
      | W.Check | W.Check_ckpt -> (cli, W.cli_args w ~input ~ckpt)
      | W.Online -> self "online"
    in
    let p, ok =
      spawn cmd ~check:(fun p ->
          let parsed =
            match w.kind with
            | W.Check | W.Check_ckpt -> Report.of_cli_output p.stdout
            | W.Online -> Ok (Report.parse ~tag:"path" p.stdout)
          in
          match parsed with
          | Error e -> [ e ]
          | Ok r ->
            report := r;
            exit_is (W.expected_exit w) p @ expected_verdict r @ same_digest r)
    in
    (p, !report, ok)
  in
  (* [f] at least [min_runs] times, then again while one more run as long
     as the last still ends within [seconds]. *)
  let repeat ~min_runs f =
    let t0 = Proc.now_s () in
    let rec go n last acc =
      if n >= min_runs && Proc.now_s () -. t0 +. last > seconds then
        List.rev acc
      else
        let t = Proc.now_s () in
        let r = f () in
        go (n + 1) (Proc.now_s () -. t) (r :: acc)
    in
    go 0 0. []
  in
  let e2e_metrics =
    if not e2e then []
    else
      let runs = repeat ~min_runs:reps e2e_run in
      let ok = List.filter (fun (_, _, ok) -> ok) runs in
      let col f = List.map (fun (p, r, _) -> f p r) ok in
      let int_of r k = float_of_int (Option.value ~default:0 (Report.int_field r k)) in
      [
        ("setup_s", List.map (fun (s, _, _) -> s) setups);
        ("wall_s", col (fun p _ -> p.Proc.wall_s));
        ("cpu_s", col (fun p _ -> p.Proc.cpu_s));
        ("traces_per_s", col (fun p r -> int_of r "traces" /. p.Proc.wall_s));
        ("peak_rss_mb", col (fun p _ -> p.Proc.peak_rss_mb));
        ("peak_live", col (fun _ r -> int_of r "peak_live"));
        ( "runs_ok",
          [ float_of_int (List.length ok) /. float_of_int (List.length runs) ] );
      ]
  in
  let layer_metrics =
    if not traced then []
    else begin
      (* Each traced run is paired with an untraced run just before it, so
         the overhead compares two runs under the same machine load. *)
      let traced_run () =
        let untraced, _, _ = e2e_run () in
        let p, _ =
          spawn (self "traced") ~check:(fun p ->
              let path = Report.parse ~tag:"path" p.stdout in
              exit_is 0 p
              @ against_truth (Report.parse ~tag:"offline" p.stdout)
              @ expected_verdict path @ same_digest path)
        in
        let metrics =
          List.filter_map
            (fun l ->
              match String.split_on_char '\t' l with
              | [ "metric"; k; v ] ->
                Option.map (fun v -> (k, v)) (float_of_string_opt v)
              | _ -> None)
            p.stdout
        in
        match List.assoc_opt "trace.path_s" metrics with
        | Some s -> ("trace.overhead_frac", (s /. untraced.wall_s) -. 1.) :: metrics
        | None -> metrics
      in
      let runs = repeat ~min_runs:1 traced_run in
      List.map
        (fun (m : Metric.t) -> (m.name, List.filter_map (List.assoc_opt m.name) runs))
        Metric.per_layer
    end
  in
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ input; ckpt; out ];
  let pick catalogue samples =
    List.filter_map
      (fun (m : Metric.t) ->
        Option.map (fun s -> (m, s)) (List.assoc_opt m.name samples))
      catalogue
  in
  let metrics =
    pick Metric.end_to_end e2e_metrics @ pick Metric.per_layer layer_metrics
  in
  let empty =
    List.filter_map
      (fun ((m : Metric.t), s) -> if s = [] then Some ("no samples of " ^ m.name) else None)
      metrics
  in
  ignore (record empty);
  {
    workload = w;
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    input_digest;
    report_digest = Option.value ~default:"" !reference;
    metrics;
  }

let metric_json ~full ((m : Metric.t), samples) =
  let q1, med, q3 = Metric.quartiles samples in
  ( m.name,
    Json.Obj
      ([ ("value", Json.Num (Metric.value m samples)); ("unit", Json.Str m.unit_) ]
      @
      if full then
        [
          ("median", Json.Num med); ("q1", Json.Num q1); ("q3", Json.Num q3);
          ("n", Json.Num (float_of_int (List.length samples)));
          ("samples", Json.Arr (List.map (fun x -> Json.Num x) samples));
        ]
      else []) )

let outcome_json o =
  Json.Obj
    [
      ("name", Json.Str o.workload.name);
      ("correct", Json.Bool (o.failed = 0));
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ("input_digest", Json.Str o.input_digest);
      ("report_digest", Json.Str o.report_digest);
      ("problems", Json.Arr (List.map (fun p -> Json.Str p) o.problems));
      ("metrics", Json.Obj (List.map (metric_json ~full:true) o.metrics));
    ]

let print_outcome ~seed o =
  Printf.printf "== %s  seed %d  input %s  report %s  runs %d (%d failed)\n"
    o.workload.name seed o.input_digest o.report_digest o.attempted o.failed;
  List.iter
    (fun ((m : Metric.t), samples) ->
      let q1, med, q3 = Metric.quartiles samples in
      Printf.printf "  %-26s %14.6g %-12s median %-10.6g q1 %-10.6g q3 %-10.6g n=%d\n"
        m.name (Metric.value m samples) m.unit_ med q1 q3 (List.length samples))
    o.metrics

let run workloads seed seconds reps trace out =
  let workloads =
    match workloads with
    | [] -> W.all
    | names ->
      List.map
        (fun n ->
          match W.find n with
          | Some w -> w
          | None ->
            Printf.eprintf "unknown workload %s (known: %s)\n" n
              (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
            exit 2)
        names
  in
  let e2e, traced =
    match trace with
    | None -> (true, true)
    | Some 0 -> (true, false)
    | Some 1 -> (false, true)
    | Some n ->
      Printf.eprintf "--trace takes 0 or 1, not %d\n" n;
      exit 2
  in
  if not (Sys.file_exists cli) then begin
    Printf.eprintf "%s not found; build it first (dune build ./bin/leopard_cli.exe)\n" cli;
    exit 2
  end;
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let t0 = Proc.now_s () in
  let outcomes =
    List.map
      (fun w ->
        let o = run_workload ~seed ~seconds ~reps ~e2e ~traced w in
        print_outcome ~seed o;
        o)
      workloads
  in
  let total_s = Proc.now_s () -. t0 in
  let num x = Json.Num (float_of_int x) in
  Out_channel.with_open_text out (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("seed", num seed); ("seconds", Json.Num seconds);
                ("reps", num reps);
                ("nproc", num (Domain.recommended_domain_count ()));
                ("ocaml", Json.Str Sys.ocaml_version);
                ("total_s", Json.Num total_s);
                ("workloads", Json.Arr (List.map outcome_json outcomes));
              ]));
      output_char oc '\n');
  Printf.printf "results: %s (%.1f s)\n" out total_s;
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let failed = sum (fun o -> o.failed) in
  let metrics =
    match outcomes with
    | [ o ] -> List.map (metric_json ~full:false) o.metrics
    | _ ->
      List.concat_map
        (fun o ->
          List.map
            (fun m ->
              let name, v = metric_json ~full:false m in
              (o.workload.name ^ "/" ^ name, v))
            o.metrics)
        outcomes
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", num (sum (fun o -> o.attempted)));
            ("failed", num failed);
            ("metrics", Json.Obj metrics);
          ]));
  exit (if failed = 0 then 0 else 1)

let child mode workload seed =
  let w =
    match W.find workload with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ workload);
      exit 2
  in
  let input = file w ~seed "trace" and ckpt = file w ~seed "ckpt" in
  match mode with
  | "setup" ->
    let traces, committed = W.setup w ~seed ~path:input in
    Report.print ~tag:"setup"
      [ ("traces", string_of_int traces); ("committed", string_of_int committed) ]
  | "online" ->
    let res = W.online w ~seed in
    Report.print ~tag:"path" (Report.of_online res);
    exit (Report.exit_code res.report)
  | "traced" -> Layers.run w ~seed ~input ~ckpt
  | other ->
    prerr_endline ("unknown child mode " ^ other);
    exit 2

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.")

let workload_arg =
  Arg.(value & opt string "" & info [ "workload" ] ~doc:"Workload name.")

let run_cmd =
  let workloads =
    Arg.(
      value & opt_all string []
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Run only this workload (repeatable; default: all four).")
  in
  let seconds =
    Arg.(
      value & opt float 10.
      & info [ "seconds" ]
          ~doc:
            "Measuring time per workload and mode: end-to-end repetitions \
             (at least $(b,--reps)) and traced runs repeat while one more \
             still fits in it.")
  in
  let reps =
    Arg.(
      value & opt int 5
      & info [ "reps" ] ~doc:"Minimum end-to-end repetitions per workload.")
  in
  let trace =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace" ]
          ~doc:
            "0: end-to-end metrics only; 1: per-layer metrics from the traced \
             run only.  Default: both.")
  in
  let out =
    Arg.(
      value
      & opt string (Filename.concat work_dir "results.json")
      & info [ "out" ] ~doc:"Results file (read by $(b,compare)).")
  in
  let term = Term.(const run $ workloads $ seed $ seconds $ reps $ trace $ out) in
  (Cmd.v (Cmd.info "run" ~doc:"Run the benchmark.") term, term)

let child_cmd =
  let mode = Arg.(required & pos 0 (some string) None & info [] ~docv:"MODE") in
  Cmd.v
    (Cmd.info "child" ~doc:"Internal: one set-up, online or traced run.")
    Term.(const child $ mode $ workload_arg $ seed)

let compare_cmd =
  let results i =
    Arg.(required & pos i (some file) None & info [] ~docv:"RESULTS")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare two results files against the bounds in BENCHMARK.json.")
    Term.(const (fun a b -> Compare.run ~a ~b) $ results 0 $ results 1)

let () =
  let run_cmd, run_term = run_cmd in
  exit
    (Cmd.eval
       (Cmd.group ~default:run_term
          (Cmd.info "perf" ~doc:"Leopard's performance benchmark.")
          [ run_cmd; child_cmd; compare_cmd ]))
