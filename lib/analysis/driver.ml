type file_result = {
  path : string;
  zone : Zone.t;
  findings : Finding.t list;
  suppressed : int;
}

let parse_impl ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | str -> Ok str
  | exception exn ->
    let msg =
      match Location.error_of_exn exn with
      | Some (`Ok (e : Location.error)) ->
        Format.asprintf "%a" Location.print_report e
      | _ -> Printexc.to_string exn
    in
    Error (String.map (fun c -> if c = '\n' then ' ' else c) msg)

(* ------------------------------------------------------------------ *)
(* Suppression filtering + stale-allow                                 *)
(* ------------------------------------------------------------------ *)

let sort_raws raws =
  List.sort
    (fun (a : Rules.raw) (b : Rules.raw) ->
      let c = Int.compare a.Rules.line b.Rules.line in
      if c <> 0 then c
      else
        let c = Int.compare a.Rules.col b.Rules.col in
        if c <> 0 then c else String.compare a.Rules.rule.Rules.code b.Rules.rule.Rules.code)
    raws

(* Filter [raws] through the file's suppressions, then turn every
   directive that suppressed nothing into an S001 raw and filter those
   the same way (suppressing S001 itself with its own slug works).
   Returns active findings in source order plus the suppressed
   count. *)
let filter_with_stale ~path ~zone source raws =
  let sup = Suppress.scan source in
  let to_finding (r : Rules.raw) =
    {
      Finding.rule = r.Rules.rule;
      file = path;
      line = r.Rules.line;
      col = r.Rules.col;
      msg = r.Rules.msg;
    }
  in
  let apply raws =
    List.fold_left
      (fun (act, n) (r : Rules.raw) ->
        if Suppress.allowed sup ~line:r.Rules.line ~slug:r.Rules.rule.Rules.slug
        then (act, n + 1)
        else (to_finding r :: act, n))
      ([], 0) raws
  in
  let active, suppressed = apply (sort_raws raws) in
  let stale_raws =
    if Rules.applies Rules.s001 zone ~basename:(Filename.basename path) then
      List.map
        (fun (line, slug) ->
          {
            Rules.rule = Rules.s001;
            line;
            col = 0;
            msg =
              Printf.sprintf
                "lint: allow %s suppresses nothing here; remove it or \
                 restore the justification it excused"
                slug;
          })
        (Suppress.stale sup)
    else []
  in
  let stale_active, stale_suppressed = apply stale_raws in
  ( List.rev (stale_active @ active) |> List.sort (fun a b ->
        let c = Int.compare a.Finding.line b.Finding.line in
        if c <> 0 then c
        else
          let c = Int.compare a.Finding.col b.Finding.col in
          if c <> 0 then c
          else String.compare a.Finding.rule.Rules.code b.Finding.rule.Rules.code),
    suppressed + stale_suppressed )

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let skip_dirs = [ "_build"; ".git"; "lint_fixtures"; "node_modules" ]

let collect_ml_files roots =
  let out = ref [] in
  let rec walk path =
    if Sys.is_directory path then begin
      if not (List.mem (Filename.basename path) skip_dirs) then
        Sys.readdir path |> Array.to_list
        |> List.sort String.compare
        |> List.iter (fun entry -> walk (Filename.concat path entry))
    end
    else if Filename.check_suffix path ".ml" then out := path :: !out
  in
  List.iter
    (fun root -> if Sys.file_exists root then walk root)
    roots;
  List.sort String.compare !out

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)
(* ------------------------------------------------------------------ *)

type stage_timings = {
  t_parse : float;  (* read + parse *)
  t_syntactic : float;  (* D/F/E rule pass *)
  t_extract : float;  (* summary extraction *)
  t_graph : float;  (* call graph + fixpoints *)
  t_race : float;  (* P001/P002 *)
  t_taint : float;  (* P003 *)
  t_stale : float;  (* suppression filtering + S001 *)
}

type summary = {
  files : int;
  active : int;
  suppressed_total : int;
  results : file_result list;
  errors : (string * string) list;
  timings : stage_timings;
}

(* Every entry point runs this: read, parse, syntactic rules and a
   summary per file, one call graph over all summaries, the P rules,
   then suppression filtering.  [results] holds every parsed file. *)
let lint ?zone ?(clock = fun () -> 0.) ~read files =
  let tp = ref 0. and ts = ref 0. and tx = ref 0. in
  let timed acc f =
    let t0 = clock () in
    let r = f () in
    acc := !acc +. (clock () -. t0);
    r
  in
  let parsed, errors =
    List.fold_left
      (fun (parsed, errors) path ->
        match timed tp (fun () -> read path) with
        | exception Sys_error e -> (parsed, (path, e) :: errors)
        | source -> (
          match timed tp (fun () -> parse_impl ~path source) with
          | Error e -> (parsed, (path, e) :: errors)
          | Ok str ->
            let zone =
              match zone with Some z -> z | None -> Zone.of_path path
            in
            let basename = Filename.basename path in
            let syn = timed ts (fun () -> Rules.check ~zone ~basename str) in
            let summ = timed tx (fun () -> Summary.extract ~path ~zone str) in
            ((source, syn, summ) :: parsed, errors)))
      ([], []) files
  in
  let parsed = List.rev parsed and errors = List.rev errors in
  let t0 = clock () in
  let graph = Callgraph.build (List.map (fun (_, _, s) -> s) parsed) in
  let t_graph = clock () -. t0 in
  let tr = ref 0. and tt = ref 0. in
  let raws =
    List.map
      (fun (source, syn, s) ->
        let race = timed tr (fun () -> Race.check graph s) in
        let taint = timed tt (fun () -> Taint.check s) in
        (source, s, syn @ race @ taint))
      parsed
  in
  let t0 = clock () in
  let results =
    List.map
      (fun (source, (s : Summary.t), raws) ->
        let path = s.Summary.m_path and zone = s.Summary.m_zone in
        let findings, suppressed = filter_with_stale ~path ~zone source raws in
        { path; zone; findings; suppressed })
      raws
  in
  let t_stale = clock () -. t0 in
  {
    files = List.length files;
    active =
      List.fold_left (fun n r -> n + List.length r.findings) 0 results;
    suppressed_total =
      List.fold_left (fun n r -> n + r.suppressed) 0 results;
    results;
    errors;
    timings =
      {
        t_parse = !tp;
        t_syntactic = !ts;
        t_extract = !tx;
        t_graph;
        t_race = !tr;
        t_taint = !tt;
        t_stale;
      };
  }

let lint_one ?zone ~read path =
  match lint ?zone ~read [ path ] with
  | { results = [ r ]; _ } -> Ok r
  | { errors; _ } -> Error (String.concat "; " (List.map snd errors))

let lint_source ?zone ~path source =
  lint_one ?zone ~read:(fun _ -> source) path

let lint_file ?zone path = lint_one ?zone ~read:read_file path

let lint_paths ?zone ?clock roots =
  let s = lint ?zone ?clock ~read:read_file (collect_ml_files roots) in
  {
    s with
    results =
      List.filter (fun r -> r.findings <> [] || r.suppressed > 0) s.results;
  }

let pp_summary ppf s =
  List.iter
    (fun r ->
      List.iter (fun f -> Fmt.pf ppf "%a@." Finding.pp f) r.findings)
    s.results;
  List.iter
    (fun (path, e) -> Fmt.pf ppf "%s: parse error: %s@." path e)
    s.errors;
  Fmt.pf ppf "%d file%s checked, %d finding%s, %d suppressed%s@."
    s.files
    (if s.files = 1 then "" else "s")
    s.active
    (if s.active = 1 then "" else "s")
    s.suppressed_total
    (if s.errors = [] then ""
     else Printf.sprintf ", %d parse error(s)" (List.length s.errors))

let json_summary s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"findings\":[";
  let first = ref true in
  List.iter
    (fun r ->
      List.iter
        (fun f ->
          if not !first then Buffer.add_char buf ',';
          first := false;
          Buffer.add_string buf (Finding.to_json f))
        r.findings)
    s.results;
  Buffer.add_string buf "],\"errors\":[";
  let first = ref true in
  List.iter
    (fun (path, e) ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_string buf
        (Printf.sprintf "{\"file\":\"%s\",\"msg\":\"%s\"}"
           (Leopard_util.Json.escape path) (Leopard_util.Json.escape e)))
    s.errors;
  Buffer.add_string buf
    (Printf.sprintf
       "],\"files\":%d,\"active\":%d,\"suppressed\":%d,\"timings\":{\"parse\":%.6f,\"syntactic\":%.6f,\"extract\":%.6f,\"graph\":%.6f,\"race\":%.6f,\"taint\":%.6f,\"stale\":%.6f}}"
       s.files s.active s.suppressed_total
       s.timings.t_parse s.timings.t_syntactic s.timings.t_extract
       s.timings.t_graph s.timings.t_race s.timings.t_taint
       s.timings.t_stale);
  Buffer.contents buf
