(* leopard-lint — the repo's own static analyzer (docs/ANALYSIS.md).

   Exit codes follow the tool convention, NOT the verifier's verdict
   codes: 0 clean, 1 at least one unsuppressed finding, 2 usage / IO /
   parse error.  Argument parsing is deliberately hand-rolled: the
   linter must stay dependency-light so `dune build @lint` can gate
   every build without pulling the full CLI stack. *)

module A = Leopard_analysis

let usage =
  "usage: leopard_lint [options] PATH...\n\
   Lint OCaml sources for determinism (D), fault-plane (F),\n\
   exhaustiveness (E), parallelism/race (P) and suppression-hygiene\n\
   (S) hazards.  PATH arguments are .ml files or directories\n\
   (searched recursively; _build, .git and lint_fixtures are\n\
   skipped).\n\n\
   options:\n\
  \  --json           print the report as JSON instead of text\n\
  \  -o FILE          also write the JSON report to FILE\n\
  \  --sarif FILE     also write a SARIF 2.1.0 report to FILE\n\
  \  --zone ZONE      force the zone for all PATHs (fixture testing);\n\
  \                   one of core|trace|minidb|harness|net|util|workload|\n\
  \                   baselines|analysis|bin|bench|examples|test\n\
  \  --list-rules     print the rule catalogue and exit\n\
  \  -q, --quiet      no output, exit code only\n\
  \  --help           this message\n\n\
   exit codes: 0 clean, 1 findings, 2 usage/parse error\n"

let die msg =
  prerr_string msg;
  exit 2

let list_rules () =
  List.iter
    (fun (r : A.Rules.t) ->
      Printf.printf "%s %-18s [%s] %s\n" r.code r.slug
        (A.Rules.group_to_string r.group)
        r.summary)
    A.Rules.all

let () =
  let json = ref false in
  let out_file = ref None in
  let sarif_file = ref None in
  let zone = ref None in
  let quiet = ref false in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse rest
    | "-o" :: file :: rest ->
      out_file := Some file;
      parse rest
    | "-o" :: [] -> die "leopard_lint: -o needs a file argument\n"
    | "--sarif" :: file :: rest ->
      sarif_file := Some file;
      parse rest
    | "--sarif" :: [] -> die "leopard_lint: --sarif needs a file argument\n"
    | "--zone" :: z :: rest -> (
      match A.Zone.of_string z with
      | Some zn ->
        zone := Some zn;
        parse rest
      | None -> die (Printf.sprintf "leopard_lint: unknown zone %S\n" z))
    | "--zone" :: [] -> die "leopard_lint: --zone needs an argument\n"
    | "--list-rules" :: _ ->
      list_rules ();
      exit 0
    | ("-q" | "--quiet") :: rest ->
      quiet := true;
      parse rest
    | ("--help" | "-help" | "-h") :: _ ->
      print_string usage;
      exit 0
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
      die (Printf.sprintf "leopard_lint: unknown option %s\n%s" arg usage)
    | path :: rest ->
      paths := path :: !paths;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let paths = List.rev !paths in
  if paths = [] then die usage;
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then
        die (Printf.sprintf "leopard_lint: no such path: %s\n" p))
    paths;
  let summary =
    A.Driver.lint_paths ?zone:!zone ~clock:Leopard_util.Clock.cpu paths
  in
  let write_to file text =
    let oc = open_out file in
    output_string oc text;
    output_char oc '\n';
    close_out oc
  in
  (match !out_file with
  | Some file -> write_to file (A.Driver.json_summary summary)
  | None -> ());
  (match !sarif_file with
  | Some file -> write_to file (A.Sarif.emit summary)
  | None -> ());
  if not !quiet then
    if !json then print_endline (A.Driver.json_summary summary)
    else Fmt.pr "%a" A.Driver.pp_summary summary;
  if summary.errors <> [] then exit 2
  else if summary.active > 0 then exit 1
  else exit 0
