(* leopard-lint: rule catalogue, fixtures, suppression scanner and the
   executable's exit codes.  Each rule has a pair of fixtures under
   lint_fixtures/: [<slug>_trigger.ml] must produce exactly that rule's
   finding, [<slug>_allowed.ml] is the same hazard under a suppression
   annotation and must produce none.  The whole-repo zero-findings gate
   runs as part of @runtest via the root dune rule; here we re-assert it
   through the executable when the build tree is visible. *)

module A = Leopard_analysis
module Driver = A.Driver
module Rules = A.Rules
module Zone = A.Zone

let fixtures_dir = "lint_fixtures"

(* (slug, forced zone) — the zone makes the rule applicable to a bare
   fixture file that lives under test/ (where most rules are off). *)
let cases =
  [
    ("random-global", Zone.Core);
    ("wall-clock", Zone.Core);
    ("hashtbl-order", Zone.Core);
    ("poly-compare", Zone.Core);
    ("fault-plane", Zone.Core);
    ("fault-construct", Zone.Minidb);
    ("exit-in-lib", Zone.Core);
    ("verdict-wildcard", Zone.Core);
    ("abort-wildcard", Zone.Core);
    ("tag-wildcard", Zone.Core);
    ("stale-allow", Zone.Core);
  ]

(* The P rules' "allowed" fixtures are clean by construction (Atomic
   state, Mutex-guarded helper, Rng.derive) rather than suppressed, so
   they get their own allowed-test asserting zero findings AND zero
   suppressions. *)
let p_cases =
  [
    ("spawn-capture", Zone.Core);
    ("nonatomic-global", Zone.Core);
    ("underived-seed", Zone.Campaign);
  ]

let fixture_path slug variant =
  let stem = String.map (fun c -> if c = '-' then '_' else c) slug in
  Filename.concat fixtures_dir (stem ^ "_" ^ variant ^ ".ml")

(* (fixture stem, rule slug, forced zone) — the replication fault plane
   rides the existing rules in its own zone: planting a Repl_fault
   constructor outside the harness is fault-construct, a wildcard over
   Wire.repl_msg is tag-wildcard. *)
let repl_cases =
  [
    ("repl_fault_construct", "fault-construct", Zone.Replication);
    ("repl_msg_wildcard", "tag-wildcard", Zone.Replication);
  ]

let repl_fixture_path stem variant =
  Filename.concat fixtures_dir (stem ^ "_" ^ variant ^ ".ml")

(* The sharding/2PC fault plane rides the same rules in its own zone:
   planting a Shard_fault constructor outside the harness is
   fault-construct, a wildcard over Wire.tpc_msg is tag-wildcard. *)
let shard_cases =
  [
    ("shard_fault_construct", "fault-construct", Zone.Shard);
    ("tpc_msg_wildcard", "tag-wildcard", Zone.Shard);
  ]

(* The stacked-plane composition orchestrator (lib/compose) is its own
   zone riding the same rules: it may test fault membership but never
   construct a fault value, and it forwards replication wire messages
   without wildcard arms. *)
let compose_cases =
  [
    ("compose_fault_construct", "fault-construct", Zone.Compose);
    ("compose_repl_msg_wildcard", "tag-wildcard", Zone.Compose);
  ]

(* The campaign zone rides the rules with a twist of its own: cell
   bodies must be pure functions of the cell, so even the sanctioned
   reporting clock (Util.Clock.cpu) is a wall-clock finding there, and
   a wildcard over the cell outcome family (Completed/Crashed/Timeout)
   is a verdict-wildcard finding. *)
let campaign_cases =
  [
    ("campaign_wall_clock", "wall-clock", Zone.Campaign);
    ("campaign_outcome_wildcard", "verdict-wildcard", Zone.Campaign);
  ]

let lint_fixture ~zone path =
  match Driver.lint_file ~zone path with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s did not parse: %s" path e

let test_catalogue () =
  Alcotest.(check bool) "at least 14 rules" true (List.length Rules.all >= 14);
  let groups =
    List.sort_uniq compare
      (List.map (fun (r : Rules.t) -> Rules.group_to_string r.group) Rules.all)
  in
  Alcotest.(check (list string))
    "all five groups"
    [ "determinism"; "exhaustiveness"; "fault-plane"; "hygiene"; "parallelism" ]
    groups;
  let slugs = List.map (fun (r : Rules.t) -> r.slug) Rules.all in
  Alcotest.(check int)
    "slugs unique"
    (List.length slugs)
    (List.length (List.sort_uniq String.compare slugs));
  List.iter
    (fun (slug, _) ->
      Alcotest.(check bool)
        (slug ^ " is a known rule")
        true
        (Option.is_some (Rules.find_slug slug)))
    cases

let test_trigger (slug, zone) () =
  let r = lint_fixture ~zone (fixture_path slug "trigger") in
  let codes =
    List.sort_uniq String.compare
      (List.map (fun (f : A.Finding.t) -> f.rule.Rules.slug) r.findings)
  in
  Alcotest.(check (list string)) "exactly this rule fires" [ slug ] codes;
  Alcotest.(check int) "nothing suppressed" 0 r.suppressed

let test_allowed (slug, zone) () =
  let r = lint_fixture ~zone (fixture_path slug "allowed") in
  Alcotest.(check int) (slug ^ " fully suppressed") 0 (List.length r.findings);
  Alcotest.(check bool) "suppression counted" true (r.suppressed >= 1)

(* D003 matches every hash-order traversal, not only iter/fold: the
   trigger fixture holds one call of each form, each on its own line. *)
let test_hashtbl_order_forms () =
  let r = lint_fixture ~zone:Zone.Core (fixture_path "hashtbl-order" "trigger") in
  Alcotest.(check (list int))
    "iter, filter_map_inplace, to_seq, to_seq_keys, to_seq_values, and \
     iter on a renamed Hashtbl.Make instance"
    [ 1; 4; 8; 9; 10; 14 ]
    (List.sort_uniq Int.compare
       (List.map (fun (f : A.Finding.t) -> f.line) r.findings));
  let a = lint_fixture ~zone:Zone.Core (fixture_path "hashtbl-order" "allowed") in
  Alcotest.(check int) "every form suppressed" 7 a.suppressed

(* P-rule allowed fixtures are clean because the hazard is gone, not
   because it was excused. *)
let test_clean_allowed (slug, zone) () =
  let r = lint_fixture ~zone (fixture_path slug "allowed") in
  Alcotest.(check int) (slug ^ " clean") 0 (List.length r.findings);
  Alcotest.(check int) "nothing to suppress" 0 r.suppressed

let test_repl_trigger (stem, slug, zone) () =
  let r = lint_fixture ~zone (repl_fixture_path stem "trigger") in
  let codes =
    List.sort_uniq String.compare
      (List.map (fun (f : A.Finding.t) -> f.rule.Rules.slug) r.findings)
  in
  Alcotest.(check (list string)) "exactly this rule fires" [ slug ] codes

let test_repl_allowed (stem, _slug, zone) () =
  let r = lint_fixture ~zone (repl_fixture_path stem "allowed") in
  Alcotest.(check int) (stem ^ " fully suppressed") 0 (List.length r.findings);
  Alcotest.(check bool) "suppression counted" true (r.suppressed >= 1)

(* The harness owns replication fault injection, and tests construct
   faults freely — the rules stay quiet for the same hazards there. *)
let test_repl_zone_scoping () =
  List.iter
    (fun zone ->
      let r =
        lint_fixture ~zone (repl_fixture_path "repl_fault_construct" "trigger")
      in
      Alcotest.(check int)
        ("repl fault construction quiet in " ^ Zone.to_string zone)
        0 (List.length r.findings))
    [ Zone.Harness; Zone.Bin; Zone.Test ]

let test_shard_zone_scoping () =
  List.iter
    (fun zone ->
      let r =
        lint_fixture ~zone
          (repl_fixture_path "shard_fault_construct" "trigger")
      in
      Alcotest.(check int)
        ("shard fault construction quiet in " ^ Zone.to_string zone)
        0 (List.length r.findings))
    [ Zone.Harness; Zone.Bin; Zone.Test ]

(* The campaign-only wall-clock tightening must not leak: the same
   Clock.cpu read is legal everywhere else (it IS the sanctioned
   reporting clock), and outcome matches in tests stay free. *)
let test_campaign_zone_scoping () =
  List.iter
    (fun zone ->
      let r =
        lint_fixture ~zone (repl_fixture_path "campaign_wall_clock" "trigger")
      in
      Alcotest.(check int)
        ("campaign clock read quiet in " ^ Zone.to_string zone)
        0 (List.length r.findings))
    [ Zone.Harness; Zone.Bin; Zone.Bench; Zone.Test ];
  let r =
    lint_fixture ~zone:Zone.Test
      (repl_fixture_path "campaign_outcome_wildcard" "trigger")
  in
  Alcotest.(check int) "outcome wildcard quiet in test" 0
    (List.length r.findings)

let test_compose_zone_scoping () =
  List.iter
    (fun zone ->
      let r =
        lint_fixture ~zone
          (repl_fixture_path "compose_fault_construct" "trigger")
      in
      Alcotest.(check int)
        ("compose fault construction quiet in " ^ Zone.to_string zone)
        0 (List.length r.findings))
    [ Zone.Harness; Zone.Bin; Zone.Test ]

(* Scoping is part of each rule's contract: fault-plane and
   exhaustiveness rules are off in the Test zone (tests construct faults
   and write fallback arms on purpose), while determinism rules follow
   their own exemptions (util hosts the rng). *)
let test_zone_scoping () =
  let quiet slug zone =
    let r = lint_fixture ~zone (fixture_path slug "trigger") in
    Alcotest.(check int)
      (slug ^ " quiet in " ^ Zone.to_string zone)
      0 (List.length r.findings)
  in
  List.iter
    (fun slug -> quiet slug Zone.Test)
    [
      "fault-plane";
      "fault-construct";
      "exit-in-lib";
      "verdict-wildcard";
      "abort-wildcard";
      "tag-wildcard";
    ];
  (* util is the sanctioned home of the rng *)
  quiet "random-global" Zone.Util;
  (* fault construction is the engine fault plane's own business *)
  quiet "fault-construct" Zone.Harness

let test_multiline_suppression () =
  let src =
    "(* lint: allow poly-compare — a justification long enough\n\
    \   to span several comment lines before it finally\n\
    \   closes *)\n\
     let f l = List.sort compare l\n"
  in
  match Driver.lint_source ~zone:Zone.Core ~path:"inline.ml" src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok r ->
    Alcotest.(check int) "suppressed across comment lines" 0
      (List.length r.findings);
    Alcotest.(check int) "counted" 1 r.suppressed

let test_suppression_does_not_leak () =
  let src =
    "(* lint: allow poly-compare — only covers the next line *)\n\
     let g x = x\n\
     let f l = List.sort compare l\n"
  in
  match Driver.lint_source ~zone:Zone.Core ~path:"inline.ml" src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok r ->
    (* the compare finding survives out of the directive's range, and
       the directive — now suppressing nothing — is itself S001 *)
    let slugs =
      List.sort_uniq String.compare
        (List.map (fun (f : A.Finding.t) -> f.rule.Rules.slug) r.findings)
    in
    Alcotest.(check (list string))
      "finding survives and the directive is stale"
      [ "poly-compare"; "stale-allow" ]
      slugs

let test_parse_error () =
  match Driver.lint_source ~zone:Zone.Core ~path:"bad.ml" "let let let" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse diagnostic"

(* The whole LINT_report.json document, byte for byte: with no clock
   every stage timing prints as 0.000000. *)
let test_json_shape () =
  let summary =
    Driver.lint_paths ~zone:Zone.Core
      [ Filename.concat fixtures_dir "xmod_trigger" ]
  in
  Alcotest.(check string)
    "json report"
    "{\"findings\":[{\"file\":\"lint_fixtures/xmod_trigger/spawner.ml\",\
     \"line\":8,\"col\":34,\"rule\":\"P001\",\"slug\":\"spawn-capture\",\
     \"group\":\"parallelism\",\"msg\":\"unguarded Hashtbl.replace to tbl \
     (Hashtbl allocated at 7:12) captured at 8:23 by the closure spawned by \
     Domain.spawn at 8:10 via Helper.bump; guard the write with a Mutex or \
     make the state Atomic\"}],\"errors\":[],\"files\":2,\"active\":1,\
     \"suppressed\":0,\"timings\":{\"parse\":0.000000,\
     \"syntactic\":0.000000,\"extract\":0.000000,\"graph\":0.000000,\
     \"race\":0.000000,\"taint\":0.000000,\"stale\":0.000000}}"
    (Driver.json_summary summary)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* The cross-module escape: the race sits in spawner.ml but the write
   is in helper.ml, so only the interprocedural pipeline (lint_paths
   over both files) can see it. *)
let test_cross_module_escape () =
  let summary =
    Driver.lint_paths ~zone:Zone.Core
      [ Filename.concat fixtures_dir "xmod_trigger" ]
  in
  Alcotest.(check int) "exactly one finding" 1 summary.Driver.active;
  let f =
    match summary.Driver.results with
    | [ r ] -> List.hd r.Driver.findings
    | _ -> Alcotest.fail "expected one file with findings"
  in
  Alcotest.(check string) "P001 across modules" "spawn-capture"
    f.A.Finding.rule.Rules.slug;
  Alcotest.(check bool) "finding lands in the spawning module" true
    (contains f.A.Finding.file "spawner.ml");
  Alcotest.(check bool) "message names the helper chain" true
    (contains f.A.Finding.msg "Helper.bump");
  let clean =
    Driver.lint_paths ~zone:Zone.Core
      [ Filename.concat fixtures_dir "xmod_allowed" ]
  in
  Alcotest.(check int) "mutex-guarded helper is clean" 0 clean.Driver.active

(* Two linted files named m.ml are two modules M.  A bare [bump]
   resolves in its caller's file and a qualified [M.bump] in the
   caller's directory (or nowhere, from a third directory), so b's
   callers see b's bump and never a's, and a's callers never b's. *)
let test_same_name_modules () =
  let lint dir =
    Driver.lint_paths ~zone:Zone.Core [ Filename.concat fixtures_dir dir ]
  in
  Alcotest.(check int) "a's write does not reach b's callers" 0
    (lint "same_name_allowed").Driver.active;
  let trigger = lint "same_name_trigger" in
  let findings =
    List.concat_map (fun r -> r.Driver.findings) trigger.Driver.results
  in
  Alcotest.(check (list (pair string string)))
    "b's own write still races, bare and qualified"
    [
      ("lint_fixtures/same_name_trigger/b/m.ml", "spawn-capture");
      ("lint_fixtures/same_name_trigger/b/user.ml", "spawn-capture");
    ]
    (List.map
       (fun (f : A.Finding.t) ->
         (f.A.Finding.file, f.A.Finding.rule.Rules.slug))
       findings);
  List.iter
    (fun (f : A.Finding.t) ->
      Alcotest.(check bool) "message names M.bump" true
        (contains f.A.Finding.msg "via M.bump"))
    findings

(* SARIF: schema version, a result bound to its rule, and a 1-based
   physical location. *)
let test_sarif_shape () =
  let summary =
    Driver.lint_paths ~zone:Zone.Core [ fixture_path "spawn-capture" "trigger" ]
  in
  let sarif = A.Sarif.emit summary in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("sarif contains " ^ needle) true
        (contains sarif needle))
    [
      "\"version\":\"2.1.0\"";
      "\"name\":\"leopard-lint\"";
      "\"ruleId\":\"P001\"";
      "\"physicalLocation\"";
      "\"startLine\":6";
      "\"id\":\"S001\"";
    ]

(* ---------------------------------------------------------------- *)
(* Executable exit codes.  The test binary runs from test/ inside the
   build tree, so the linter sits one directory up. *)

let exe = Filename.concat ".." (Filename.concat "bin" "leopard_lint.exe")

let run args = Sys.command (Filename.quote_command exe args)

let test_exit_codes () =
  if not (Sys.file_exists exe) then
    Alcotest.skip ()
  else begin
    Alcotest.(check int) "clean file exits 0" 0
      (run [ "-q"; "--zone"; "core"; fixture_path "poly-compare" "allowed" ]);
    Alcotest.(check int) "findings exit 1" 1
      (run [ "-q"; "--zone"; "core"; fixture_path "poly-compare" "trigger" ]);
    Alcotest.(check int) "missing path exits 2" 2
      (run [ "-q"; "no-such-file.ml" ]);
    Alcotest.(check int) "--list-rules exits 0" 0 (run [ "--list-rules" ])
  end

(* Every trigger fixture individually fails the executable — the same
   property `dune build @lint` relies on to block the build. *)
let test_exit_codes_all_triggers () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else begin
    List.iter
      (fun (slug, zone) ->
        Alcotest.(check int)
          (slug ^ " trigger fails the gate")
          1
          (run
             [ "-q"; "--zone"; Zone.to_string zone; fixture_path slug "trigger" ]))
      cases;
    List.iter
      (fun (slug, zone) ->
        Alcotest.(check int)
          (slug ^ " trigger fails the gate")
          1
          (run
             [ "-q"; "--zone"; Zone.to_string zone; fixture_path slug "trigger" ]))
      p_cases;
    Alcotest.(check int) "cross-module trigger fails the gate" 1
      (run
         [
           "-q"; "--zone"; "core"; Filename.concat fixtures_dir "xmod_trigger";
         ]);
    List.iter
      (fun (stem, _slug, zone) ->
        Alcotest.(check int)
          (stem ^ " trigger fails the gate")
          1
          (run
             [
               "-q";
               "--zone";
               Zone.to_string zone;
               repl_fixture_path stem "trigger";
             ]))
      (repl_cases @ shard_cases @ compose_cases @ campaign_cases)
  end

let test_repo_is_clean () =
  (* The build tree mirrors the source tree, so when the linted roots
     are visible from test/ we can re-run the whole-repo gate. *)
  let roots =
    List.filter
      (fun d -> Sys.file_exists (Filename.concat ".." d))
      [ "lib"; "bin"; "bench"; "examples" ]
  in
  if roots = [] || not (Sys.file_exists exe) then Alcotest.skip ()
  else
    Alcotest.(check int)
      "zero findings over the repo" 0
      (run ("-q" :: List.map (Filename.concat "..") roots))

let suite =
  let fixture_tests =
    List.concat_map
      (fun ((slug, _) as case) ->
        [
          Alcotest.test_case (slug ^ " trigger") `Quick (test_trigger case);
          Alcotest.test_case (slug ^ " allowed") `Quick (test_allowed case);
        ])
      cases
    @ List.concat_map
        (fun ((slug, _) as case) ->
          [
            Alcotest.test_case (slug ^ " trigger") `Quick (test_trigger case);
            Alcotest.test_case (slug ^ " allowed") `Quick
              (test_clean_allowed case);
          ])
        p_cases
    @ List.concat_map
        (fun ((stem, _, _) as case) ->
          [
            Alcotest.test_case (stem ^ " trigger") `Quick
              (test_repl_trigger case);
            Alcotest.test_case (stem ^ " allowed") `Quick
              (test_repl_allowed case);
          ])
        (repl_cases @ shard_cases @ compose_cases @ campaign_cases)
  in
  [
    Alcotest.test_case "rule catalogue" `Quick test_catalogue;
    Alcotest.test_case "zone scoping" `Quick test_zone_scoping;
    Alcotest.test_case "replication zone scoping" `Quick test_repl_zone_scoping;
    Alcotest.test_case "shard zone scoping" `Quick test_shard_zone_scoping;
    Alcotest.test_case "compose zone scoping" `Quick test_compose_zone_scoping;
    Alcotest.test_case "campaign zone scoping" `Quick
      test_campaign_zone_scoping;
    Alcotest.test_case "multi-line suppression" `Quick test_multiline_suppression;
    Alcotest.test_case "suppression does not leak" `Quick
      test_suppression_does_not_leak;
    Alcotest.test_case "parse error is a diagnostic" `Quick test_parse_error;
    Alcotest.test_case "json report shape" `Quick test_json_shape;
    Alcotest.test_case "cross-module escape" `Quick test_cross_module_escape;
    Alcotest.test_case "sarif report shape" `Quick test_sarif_shape;
    Alcotest.test_case "same-name modules stay apart" `Quick
      test_same_name_modules;
    Alcotest.test_case "exit codes" `Quick test_exit_codes;
    Alcotest.test_case "every trigger fails the gate" `Quick
      test_exit_codes_all_triggers;
    Alcotest.test_case "hashtbl-order covers every traversal form" `Quick
      test_hashtbl_order_forms;
    Alcotest.test_case "whole repo is clean" `Quick test_repo_is_clean;
  ]
  @ fixture_tests
