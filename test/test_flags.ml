(* One mapping from flags to config, for the CLI and the campaign.

   - every plane flag's value is checked whether or not its plane is on:
     a bad name or index is a one-line usage error (exit 2), never
     silently ignored;
   - [Flags.parse] reports cmdliner's diagnostic instead of exiting,
     and refuses to run off the main domain, where cmdliner's output
     would land in the main domain's [Format.str_formatter];
   - every digit of a rate in a reproducer line reaches [Flags];
   - every preset cell agrees with its printed line: the built CLI run
     on [Grid.args] exits with the cell's verdict and prints the cell's
     engine counts and degradation line. *)

module Flags = Leopard_harness.Flags
module G = Leopard_campaign.Grid
module Runner = Leopard_campaign.Runner

(* Values the parent plane would reject, given with the plane off. *)
let plane_off_cases =
  [
    ([ "--repl-ack"; "bogus" ], "--repl-ack");
    ([ "--repl-fault"; "bogus" ], "--repl-fault");
    ([ "--shard-fault"; "bogus" ], "--shard-fault");
    ([ "--repl-lag"; "5:1:2" ], "--repl-lag");
    ([ "--shard-partition"; "9:1:2" ], "--shard-partition");
    ([ "--shard-crash"; "7:100" ], "--shard-crash");
    ([ "--shard-failover-at"; "3:100" ], "--shard-failover-at");
    ([ "--shard-repl-fault"; "bogus" ], "--shard-repl-fault");
    ([ "--fault"; "bogus" ], "--fault");
  ]

let base = [ "-w"; "ycsb"; "--txns"; "20" ]

let parsed args =
  match Flags.parse args with
  | Ok flags -> flags
  | Error e -> Alcotest.failf "parse %s: %s" (String.concat " " args) e

let test_validate_plane_off () =
  List.iter
    (fun (extra, flag) ->
      let what = String.concat " " extra in
      Alcotest.(check (option string))
        (what ^ ": blamed flag") (Some flag)
        (Option.map
           (fun (e : Leopard_harness.Cli_validate.error) -> e.flag)
           (Flags.validate (parsed (base @ extra))));
      Alcotest.(check bool)
        (what ^ ": config refused") true
        (Result.is_error (Flags.config (parsed (base @ extra)))))
    plane_off_cases;
  (* the same values with their plane on and in range are fine *)
  List.iter
    (fun args ->
      Alcotest.(check (option string))
        (String.concat " " args) None
        (Option.map
           (fun (e : Leopard_harness.Cli_validate.error) -> e.flag)
           (Flags.validate (parsed (base @ args)))))
    [
      [ "--repl"; "6"; "--repl-ack"; "async"; "--repl-lag"; "5:1:2" ];
      [ "--shards"; "8"; "--shard-crash"; "7:100" ];
      [ "--shards"; "2"; "--shard-partition=-1:1:2" ];
    ]

let test_cli_plane_off () =
  List.iter
    (fun (extra, flag) ->
      let code, text = Helpers.run_cli (base @ extra) in
      let what = String.concat " " extra in
      Alcotest.(check int) (what ^ ": exit") 2 code;
      Alcotest.(check (list string))
        (what ^ ": one stderr line") [ "invalid " ^ flag ]
        (List.map
           (fun l -> String.sub l 0 (String.index l ':'))
           (String.split_on_char '\n' (String.trim text))))
    plane_off_cases

let test_parse_errors () =
  (match Flags.parse [ "--no-such-flag" ] with
  | Ok _ -> Alcotest.fail "unknown option accepted"
  | Error e ->
    Alcotest.(check bool) "names the option" true
      (Helpers.contains e "--no-such-flag"));
  match Flags.parse [ "--chaos-drop"; "lots" ] with
  | Ok _ -> Alcotest.fail "non-float accepted"
  | Error e ->
    Alcotest.(check bool) "names the flag" true
      (Helpers.contains e "--chaos-drop")

(* A chaos cell whose crash rate is written as [crash]. *)
let chaos_cell crash =
  let clazz =
    G.clazz "c" ~workload:"blindw-rw" ~txns:20 ~clients:2 ~expect:G.Any
      ("--chaos-crash " ^ crash
     ^ " --chaos-drop 0.02 --chaos-dup 1e-07 --chaos-delay 0.05")
  in
  (G.cells (G.make [ clazz ])).(0)

(* The four chaos rates the cell's line parses to. *)
let rates_of_line cell = Flags.chaos_rates (parsed (G.args cell))

let test_lossless_rates () =
  let cell = chaos_cell "0.1234567" in
  Alcotest.(check (list (float 0.0)))
    "every digit reaches Flags"
    [ 0.1234567; 0.02; 1e-7; 0.05 ]
    (rates_of_line cell);
  Alcotest.(check bool) "the line carries the flags verbatim" true
    (Helpers.contains (G.cli_line cell) "--chaos-drop 0.02 --chaos-dup 1e-07 ")

let prop_rates_round_trip =
  QCheck.Test.make ~count:300 ~name:"every rate round-trips through the line"
    (QCheck.float_range 0.0 1.0)
    (fun crash ->
      Float.equal crash
        (List.hd (rates_of_line (chaos_cell (Printf.sprintf "%.17g" crash)))))

(* --- each preset cell agrees with its line -------------------------- *)

let line_after prefix text =
  List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text)

let test_cells_agree_with_lines () =
  let classes =
    List.filter_map
      (fun (_, (c : G.clazz)) ->
        match c.G.expect with
        | G.Crash | G.Stall -> None
        | G.Pass | G.Fail | G.Any -> Some c)
      G.presets
  in
  let cells = G.cells (G.make ~seeds_per_class:2 classes) in
  Alcotest.(check int) "26 cells" 26 (Array.length cells);
  Array.iter
    (fun (cell : G.cell) ->
      let what = G.cli_line cell in
      match (Runner.run cell).Runner.outcome with
      | Runner.Crashed { exn_text; _ } ->
        Alcotest.failf "%s crashed: %s" what exn_text
      | Runner.Timeout _ -> Alcotest.failf "%s timed out" what
      | Runner.Completed c ->
        let code, text = Helpers.run_cli (G.args cell) in
        let expected_code =
          match c.Runner.verdict with
          | Leopard.Checker.Verified -> 0
          | Leopard.Checker.Violation -> 1
          | Leopard.Checker.Inconclusive _ -> 3
        in
        Alcotest.(check int) (what ^ ": exit") expected_code code;
        let engine =
          Option.map
            (fun l ->
              Scanf.sscanf l "engine   : %d committed, %d aborted" (fun a b ->
                  (a, b)))
            (line_after "engine   :" text)
        in
        Alcotest.(check (option (pair int int)))
          (what ^ ": commits/aborts")
          (Some (c.Runner.commits, c.Runner.aborts))
          engine;
        Alcotest.(check string) (what ^ ": degradation line")
          c.Runner.degradation_line
          (match line_after "degradation:" text with
          | Some l -> l ^ "\n"
          | None -> ""))
    cells

let test_parse_main_domain_only () =
  ignore (Format.flush_str_formatter ());
  let refused =
    Domain.join
      (Domain.spawn (fun () ->
           match Flags.parse base with
           | _ -> false
           | exception Invalid_argument _ -> true))
  in
  Alcotest.(check bool) "refused on a spawned domain" true refused;
  Alcotest.(check bool) "accepted on the main domain" true
    (Result.is_ok (Flags.parse base));
  Alcotest.(check string) "main domain's str_formatter left empty" ""
    (Format.flush_str_formatter ())

let suite =
  [
    Alcotest.test_case "plane values checked with the plane off" `Quick
      test_validate_plane_off;
    Alcotest.test_case "CLI: plane-off values exit 2, one stderr line" `Quick
      test_cli_plane_off;
    Alcotest.test_case "parse returns cmdliner's diagnostic" `Quick
      test_parse_errors;
    Alcotest.test_case "parse runs on the main domain only" `Quick
      test_parse_main_domain_only;
    Alcotest.test_case "reproducer lines keep every digit" `Quick
      test_lossless_rates;
    Helpers.qtest prop_rates_round_trip;
    Alcotest.test_case "every preset cell agrees with its line (26 cells)"
      `Slow test_cells_agree_with_lines;
  ]
