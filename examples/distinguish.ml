(* Distinguishing repeatable read from serializable — the case Elle
   cannot decide on PostgreSQL (paper §VI-F, citing the Jepsen analysis).

     dune exec examples/distinguish.exe

   PostgreSQL's repeatable read IS snapshot isolation: write skew is
   legal there and only the serializable level's SSI certifier forbids
   it.  We run a write-skew-prone workload, honestly, at snapshot
   isolation — no injected faults — and then ask Leopard which claims the
   collected history supports.  The verdict separates the two levels:
   the history passes postgresql/SI but fails postgresql/SR, because a
   correct SSI certifier could never have let those consecutive rw
   antidependencies commit. *)

module W = Leopard_workload

let () =
  (* the write-skew probe workload, used here without any fault: skew is
     legitimate behaviour at snapshot isolation *)
  let skew_prone = W.Probes.for_fault Minidb.Fault.No_ssi in
  let config =
    Leopard_harness.Run.config ~clients:skew_prone.clients ~seed:2024
      ~spec:skew_prone.spec ~profile:Minidb.Profile.postgresql
      ~level:Minidb.Isolation.Snapshot_isolation
      ~stop:(Leopard_harness.Run.Txn_count 4_000) ()
  in
  let outcome = Leopard_harness.Run.execute config in
  Printf.printf
    "ran a write-skew-prone workload on postgresql at snapshot isolation\n";
  Printf.printf "  (%d committed, %d aborted — no faults injected)\n\n"
    outcome.commits outcome.aborts;
  let traces = Leopard_harness.Run.all_traces_sorted outcome in
  let verdicts =
    Leopard.Level_inference.infer ~dbms:"postgresql"
      ~mark:(fun checker ->
        Leopard_harness.Marks.apply checker
          (Leopard_harness.Marks.of_outcome outcome))
      (fun feed -> List.iter feed traces)
  in
  print_endline "which postgresql isolation claims does this history support?";
  Format.printf "%a" Leopard.Level_inference.pp_verdicts verdicts;
  (match Leopard.Level_inference.strongest_passed verdicts with
  | Some p ->
    Printf.printf "\nstrongest supported claim: %s\n" p.Leopard.Il_profile.name
  | None -> print_endline "\nno claim supported!");
  print_endline
    "\nThe history satisfies snapshot isolation but not serializability:\n\
     Leopard separates PostgreSQL's RR/SI from SR by mirroring the SSI\n\
     certifier — the distinction a cycle checker without mechanism\n\
     knowledge cannot make reliably.";
  (* sanity for CI use: SI must pass, SR must fail *)
  let find name =
    List.find
      (fun (v : Leopard.Level_inference.verdict) ->
        v.profile.Leopard.Il_profile.name = name)
      verdicts
  in
  if not (find "postgresql/SI").passed then exit 1;
  if (find "postgresql/SR").passed then exit 1
