(* The run command's workload and fault-plane flags, and the one mapping
   from their values to a Run.config.

   The cmdliner definitions below are the only home of every default.
   The CLI's default command evaluates [term]; the campaign runner
   evaluates [parse] over a cell's own reproducer line, so the line a
   campaign prints is the definition of the cell it ran.  Flag values
   arrive raw and are validated BEFORE any is-disabled short-circuit
   ("--chaos-drop 1.5" and "--repl-ack bogus" are usage errors even
   with the plane off); configs are only built after every value
   passed.  Errors are returned, never exited on: the exit-code mapping
   belongs to the CLI. *)

open Cmdliner

let workload =
  Arg.(
    value & opt string "blindw-rw"
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:
          ("Workload: "
          ^ String.concat ", " Leopard_workload.Catalog.names
          ^ "."))

let dbms =
  Arg.(
    value & opt string "postgresql"
    & info [ "d"; "dbms" ] ~docv:"PROFILE"
        ~doc:
          "DBMS profile under test: postgresql, innodb, tidb, cockroachdb, \
           sqlite, foundationdb, oracle.")

let level =
  Arg.(
    value & opt string "SR"
    & info [ "i"; "isolation" ] ~docv:"LEVEL"
        ~doc:"Claimed isolation level: RC, RR, SI or SR.")

let faults =
  Arg.(
    value & opt_all string []
    & info [ "fault" ] ~docv:"FAULT"
        ~doc:"Inject a named engine fault (repeatable); see DESIGN.md (4).")

let clients =
  Arg.(value & opt int 16 & info [ "clients" ] ~doc:"Concurrent clients.")

let txns =
  Arg.(value & opt int 2000 & info [ "n"; "txns" ] ~doc:"Transactions to run.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let chaos_crash =
  Arg.(
    value & opt float 0.0
    & info [ "chaos-crash" ] ~docv:"PROB"
        ~doc:"Per-operation probability that a client crashes.")

let chaos_drop =
  Arg.(
    value & opt float 0.0
    & info [ "chaos-drop" ] ~docv:"PROB"
        ~doc:"Per-trace probability of delivery loss on the collection path.")

let chaos_dup =
  Arg.(
    value & opt float 0.0
    & info [ "chaos-dup" ] ~docv:"PROB"
        ~doc:"Per-trace probability of duplicate delivery.")

let chaos_delay =
  Arg.(
    value & opt float 0.0
    & info [ "chaos-delay" ] ~docv:"PROB"
        ~doc:"Per-trace probability of delayed delivery.")

let chaos_delay_ns =
  Arg.(
    value & opt int 500_000
    & info [ "chaos-delay-ns" ] ~docv:"NS"
        ~doc:"Upper bound on injected delivery delay (simulated ns).")

let chaos_skew_ns =
  Arg.(
    value & opt int 0
    & info [ "chaos-skew-ns" ] ~docv:"NS"
        ~doc:"Per-client clock skew magnitude bound (simulated ns).")

let chaos_seed =
  Arg.(
    value & opt int 1
    & info [ "chaos-seed" ] ~docv:"SEED"
        ~doc:"Seed of the chaos decision streams (independent of --seed).")

let net_flag =
  Arg.(
    value & flag
    & info [ "net" ]
        ~doc:
          "Run the workload through the wire layer: requests travel as \
           serialized messages through a seeded faulty link to per-session \
           server queues, with timeouts, bounded retries and idempotent \
           commit tokens.  Implied by any nonzero --net-fault-* rate; with \
           all rates zero the traces are byte-identical to the in-process \
           path for the same --seed.")

let net_fault_delay =
  Arg.(
    value & opt float 0.0
    & info [ "net-fault-delay" ] ~docv:"PROB"
        ~doc:"Per-message probability of extra wire latency.")

let net_fault_delay_ns =
  Arg.(
    value & opt int 400_000
    & info [ "net-fault-delay-ns" ] ~docv:"NS"
        ~doc:"Upper bound on injected extra wire latency (simulated ns).")

let net_fault_drop =
  Arg.(
    value & opt float 0.0
    & info [ "net-fault-drop" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of silent loss (the sender only learns \
           via timeout).")

let net_fault_dup =
  Arg.(
    value & opt float 0.0
    & info [ "net-fault-dup" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of duplicate delivery (retried COMMITs \
           are absorbed by idempotent commit tokens).")

let net_fault_reorder =
  Arg.(
    value & opt float 0.0
    & info [ "net-fault-reorder" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of delivery at a random point inside the \
           reordering window.")

let net_fault_reorder_ns =
  Arg.(
    value & opt int 200_000
    & info [ "net-fault-reorder-ns" ] ~docv:"NS"
        ~doc:"Size of the reordering window (simulated ns).")

let net_fault_reset =
  Arg.(
    value & opt float 0.0
    & info [ "net-fault-reset" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of a connection reset: the message is \
           lost and the sender finds out (a reset COMMIT acknowledgement is \
           an ambiguous commit).")

let net_fault_seed =
  Arg.(
    value & opt int 1
    & info [ "net-fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the wire fault streams (independent of --seed, \
           --chaos-seed and --wal-fault-seed).")

let net_timeout_ns =
  Arg.(
    value & opt int 2_000_000
    & info [ "net-timeout-ns" ] ~docv:"NS"
        ~doc:"Per-attempt request timeout before a retransmission.")

let net_max_tries =
  Arg.(
    value & opt int 3
    & info [ "net-max-tries" ] ~docv:"N"
        ~doc:
          "Send attempts per request before the client gives up (a given-up \
           COMMIT is recorded as an ambiguous outcome).")

let net_queue_cap =
  Arg.(
    value & opt int 64
    & info [ "net-queue-cap" ] ~docv:"N"
        ~doc:
          "Per-session server queue bound; requests beyond it are load-shed \
           with a definite rejection.")

let net_session_timeout_ns =
  Arg.(
    value & opt int 1_000_000
    & info [ "net-session-timeout-ns" ] ~docv:"NS"
        ~doc:
          "How long the server keeps an orphaned transaction (client gave \
           up) before reaping it with an abort.")

let max_retries =
  Arg.(
    value & opt int 0
    & info [ "max-retries" ] ~docv:"N"
        ~doc:
          "Re-run a transaction program up to $(docv) times when the engine \
           aborts it (deadlock victim, first-updater-wins, certifier), with \
           bounded exponential backoff.")

let wal_flag =
  Arg.(
    value & flag
    & info [ "wal" ]
        ~doc:
          "Run the engine with the write-ahead log enabled (implied by \
           --crash-at and by any --wal-fault-* probability).")

let crash_at =
  Arg.(
    value & opt_all int []
    & info [ "crash-at" ] ~docv:"NS"
        ~doc:
          "Crash the server at simulated instant $(docv) and recover from \
           the write-ahead log (repeatable: each instant is one \
           crash-recovery epoch).  In-flight transactions are aborted with \
           server-crash; clients retry under --max-retries.")

let wal_fault_torn =
  Arg.(
    value & opt float 0.0
    & info [ "wal-fault-torn" ] ~docv:"PROB"
        ~doc:
          "Per-crash probability that the tail WAL record is torn: a \
           committed transaction recovers with only part of its write set.")

let wal_fault_lost =
  Arg.(
    value & opt float 0.0
    & info [ "wal-fault-lost-fsync" ] ~docv:"PROB"
        ~doc:
          "Per-crash probability that an fsync window of the newest commit \
           records is lost: those transactions vanish on recovery.")

let wal_fault_reorder =
  Arg.(
    value & opt float 0.0
    & info [ "wal-fault-reorder" ] ~docv:"PROB"
        ~doc:
          "Per-crash probability that a reordered flush persisted newer \
           records but lost an older one: a mid-log commit vanishes while \
           later commits survive.")

let wal_fault_dup =
  Arg.(
    value & opt float 0.0
    & info [ "wal-fault-dup" ] ~docv:"PROB"
        ~doc:
          "Per-crash probability that recovery replays a superseded commit \
           record twice, resurrecting an overwritten version as newest \
           (a recovered lost update).")

let wal_fault_window =
  Arg.(
    value & opt int 3
    & info [ "wal-fault-window" ] ~docv:"N"
        ~doc:"Size bound of the lost-fsync / reordered-flush window.")

let wal_fault_seed =
  Arg.(
    value & opt int 0
    & info [ "wal-fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the durability-fault stream (independent of --seed and \
           --chaos-seed).")

(* FROM:UNTIL simulated-ns window, e.g. --repl-partition 2000000:4000000 *)
let window_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ a; b ] -> (
      try Ok (int_of_string a, int_of_string b)
      with Failure _ -> Error (`Msg ("bad window " ^ s)))
    | _ -> Error (`Msg ("expected FROM:UNTIL, got " ^ s))
  in
  let print ppf (a, b) = Format.fprintf ppf "%d:%d" a b in
  Arg.conv (parse, print)

(* FOLLOWER:FROM:UNTIL, e.g. --repl-lag 0:1000000:3000000 *)
let lag_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ f; a; b ] -> (
      try Ok (int_of_string f, int_of_string a, int_of_string b)
      with Failure _ -> Error (`Msg ("bad lag window " ^ s)))
    | _ -> Error (`Msg ("expected FOLLOWER:FROM:UNTIL, got " ^ s))
  in
  let print ppf (f, a, b) = Format.fprintf ppf "%d:%d:%d" f a b in
  Arg.conv (parse, print)

let repl_followers =
  Arg.(
    value & opt int 0
    & info [ "repl" ] ~docv:"N"
        ~doc:
          "Replicate the engine to $(docv) followers over the replication \
           wire (0 disables replication).  With no --repl-* faults, hops, \
           partitions or follower reads, the run is byte-identical to the \
           single-node path for the same --seed.")

let repl_ack =
  Arg.(
    value & opt string "sync"
    & info [ "repl-ack" ] ~docv:"MODE"
        ~doc:
          "Replication acknowledgement mode: $(b,sync) reports a commit \
           only once every live follower has it; $(b,async) reports \
           immediately and lets replication catch up (acked commits can be \
           lost at failover).")

let repl_hop_ns =
  Arg.(
    value & opt int 0
    & info [ "repl-hop-ns" ] ~docv:"NS"
        ~doc:"One-way replication hop latency (simulated ns).")

let repl_drop =
  Arg.(
    value & opt float 0.0
    & info [ "repl-drop" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of silent loss on the replication wire \
           (recovered by capped retransmission).")

let repl_dup =
  Arg.(
    value & opt float 0.0
    & info [ "repl-dup" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of duplicate delivery (absorbed by \
           in-order apply and cumulative acks).")

let repl_delay =
  Arg.(
    value & opt float 0.0
    & info [ "repl-delay" ] ~docv:"PROB"
        ~doc:"Per-message probability of extra replication latency.")

let repl_delay_ns =
  Arg.(
    value & opt int 400_000
    & info [ "repl-delay-ns" ] ~docv:"NS"
        ~doc:"Upper bound on injected replication delay (simulated ns).")

let repl_reorder =
  Arg.(
    value & opt float 0.0
    & info [ "repl-reorder" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of delivery at a random point inside the \
           reordering window (followers reject gaps and re-ack).")

let repl_reorder_ns =
  Arg.(
    value & opt int 200_000
    & info [ "repl-reorder-ns" ] ~docv:"NS"
        ~doc:"Size of the replication reordering window (simulated ns).")

let repl_seed =
  Arg.(
    value & opt int 1
    & info [ "repl-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the replication link fault and follower-read-routing \
           streams (independent of --seed).")

let repl_partition =
  Arg.(
    value & opt_all window_conv []
    & info [ "repl-partition" ] ~docv:"FROM:UNTIL"
        ~doc:
          "Cut the primary off from every follower during the half-open \
           simulated-ns window (repeatable).  Sync commits inside the \
           window time out as ambiguous; with \
           --repl-promote-on-partition the window also triggers an \
           election.")

let repl_lag =
  Arg.(
    value & opt_all lag_conv []
    & info [ "repl-lag" ] ~docv:"FOLLOWER:FROM:UNTIL"
        ~doc:
          "Cut a single follower off during the window (repeatable) — it \
           falls behind and re-converges via retransmission, or loses the \
           election at failover.")

let repl_failover_at =
  Arg.(
    value & opt_all int []
    & info [ "repl-failover-at" ] ~docv:"NS"
        ~doc:
          "Promote the most caught-up live follower at simulated instant \
           $(docv) (repeatable).  Commits beyond the survivor prefix are \
           lost with the old timeline and reported as such — unless a \
           planted --repl-fault hides them.")

let repl_promote_on_partition =
  Arg.(
    value & flag
    & info [ "repl-promote-on-partition" ]
        ~doc:
          "Additionally derive one promotion per full --repl-partition \
           window, fired --repl-election-ns after the window opens.")

let repl_election_ns =
  Arg.(
    value & opt int 300_000
    & info [ "repl-election-ns" ] ~docv:"NS"
        ~doc:
          "Election timeout: how long after a partition opens the derived \
           promotion fires (with --repl-promote-on-partition).")

let repl_split_brain_ns =
  Arg.(
    value & opt int 300_000
    & info [ "repl-split-brain-ns" ] ~docv:"NS"
        ~doc:
          "With --repl-fault split-brain: how long the deposed primary \
           keeps serving unfenced after a promotion.")

let repl_gate_timeout_ns =
  Arg.(
    value & opt int 2_000_000
    & info [ "repl-gate-timeout-ns" ] ~docv:"NS"
        ~doc:
          "Sync mode: how long a commit waits for the replication quorum \
           before being reported as ambiguous.")

let repl_retransmit_ns =
  Arg.(
    value & opt int 500_000
    & info [ "repl-retransmit-ns" ] ~docv:"NS"
        ~doc:"Primary retransmission interval for unacked appends.")

let repl_max_retransmits =
  Arg.(
    value & opt int 8
    & info [ "repl-max-retransmits" ] ~docv:"N"
        ~doc:"Retransmission cap per append (keeps the run finite).")

let repl_read_prob =
  Arg.(
    value & opt float 0.0
    & info [ "repl-read-prob" ] ~docv:"PROB"
        ~doc:
          "Probability that a routable snapshot read is served by a \
           replica whose applied horizon covers the snapshot (values \
           byte-identical to a primary read).")

let repl_staleness_ns =
  Arg.(
    value & opt int 1_000_000
    & info [ "repl-staleness-ns" ] ~docv:"NS"
        ~doc:
          "With --repl-fault stale-follower-read: how far behind the \
           snapshot a replica may serve from.")

let repl_fault =
  Arg.(
    value & opt_all string []
    & info [ "repl-fault" ] ~docv:"FAULT"
        ~doc:
          "Plant a named replication fault (repeatable): promote-lagging, \
           lose-acked-window, stale-follower-read, split-brain.  These \
           make the cluster lie (definite violations), unlike the \
           environmental --repl-drop/--repl-partition faults which only \
           degrade the verdict honestly.")

(* SHARD:AT, e.g. --shard-crash 1:2000000 *)
let shard_crash_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ a; b ] -> (
      try Ok (int_of_string a, int_of_string b)
      with Failure _ -> Error (`Msg ("bad shard crash " ^ s)))
    | _ -> Error (`Msg ("expected SHARD:AT, got " ^ s))
  in
  let print ppf (a, b) = Format.fprintf ppf "%d:%d" a b in
  Arg.conv (parse, print)

let shards_count =
  Arg.(
    value & opt int 0
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Hash-range partition the key space across $(docv) shard groups \
           (0 disables sharding; 1 is rejected).  Cross-shard writes \
           commit through a 2PC coordinator whose protocol messages ride \
           the shard wire; single-shard transactions take a fast path.  \
           With no --shard-* faults, hops or partitions the run is \
           byte-identical to the unsharded path for the same --seed.")

let shard_hop_ns =
  Arg.(
    value & opt int 0
    & info [ "shard-hop-ns" ] ~docv:"NS"
        ~doc:"One-way coordinator-participant hop latency (simulated ns).")

let shard_drop =
  Arg.(
    value & opt float 0.0
    & info [ "shard-drop" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of silent loss on the commit-protocol \
           wire (PREPAREs time the round out into a definite abort; \
           decisions are retransmitted).")

let shard_dup =
  Arg.(
    value & opt float 0.0
    & info [ "shard-dup" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of duplicate delivery (absorbed by \
           in-order apply and cumulative acks).")

let shard_delay =
  Arg.(
    value & opt float 0.0
    & info [ "shard-delay" ] ~docv:"PROB"
        ~doc:"Per-message probability of extra commit-protocol latency.")

let shard_delay_ns =
  Arg.(
    value & opt int 400_000
    & info [ "shard-delay-ns" ] ~docv:"NS"
        ~doc:"Upper bound on injected commit-protocol delay (simulated ns).")

let shard_reorder =
  Arg.(
    value & opt float 0.0
    & info [ "shard-reorder" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of delivery at a random point inside \
           the reordering window (participants reject decision-log gaps \
           and re-ack).")

let shard_reorder_ns =
  Arg.(
    value & opt int 200_000
    & info [ "shard-reorder-ns" ] ~docv:"NS"
        ~doc:"Size of the commit-protocol reordering window (simulated ns).")

let shard_reset =
  Arg.(
    value & opt float 0.0
    & info [ "shard-reset" ] ~docv:"PROB"
        ~doc:
          "Per-message probability of a connection reset on the \
           commit-protocol wire (the sender finds out and retransmits).")

let shard_seed =
  Arg.(
    value & opt int 1
    & info [ "shard-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the commit-protocol link fault streams (independent of \
           --seed).")

let shard_partition =
  Arg.(
    value & opt_all lag_conv []
    & info [ "shard-partition" ] ~docv:"SHARD:FROM:UNTIL"
        ~doc:
          "Cut one shard (or every shard, with SHARD = -1) off from the \
           coordinator during the half-open simulated-ns window \
           (repeatable).  Prepares inside the window time the round out \
           into a definite abort; decided commits resume shipping when \
           the window closes.")

let shard_crash =
  Arg.(
    value & opt_all shard_crash_conv []
    & info [ "shard-crash" ] ~docv:"SHARD:AT"
        ~doc:
          "Crash and restart participant SHARD at simulated instant AT \
           (repeatable): its volatile prepared state dies and its store \
           rebuilds from the durable per-shard decision log.")

let shard_coord_crash_at =
  Arg.(
    value & opt_all int []
    & info [ "shard-coord-crash-at" ] ~docv:"NS"
        ~doc:
          "Crash the 2PC coordinator at simulated instant $(docv) \
           (repeatable).  Undecided rounds are orphaned — presumed abort, \
           reported as coordinator-ambiguous commits (the verdict \
           degrades to INCONCLUSIVE, never a false violation); decided \
           rounds resume from the durable decision logs.")

let shard_prepare_timeout_ns =
  Arg.(
    value & opt int 2_000_000
    & info [ "shard-prepare-timeout-ns" ] ~docv:"NS"
        ~doc:
          "How long the coordinator waits for every participant's vote \
           before deciding abort.")

let shard_retransmit_ns =
  Arg.(
    value & opt int 500_000
    & info [ "shard-retransmit-ns" ] ~docv:"NS"
        ~doc:"Coordinator retransmission interval for unacked decisions.")

let shard_max_retransmits =
  Arg.(
    value & opt int 8
    & info [ "shard-max-retransmits" ] ~docv:"N"
        ~doc:"Retransmission cap per decision (keeps the run finite).")

let shard_skew_bound_ns =
  Arg.(
    value & opt int 1_000_000
    & info [ "shard-skew-bound-ns" ] ~docv:"NS"
        ~doc:
          "With --shard-fault snapshot-skew or stale-prepared-read: how \
           far behind the snapshot a lying shard may serve from.")

let shard_fault =
  Arg.(
    value & opt_all string []
    & info [ "shard-fault" ] ~docv:"FAULT"
        ~doc:
          "Plant a named sharding fault (repeatable): fractured-commit, \
           commit-after-abort, snapshot-skew, stale-prepared-read.  These \
           make the commit protocol lie (definite violations), unlike the \
           environmental --shard-drop/--shard-partition faults and \
           --shard-coord-crash-at crashes, which only degrade the verdict \
           honestly.")

let repl_per_shard =
  Arg.(
    value & opt int 0
    & info [ "repl-per-shard" ] ~docv:"M"
        ~doc:
          "Run every shard group as a primary/follower replica set with \
           $(docv) replicas (0 disables; requires --shards).  Each \
           shard's committed decision feed ships to its own cluster over \
           a derived faulty link.  Honest failovers are lossless at the \
           group level — the coordinator's decision log backfills the \
           truncated suffix — so only the planted --shard-repl-fault \
           lies can change the verdict.")

let shard_failover_at =
  Arg.(
    value & opt_all shard_crash_conv []
    & info [ "shard-failover-at" ] ~docv:"SHARD:AT"
        ~doc:
          "Fail shard SHARD's primary over to a replica at simulated \
           instant AT (repeatable; requires --repl-per-shard).  The \
           shard's store rebuilds from the survivor prefix its replica \
           set kept and the coordinator re-ships the rest.")

let shard_repl_fault =
  Arg.(
    value & opt_all string []
    & info [ "shard-repl-fault" ] ~docv:"FAULT"
        ~doc:
          "Plant a named replication fault inside every shard's replica \
           set (repeatable): promote-lagging or lose-acked-window make a \
           failed-over shard claim a clean rebuild over a shorter one, \
           silently losing committed cross-shard work — a definite CR \
           violation on the global trace.")

let shard_repl_drop =
  Arg.(
    value & opt (some float) None
    & info [ "shard-repl-drop" ] ~docv:"P"
        ~doc:
          "Override the drop probability of the per-shard replication \
           links (requires --repl-per-shard).  By default the replica \
           sets reuse the shard wire's fault rates; this decouples them, \
           so a healthy 2PC wire can feed clusters whose followers lag \
           arbitrarily — the shape that makes the claim-clean \
           --shard-repl-fault lies bite.")


(* The parsed values, closed over: [checks] holds every validation in
   flag order, [build] the construction, run only once they all pass. *)
type t = {
  dbms : string;
  level : string;
  chaos_rates : float list;
  checks : Cli_validate.error option list;
  build :
    unit -> (Run.config * Leopard.Il_profile.t, Cli_validate.error) result;
}

let lookup ~flag of_string name =
  Option.to_result
    ~none:{ Cli_validate.flag; msg = Printf.sprintf "unknown name %S" name }
    (of_string name)

(* An index into a plane that may be off: with [--shards 0] every
   [--shard-crash] names a shard that does not exist. *)
let in_range ~flag ~what ?(all = false) n i =
  if (i >= 0 && i < n) || (all && i = -1) then None
  else
    Some
      {
        Cli_validate.flag;
        msg =
          Printf.sprintf "%s %d out of range [0, %d)%s" what i n
            (if all then " (-1 for all)" else "");
      }

let verifier_profile ~dbms level =
  let name =
    Printf.sprintf "%s/%s" dbms (Minidb.Isolation.level_to_string level)
  in
  Option.to_result
    ~none:
      {
        Cli_validate.flag = "--dbms/--isolation";
        msg = "no verification profile " ^ name;
      }
    (Leopard.Il_profile.find name)

let ( let* ) = Result.bind

let repl_fault_names =
  List.map Leopard_replication.Repl_fault.to_string
    Leopard_replication.Repl_fault.all

(* One parameter per flag, in [term]'s order. *)
let make workload dbms level faults clients txns seed max_retries chaos_crash
    chaos_drop chaos_dup chaos_delay chaos_delay_ns chaos_skew_ns chaos_seed
    net_enabled net_delay net_delay_ns net_drop net_dup net_reorder
    net_reorder_ns net_reset net_seed net_timeout_ns net_max_tries net_queue_cap
    net_session_timeout_ns wal crash_at wal_torn wal_lost wal_reorder wal_dup
    wal_window wal_seed repl_followers repl_ack repl_hop_ns repl_drop repl_dup
    repl_delay repl_delay_ns repl_reorder repl_reorder_ns repl_seed
    repl_partitions repl_lags repl_failover_at repl_promote repl_election_ns
    repl_split_brain_ns repl_gate_ns repl_retransmit_ns repl_max_retransmits
    repl_read_prob repl_staleness_ns repl_faults shards shard_hop_ns shard_drop
    shard_dup shard_delay shard_delay_ns shard_reorder shard_reorder_ns
    shard_reset shard_seed shard_partitions shard_crashes shard_coord_crash_at
    shard_prepare_ns shard_retransmit_ns shard_max_retransmits shard_skew_ns
    shard_faults repl_per_shard shard_failovers shard_repl_faults
    shard_repl_drop =
  let chaos_rates = [ chaos_crash; chaos_drop; chaos_dup; chaos_delay ] in
  let checks =
    let open Cli_validate in
    [
      positive ~flag:"--clients" clients;
      positive ~flag:"--txns" txns;
      non_negative ~flag:"--max-retries" max_retries;
    ]
    @ List.map
        (choice ~flag:"--fault"
           ~known:(List.map Minidb.Fault.to_string Minidb.Fault.all))
        faults
    @ [
        prob ~flag:"--chaos-crash" chaos_crash;
        prob ~flag:"--chaos-drop" chaos_drop;
        prob ~flag:"--chaos-dup" chaos_dup;
        prob ~flag:"--chaos-delay" chaos_delay;
        non_negative ~flag:"--chaos-delay-ns" chaos_delay_ns;
        non_negative ~flag:"--chaos-skew-ns" chaos_skew_ns;
        crash_schedule ~flag:"--crash-at" crash_at;
        prob ~flag:"--wal-fault-torn" wal_torn;
        prob ~flag:"--wal-fault-lost-fsync" wal_lost;
        prob ~flag:"--wal-fault-reorder" wal_reorder;
        prob ~flag:"--wal-fault-dup" wal_dup;
        positive ~flag:"--wal-fault-window" wal_window;
        prob ~flag:"--net-fault-delay" net_delay;
        non_negative ~flag:"--net-fault-delay-ns" net_delay_ns;
        prob ~flag:"--net-fault-drop" net_drop;
        prob ~flag:"--net-fault-dup" net_dup;
        prob ~flag:"--net-fault-reorder" net_reorder;
        non_negative ~flag:"--net-fault-reorder-ns" net_reorder_ns;
        prob ~flag:"--net-fault-reset" net_reset;
        positive ~flag:"--net-timeout-ns" net_timeout_ns;
        positive ~flag:"--net-max-tries" net_max_tries;
        positive ~flag:"--net-queue-cap" net_queue_cap;
        positive ~flag:"--net-session-timeout-ns" net_session_timeout_ns;
        non_negative ~flag:"--repl" repl_followers;
        choice ~flag:"--repl-ack" ~known:[ "sync"; "async" ] repl_ack;
        non_negative ~flag:"--repl-hop-ns" repl_hop_ns;
        prob ~flag:"--repl-drop" repl_drop;
        prob ~flag:"--repl-dup" repl_dup;
        prob ~flag:"--repl-delay" repl_delay;
        non_negative ~flag:"--repl-delay-ns" repl_delay_ns;
        prob ~flag:"--repl-reorder" repl_reorder;
        non_negative ~flag:"--repl-reorder-ns" repl_reorder_ns;
        crash_schedule ~flag:"--repl-failover-at" repl_failover_at;
        positive ~flag:"--repl-election-ns" repl_election_ns;
        positive ~flag:"--repl-split-brain-ns" repl_split_brain_ns;
        positive ~flag:"--repl-gate-timeout-ns" repl_gate_ns;
        positive ~flag:"--repl-retransmit-ns" repl_retransmit_ns;
        positive ~flag:"--repl-max-retransmits" repl_max_retransmits;
        prob ~flag:"--repl-read-prob" repl_read_prob;
        positive ~flag:"--repl-staleness-ns" repl_staleness_ns;
        shard_count ~flag:"--shards" shards;
        non_negative ~flag:"--shard-hop-ns" shard_hop_ns;
        prob ~flag:"--shard-drop" shard_drop;
        prob ~flag:"--shard-dup" shard_dup;
        prob ~flag:"--shard-delay" shard_delay;
        non_negative ~flag:"--shard-delay-ns" shard_delay_ns;
        prob ~flag:"--shard-reorder" shard_reorder;
        non_negative ~flag:"--shard-reorder-ns" shard_reorder_ns;
        prob ~flag:"--shard-reset" shard_reset;
        crash_schedule ~flag:"--shard-coord-crash-at" shard_coord_crash_at;
        positive ~flag:"--shard-prepare-timeout-ns" shard_prepare_ns;
        positive ~flag:"--shard-retransmit-ns" shard_retransmit_ns;
        non_negative ~flag:"--shard-max-retransmits" shard_max_retransmits;
        non_negative ~flag:"--shard-skew-bound-ns" shard_skew_ns;
        non_negative ~flag:"--repl-per-shard" repl_per_shard;
        prob ~flag:"--shard-repl-drop"
          (Option.value ~default:0.0 shard_repl_drop);
      ]
    @ List.map (choice ~flag:"--repl-fault" ~known:repl_fault_names) repl_faults
    @ List.map (window ~flag:"--repl-partition") repl_partitions
    @ List.concat_map
        (fun (follower, from_ns, until_ns) ->
          [
            window ~flag:"--repl-lag" (from_ns, until_ns);
            in_range ~flag:"--repl-lag" ~what:"follower" repl_followers
              follower;
          ])
        repl_lags
    @ List.map
        (choice ~flag:"--shard-fault"
           ~known:
             (List.map Leopard_shard.Shard_fault.to_string
                Leopard_shard.Shard_fault.all))
        shard_faults
    @ List.concat_map
        (fun (s, from_ns, until_ns) ->
          [
            window ~flag:"--shard-partition" (from_ns, until_ns);
            in_range ~flag:"--shard-partition" ~what:"shard" ~all:true
              shards s;
          ])
        shard_partitions
    @ List.concat_map
        (fun (s, at) ->
          [
            positive ~flag:"--shard-crash" at;
            in_range ~flag:"--shard-crash" ~what:"shard" shards s;
          ])
        shard_crashes
    @ List.concat_map
        (fun (s, at) ->
          [
            positive ~flag:"--shard-failover-at" at;
            in_range ~flag:"--shard-failover-at" ~what:"shard" shards s;
          ])
        shard_failovers
    @ List.map
        (choice ~flag:"--shard-repl-fault" ~known:repl_fault_names)
        shard_repl_faults
  in
  let build () =
    let* spec =
      lookup ~flag:"--workload" Leopard_workload.Catalog.find workload
    in
    let* profile = lookup ~flag:"--dbms" Minidb.Profile.find dbms in
    let* level =
      lookup ~flag:"--isolation" Minidb.Isolation.level_of_string level
    in
    let* () =
      if Minidb.Profile.supports profile level then Ok ()
      else
        Error
          {
            Cli_validate.flag = "--isolation";
            msg =
              Printf.sprintf "%s does not offer %s; available rows:\n%s" dbms
                (Minidb.Isolation.level_to_string level)
                (Minidb.Profile.fig1_matrix ());
          }
    in
    let* il = verifier_profile ~dbms level in
    let chaos =
      let cfg =
        Chaos.config ~seed:chaos_seed ~crash_prob:chaos_crash
          ~drop_prob:chaos_drop ~dup_prob:chaos_dup ~delay_prob:chaos_delay
          ~max_delay_ns:chaos_delay_ns ~clock_skew_ns:chaos_skew_ns ()
      in
      if Chaos.is_disabled cfg then None else Some cfg
    in
    let net =
      let fault =
        Leopard_net.Faulty_link.config ~seed:net_seed ~delay_prob:net_delay
          ~max_delay_ns:net_delay_ns ~drop_prob:net_drop ~dup_prob:net_dup
          ~reorder_prob:net_reorder ~reorder_window_ns:net_reorder_ns
          ~reset_prob:net_reset ()
      in
      (* any nonzero fault rate implies the wire, like the chaos plane;
         --net alone gives the zero-fault (byte-identical) wire *)
      if net_enabled || not (Leopard_net.Faulty_link.is_disabled fault) then
        Some
          (Run.net_config ~fault
             ~client:
               (Leopard_net.Client.config ~request_timeout_ns:net_timeout_ns
                  ~max_tries:net_max_tries ())
             ~queue_capacity:net_queue_cap
             ~session_timeout_ns:net_session_timeout_ns ())
      else None
    in
    let wal_faults =
      let cfg =
        Minidb.Wal.fault_cfg ~seed:wal_seed ~torn_tail_prob:wal_torn
          ~lost_fsync_prob:wal_lost ~lost_fsync_window:wal_window
          ~reordered_flush_prob:wal_reorder ~dup_replay_prob:wal_dup ()
      in
      if Minidb.Wal.faults_disabled cfg then None else Some cfg
    in
    let repl =
      if repl_followers = 0 then None
      else
        let partitions =
          List.map
            (fun (from_ns, until_ns) ->
              { Leopard_replication.Cluster.follower = -1; from_ns; until_ns })
            repl_partitions
          @ List.map
              (fun (follower, from_ns, until_ns) ->
                { Leopard_replication.Cluster.follower; from_ns; until_ns })
              repl_lags
        in
        let cluster =
          Leopard_replication.Cluster.config ~followers:repl_followers
            ~ack_mode:
              (Option.value ~default:Leopard_replication.Cluster.Sync
                 (Leopard_replication.Cluster.ack_mode_of_string repl_ack))
            ~hop_ns:repl_hop_ns
            ~link:
              (Leopard_net.Faulty_link.config ~seed:repl_seed
                 ~delay_prob:repl_delay ~max_delay_ns:repl_delay_ns
                 ~drop_prob:repl_drop ~dup_prob:repl_dup
                 ~reorder_prob:repl_reorder ~reorder_window_ns:repl_reorder_ns
                 ())
            ~partitions ~gate_timeout_ns:repl_gate_ns
            ~retransmit_ns:repl_retransmit_ns
            ~max_retransmits:repl_max_retransmits
            ~follower_read_prob:repl_read_prob
            ~staleness_bound_ns:repl_staleness_ns
            ~faults:
              (List.filter_map Leopard_replication.Repl_fault.of_string
                 repl_faults)
            ~seed:repl_seed ()
        in
        Some
          (Run.repl_config ~failover_at:repl_failover_at
             ~promote_on_partition:repl_promote
             ~election_timeout_ns:repl_election_ns
             ~split_brain_ns:repl_split_brain_ns cluster)
    in
    (* plane-composition matrix: which fault planes may run together
       (and which flag the conflict blames) lives in [Cli_validate].
       Checked before the shard config is built — the constructors
       assert the same invariants, and a violated composition must be a
       one-line usage error, not an assertion failure. *)
    let* () =
      match
        Cli_validate.composition
          {
            Cli_validate.net = Option.is_some net;
            repl = Option.is_some repl;
            shards = shards <> 0;
            repl_per_shard;
            shard_failovers = not (List.is_empty shard_failovers);
            shard_repl_drop = Option.is_some shard_repl_drop;
          }
      with
      | Some e -> Error e
      | None -> Ok ()
    in
    let shard =
      if shards = 0 then None
      else
        let link =
          Leopard_net.Faulty_link.config ~seed:shard_seed
            ~delay_prob:shard_delay ~max_delay_ns:shard_delay_ns
            ~drop_prob:shard_drop ~dup_prob:shard_dup
            ~reorder_prob:shard_reorder ~reorder_window_ns:shard_reorder_ns
            ~reset_prob:shard_reset ()
        in
        let group =
          Leopard_shard.Group.config ~shards ~hop_ns:shard_hop_ns
            ~link
            ~partitions:
              (List.map
                 (fun (shard, from_ns, until_ns) ->
                   { Leopard_shard.Group.shard; from_ns; until_ns })
                 shard_partitions)
            ~prepare_timeout_ns:shard_prepare_ns
            ~retransmit_ns:shard_retransmit_ns
            ~max_retransmits:shard_max_retransmits
            ~skew_bound_ns:shard_skew_ns
            ~faults:
              (List.filter_map Leopard_shard.Shard_fault.of_string
                 shard_faults)
            ?wal_faults ()
        in
        let stack =
          if repl_per_shard = 0 then None
          else
            (* the per-shard replica sets reuse the shard wire's fault
               rates and hop unless --shard-repl-drop decouples them;
               Stack derives a distinct link seed per shard so no
               cluster shares a stream with the protocol *)
            let stack_link =
              match shard_repl_drop with
              | None -> link
              | Some drop_prob ->
                Leopard_net.Faulty_link.config ~seed:shard_seed
                  ~delay_prob:shard_delay ~max_delay_ns:shard_delay_ns
                  ~drop_prob ~dup_prob:shard_dup ~reorder_prob:shard_reorder
                  ~reorder_window_ns:shard_reorder_ns
                  ~reset_prob:shard_reset ()
            in
            Some
              (Leopard_compose.Stack.config ~followers:repl_per_shard
                 ~hop_ns:shard_hop_ns ~link:stack_link
                 ~retransmit_ns:shard_retransmit_ns
                 ~max_retransmits:shard_max_retransmits
                 ~faults:
                   (List.filter_map Leopard_replication.Repl_fault.of_string
                      shard_repl_faults)
                 ~seed:shard_seed ())
        in
        let swap (s, at) = (at, s) in
        Some
          (Run.shard_config ~coord_crash_at:shard_coord_crash_at
             ~part_crash_at:(List.map swap shard_crashes)
             ?stack
             ~shard_failover_at:(List.map swap shard_failovers)
             group)
    in
    let faults =
      Minidb.Fault.Set.of_list (List.filter_map Minidb.Fault.of_string faults)
    in
    Ok
      ( Run.config ~clients ~seed ~faults ?chaos ?net ~max_retries ~wal
          ~crash_at ?wal_faults ?repl ?shard ~spec ~profile ~level
          ~stop:(Run.Txn_count txns) (),
        il )
  in
  { dbms; level; chaos_rates; checks; build }

let term =
  Term.(
    const make $ workload $ dbms $ level $ faults $ clients $ txns $ seed
    $ max_retries $ chaos_crash $ chaos_drop $ chaos_dup $ chaos_delay
    $ chaos_delay_ns $ chaos_skew_ns $ chaos_seed $ net_flag $ net_fault_delay
    $ net_fault_delay_ns $ net_fault_drop $ net_fault_dup $ net_fault_reorder
    $ net_fault_reorder_ns $ net_fault_reset $ net_fault_seed $ net_timeout_ns
    $ net_max_tries $ net_queue_cap $ net_session_timeout_ns $ wal_flag
    $ crash_at $ wal_fault_torn $ wal_fault_lost $ wal_fault_reorder
    $ wal_fault_dup $ wal_fault_window $ wal_fault_seed $ repl_followers
    $ repl_ack $ repl_hop_ns $ repl_drop $ repl_dup $ repl_delay
    $ repl_delay_ns $ repl_reorder $ repl_reorder_ns $ repl_seed
    $ repl_partition $ repl_lag $ repl_failover_at $ repl_promote_on_partition
    $ repl_election_ns $ repl_split_brain_ns $ repl_gate_timeout_ns
    $ repl_retransmit_ns $ repl_max_retransmits $ repl_read_prob
    $ repl_staleness_ns $ repl_fault $ shards_count $ shard_hop_ns $ shard_drop
    $ shard_dup $ shard_delay $ shard_delay_ns $ shard_reorder
    $ shard_reorder_ns $ shard_reset $ shard_seed $ shard_partition
    $ shard_crash $ shard_coord_crash_at $ shard_prepare_timeout_ns
    $ shard_retransmit_ns $ shard_max_retransmits $ shard_skew_bound_ns
    $ shard_fault $ repl_per_shard $ shard_failover_at $ shard_repl_fault
    $ shard_repl_drop)

(* Every cmdliner evaluation renders the default of its built-in --help
   option into [Format.str_formatter] and reads it back with
   [Format.flush_str_formatter].  The first is a plain value, the main
   domain's formatter; the second flushes the calling domain's own.  On
   a spawned domain the text ("auto") therefore stays behind in the
   main domain's buffer, where the next [flush_str_formatter] there
   returns it, and concurrent evaluations race on that formatter's
   queue.  Hence evaluations run on the main domain only. *)
let parse args =
  if not (Domain.is_main_domain ()) then
    invalid_arg "Flags.parse: call on the main domain";
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  match
    Cmd.eval_value ~help:ppf ~err:ppf ~env:(fun _ -> None)
      ~argv:(Array.of_list ("leopard" :: args))
      (Cmd.v (Cmd.info "leopard") term)
  with
  | Ok (`Ok t) -> Ok t
  | Ok (`Help | `Version) | Error _ ->
    Format.pp_print_flush ppf ();
    Error (String.trim (Buffer.contents buf))

let validate t = Cli_validate.first_error t.checks

let config t =
  match validate t with Some e -> Error e | None -> t.build ()

let verifier t =
  let* level =
    lookup ~flag:"--isolation" Minidb.Isolation.level_of_string t.level
  in
  verifier_profile ~dbms:t.dbms level

let dbms t = t.dbms
let chaos_rates t = t.chaos_rates
