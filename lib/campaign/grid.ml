(* Declarative campaign grids.

   A grid is pure data; [cells] is a pure function of it.  Per-cell seeds
   come from Rng.derive (SplitMix64 positional derivation), so cell N of
   campaign seed S is the same run whether it executes first on a worker
   domain, last in a serial sweep, or standalone from the CLI line this
   module renders — that positional independence is the foundation of the
   serial/parallel byte-identity guarantee and of citable failures. *)

type expect = Pass | Fail | Any | Crash | Stall

let expect_to_string = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Any -> "any"
  | Crash -> "crash"
  | Stall -> "stall"

type clazz = {
  cname : string;
  workload : string;
  level : Minidb.Isolation.level;
  txns : int;
  clients : int;
  flags : string list;
  expect : expect;
}

type t = {
  campaign_seed : int;
  seeds_per_class : int;
  classes : clazz list;
}

type cell = { index : int; seed : int; clazz : clazz }

let clazz ?(level = Minidb.Isolation.Snapshot_isolation) ?(txns = 600)
    ?(clients = 8) ~workload ~expect cname flags =
  let flags = List.filter (( <> ) "") (String.split_on_char ' ' flags) in
  { cname; workload; level; txns; clients; flags; expect }

(* {2 The line}

   A cell is defined by its reproducer line: the runner parses [args]
   through the same flag mapping as the CLI, so the printed line
   replays the cell by construction.  Every fault-plane stream seed is
   derived from the cell seed at index 1; each plane reads only its own
   seed flag, so the planes of one cell still draw from independent
   streams, and the seed flag of a plane that is off is inert. *)

let base ?seed c =
  [
    "-w"; c.workload; "-d"; "postgresql"; "-i";
    String.lowercase_ascii (Minidb.Isolation.level_to_string c.level);
    "--txns"; string_of_int c.txns; "--clients"; string_of_int c.clients;
  ]
  @ match seed with Some s -> [ "--seed"; string_of_int s ] | None -> []

let stream_seed_flags =
  [
    "--chaos-seed"; "--net-fault-seed"; "--wal-fault-seed"; "--repl-seed";
    "--shard-seed";
  ]

let args cell =
  let stream =
    string_of_int (Leopard_util.Rng.derive ~seed:cell.seed ~index:1)
  in
  base ~seed:cell.seed cell.clazz
  @ cell.clazz.flags
  @ List.concat_map (fun flag -> [ flag; stream ]) stream_seed_flags

let cli_line cell =
  match cell.clazz.expect with
  | Crash | Stall ->
    Printf.sprintf
      "# self-test cell %d (campaign machinery only; no standalone CLI \
       equivalent)"
      cell.index
  | Pass | Fail | Any -> String.concat " " ("leopard" :: args cell)

let describe c =
  Printf.sprintf "%s (expect %s): leopard %s" c.cname
    (expect_to_string c.expect)
    (String.concat " " (base c @ c.flags))

(* Checkpoints compare this, so it must depend on every parameter that
   changes what a cell runs. *)
let fingerprint g =
  let canon =
    Printf.sprintf "leopard-campaign;seed=%d;seeds-per-class=%d;%s"
      g.campaign_seed g.seeds_per_class
      (String.concat ";" (List.map describe g.classes))
  in
  Leopard_util.Fnv.hex canon

(* {2 Construction / expansion} *)

let make ?(campaign_seed = 42) ?(seeds_per_class = 1) classes =
  if classes = [] then invalid_arg "Grid.make: no classes";
  if seeds_per_class <= 0 then
    invalid_arg "Grid.make: seeds_per_class must be positive";
  let seen = ref [] in
  List.iter
    (fun c ->
      if c.txns <= 0 || c.clients <= 0 then
        invalid_arg (Printf.sprintf "Grid.make: %s: non-positive size" c.cname);
      if not (List.mem c.workload Leopard_workload.Catalog.names) then
        invalid_arg
          (Printf.sprintf "Grid.make: %s: unknown workload %s" c.cname
             c.workload);
      if List.mem c.cname !seen then
        invalid_arg (Printf.sprintf "Grid.make: duplicate class %s" c.cname);
      seen := c.cname :: !seen)
    classes;
  { campaign_seed; seeds_per_class; classes }

let cell_count g = List.length g.classes * g.seeds_per_class

let cells g =
  let classes = Array.of_list g.classes in
  Array.init (cell_count g) (fun index ->
      let clazz = classes.(index / g.seeds_per_class) in
      let seed = Leopard_util.Rng.derive ~seed:g.campaign_seed ~index in
      { index; seed; clazz })

let scale ~txns ~clients c =
  if txns <= 0 || clients <= 0 then invalid_arg "Grid.scale: non-positive";
  { c with txns; clients }

(* {2 Presets}

   The [soak-*] classes are the fault-plane soak that CI sweeps: one
   class per honest plane or composition and per planted fault, at 400
   transactions (stale-prepared-read runs the [shard-*] classes'
   800-transaction, 16-client shape).  The [honest-*] classes sample
   each plane on another workload; the [planted-*] cells use
   engine-level faults whose conviction is workload-driven rather than
   environment-driven, so they convict across the whole seed range.

   The [net-*], [repl-*], [shard-*] and [stack-*] classes are the fault
   planes' tables: one class per fault class of a plane, at one shape
   per plane.  Honest classes expect pass; planted lies and WAL damage
   expect any, since whether the workload leaves a witness depends on
   the seed.  Their fault instants are literals: fractions (d/3, d/2,
   ...) of the simulated duration d of an unfaulted run of the same
   shape at the plane's calibration seed. *)

let soak ?(workload = "smallbank") ~expect name flags =
  clazz name ~workload ~txns:400 ~expect flags

(* The client wire, 3,000 SmallBank transactions from 16 clients: its
   faults only ever degrade the verdict.  At equal seeds net-wire-clean
   is byte-identical to net-in-process (test_net.ml). *)
let net =
  List.map
    (fun (name, flags) ->
      clazz ("net-" ^ name) ~workload:"smallbank" ~txns:3_000 ~clients:16
        ~expect:Pass flags)
    [
      ("in-process", "");
      ("wire-clean", "--net");
      ("wire-delay", "--net-fault-delay 0.1");
      ("wire-drop", "--net-fault-drop 0.05");
      ("wire-dup", "--net-fault-dup 0.05");
      ("wire-reorder", "--net-fault-reorder 0.05");
      ("wire-reset", "--net-fault-reset 0.05");
    ]

(* Replication, 800 transactions from 16 clients, every fault class
   under both ack modes; d = 23976571 (smallbank) and 19455069
   (hot-rmw) at seed 211.  Honest faults (partitions, failovers, gate
   timeouts) only ever degrade to Inconclusive; the planted faults
   (promote-lag, lose-acked, stale-read, split-brain) convict wherever
   the workload leaves an observable contradiction.  Sync ack under
   long hops trades planted-fault detection for ambiguity: gates time
   out before the lie becomes provable.  stale-read and split-brain run
   on hot-rmw, whose four hot cells are revisited often enough that a
   lying replica set leaves a witness. *)
let repl =
  clazz "repl-single-node" ~workload:"smallbank" ~txns:800 ~clients:16
    ~expect:Pass ""
  :: List.concat_map
       (fun ack ->
         List.map
           (fun (name, workload, expect, flags) ->
             clazz
               (Printf.sprintf "repl-%s-%s" ack name)
               ~workload ~txns:800 ~clients:16 ~expect
               (flags ^ " --repl-ack " ^ ack))
           [
             ("clean", "smallbank", Pass, "--repl 1");
             ("hop", "smallbank", Pass, "--repl 1 --repl-hop-ns 20000");
             ( "lossy-link", "smallbank", Pass,
               "--repl 1 --repl-hop-ns 20000 --repl-drop 0.05 --repl-dup 0.05"
             );
             ( "failover", "smallbank", Pass,
               "--repl 1 --repl-hop-ns 239765 --repl-gate-timeout-ns 2397657 \
                --repl-partition 7992190:15984380 --repl-promote-on-partition \
                --repl-election-ns 1198828" );
             ( "promote-lag", "smallbank", Any,
               "--repl 2 --repl-hop-ns 239765 --repl-lag 1:1:23976571 \
                --repl-failover-at 11988285 --repl-fault promote-lagging" );
             ( "lose-acked", "smallbank", Any,
               "--repl 1 --repl-hop-ns 5994142 --repl-failover-at 11988285 \
                --repl-fault lose-acked-window" );
             ( "stale-read", "hot-rmw", Any,
               "--repl 1 --repl-hop-ns 1945506 --repl-read-prob 0.8 \
                --repl-staleness-ns 19455069 --repl-fault stale-follower-read"
             );
             ( "split-brain", "hot-rmw", Any,
               "--repl 2 --repl-failover-at 9727534 --repl-split-brain-ns \
                6485023 --repl-fault split-brain" );
           ])
       [ "sync"; "async" ]

(* Sharding, 800 transactions from 16 clients; d = 23690996 (smallbank)
   and 19403012 (cross-rmw) at seed 307.  Its unsharded baseline is
   repl-single-node.  Environmental classes (hop, lossy-link,
   partition, coord-crash) only ever degrade to Inconclusive: an honest
   coordinator crash orphans its undecided rounds into the
   coordinator-ambiguity channel.  The planted lies (these three and
   soak-shard-stale-prep) convict wherever the workload leaves an
   observable contradiction; they run on cross-rmw, one hot row on each
   shard with half the transactions touching both, so the damaged rows
   are revisited. *)
let shard =
  List.map
    (fun (name, workload, expect, flags) ->
      clazz ("shard-" ^ name) ~workload ~txns:800 ~clients:16 ~expect flags)
    [
      ("clean", "smallbank", Pass, "--shards 3");
      ("hop", "smallbank", Pass, "--shards 3 --shard-hop-ns 20000");
      ( "lossy-link", "smallbank", Pass,
        "--shards 3 --shard-hop-ns 20000 --shard-drop 0.05 --shard-dup 0.05"
      );
      ( "partition", "smallbank", Pass,
        "--shards 3 --shard-hop-ns 236909 --shard-prepare-timeout-ns 2369099 \
         --shard-retransmit-ns 473819 --shard-partition 1:7896998:15793997" );
      ( "coord-crash", "smallbank", Pass,
        "--shards 2 --shard-hop-ns 236909 --shard-prepare-timeout-ns 1184549 \
         --shard-retransmit-ns 473819 --shard-drop 0.1 \
         --shard-coord-crash-at 11845498" );
      ( "fractured-commit", "cross-rmw", Any,
        "--shards 2 --shard-hop-ns 194030 --shard-prepare-timeout-ns 1940301 \
         --shard-retransmit-ns 388060 --shard-drop 0.05 \
         --shard-coord-crash-at 4850753 --shard-coord-crash-at 9701506 \
         --shard-coord-crash-at 14552259 --shard-fault fractured-commit" );
      ( "commit-after-abort", "cross-rmw", Any,
        "--shards 2 --shard-hop-ns 9701 --shard-prepare-timeout-ns 388060 \
         --shard-retransmit-ns 97015 --shard-drop 0.3 --shard-fault \
         commit-after-abort" );
      ( "snapshot-skew", "cross-rmw", Any,
        "--shards 2 --shard-hop-ns 970150 --shard-skew-bound-ns 19403012 \
         --shard-prepare-timeout-ns 3880602 --shard-retransmit-ns 970150 \
         --shard-fault snapshot-skew" );
    ]

(* Stacked planes, every shard a full minidb (WAL + replica set), on
   cross-rmw; d = 14667548 (16 clients, 600 txns) and 7996173 (the
   sparse shape: 4 clients, 80 txns), seed 413.  Honest stacked classes
   (replication hops, lagging replicas, lossless failovers) at worst
   degrade to Inconclusive: an honest failover re-acks the survivor
   prefix and the coordinator backfills the rest; stack-chaos adds WAL
   damage, which may convict.  The planted lies (promote-lagging inside
   one shard's replica set, fractured-commit on a just-failed-over
   primary) convict wherever the workload leaves a witness; the
   fracture runs the sparse shape because at full density the spliced
   slice is overwritten before any read can observe the hole. *)
let stack =
  List.map
    (fun (name, expect, flags) ->
      clazz ("stack-" ^ name) ~workload:"cross-rmw" ~txns:600 ~clients:16
        ~expect flags)
    [
      ("unstacked", Pass, "");
      ("clean", Pass, "--shards 3 --repl-per-shard 2");
      ("repl-hop", Pass, "--shards 3 --repl-per-shard 2 --shard-hop-ns 20000");
      ( "lagging-replicas", Pass,
        "--shards 2 --repl-per-shard 2 --shard-hop-ns 20000 \
         --shard-repl-drop 0.5" );
      ( "honest-failover", Pass,
        "--shards 2 --repl-per-shard 2 --shard-hop-ns 73337 \
         --shard-repl-drop 0.3 --shard-failover-at 0:7333774 \
         --shard-failover-at 1:11000661" );
      ( "chaos", Any,
        "--shards 2 --repl-per-shard 2 --shard-hop-ns 146675 \
         --shard-prepare-timeout-ns 1466754 --shard-retransmit-ns 293350 \
         --shard-repl-drop 0.3 --shard-coord-crash-at 4889182 \
         --shard-crash 1:3666887 --shard-failover-at 0:7333774 \
         --shard-failover-at 1:11000661 --wal-fault-torn 0.4 \
         --wal-fault-lost-fsync 0.3 --wal-fault-window 3 --wal-fault-dup 0.2"
      );
      ( "promote-lagging", Any,
        "--shards 2 --repl-per-shard 2 --shard-repl-drop 1 \
         --shard-failover-at 0:7333774 --shard-repl-fault promote-lagging" );
    ]
  @ [
      clazz "stack-failover-fracture" ~workload:"cross-rmw" ~txns:80
        ~clients:4 ~expect:Any
        "--shards 2 --repl-per-shard 2 --shard-hop-ns 79961 \
         --shard-retransmit-ns 159923 --shard-repl-drop 0.3 \
         --shard-failover-at 0:3998086 --shard-failover-at 1:5330782 \
         --shard-fault fractured-commit";
    ]

let presets =
  List.map
    (fun c -> (c.cname, c))
    ([
      clazz "honest-baseline" ~workload:"ycsb" ~expect:Pass "";
      clazz "honest-chaos" ~workload:"ycsb+t" ~expect:Pass
        "--chaos-crash 0.003 --chaos-drop 0.02 --chaos-dup 0.02 \
         --chaos-delay 0.05";
      (* WAL damage is the one honest plane allowed to convict: a lost
         fsync can resurrect an overwritten value, a genuine provable
         violation of the claimed guarantee (same policy as
         soak-faulty-wal) — hence Any, not Pass. *)
      clazz "honest-recovery" ~workload:"smallbank" ~expect:Any
        "--max-retries 3 --crash-at 2000000 --crash-at 5000000 \
         --wal-fault-torn 0.1 --wal-fault-lost-fsync 0.3 --wal-fault-dup 0.2";
      clazz "honest-net" ~workload:"tatp" ~expect:Pass
        "--max-retries 2 --net --net-fault-drop 0.05 --net-fault-dup 0.05 \
         --net-fault-reset 0.05 --net-fault-delay 0.05";
      clazz "honest-repl" ~workload:"blindw-rw" ~expect:Pass
        "--repl 2 --repl-ack sync --repl-drop 0.05 --repl-dup 0.05 \
         --repl-hop-ns 20000";
      clazz "honest-repl-failover" ~workload:"blindw-rw+" ~expect:Pass
        "--repl 2 --repl-ack sync --repl-drop 0.05 --repl-hop-ns 20000 \
         --repl-failover-at 3000000";
      clazz "honest-shard" ~workload:"ycsb" ~expect:Pass
        "--shards 3 --shard-hop-ns 2000";
      clazz "honest-shard-faulty" ~workload:"ycsb" ~expect:Pass
        "--shards 2 --shard-drop 0.15 --shard-hop-ns 2000 \
         --shard-coord-crash-at 4000000";
      clazz "honest-stacked" ~workload:"smallbank" ~expect:Pass
        "--shards 2 --repl-per-shard 2 --shard-hop-ns 2000 \
         --shard-failover-at 0:3000000";
      clazz "planted-stale-read" ~workload:"ycsb" ~expect:Fail
        "--fault stale-read";
      clazz "planted-dirty-read" ~workload:"ycsb+t" ~txns:1200 ~clients:16
        ~expect:Fail "--fault dirty-read";
      clazz "planted-lost-update" ~workload:"smallbank" ~txns:1200
        ~clients:16 ~expect:Fail "--fault no-fuw";
      clazz "planted-partial-commit" ~workload:"ycsb+t" ~expect:Fail
        "--fault partial-commit";
      (* Every honest plane, alone and composed: no Violation, and every
         cell completes within its step budget. *)
      soak "soak-chaos" ~expect:Pass
        "--chaos-crash 0.003 --chaos-drop 0.02 --chaos-dup 0.02 \
         --chaos-delay 0.05";
      soak "soak-net" ~expect:Pass
        "--net-fault-drop 0.05 --net-fault-dup 0.05 --net-fault-reset 0.05 \
         --net-fault-delay 0.05";
      soak "soak-net-chaos" ~expect:Pass
        "--net-fault-drop 0.03 --net-fault-reset 0.05 --chaos-crash 0.002 \
         --chaos-drop 0.01";
      soak "soak-clean-recovery" ~expect:Pass
        "--crash-at 2000000 --crash-at 5000000 --max-retries 3";
      soak "soak-repl-sync" ~expect:Pass
        "--repl 2 --repl-ack sync --repl-hop-ns 20000 --repl-drop 0.05 \
         --repl-dup 0.05";
      soak "soak-repl-failover" ~expect:Pass
        "--repl 2 --repl-ack async --repl-hop-ns 5000 \
         --repl-partition 2000000:4000000 --repl-promote-on-partition \
         --repl-read-prob 0.3";
      soak "soak-shard-clean" ~expect:Pass "--shards 3";
      soak "soak-shard-coord-crash" ~expect:Pass
        "--shards 2 --shard-hop-ns 20000 --shard-drop 0.15 \
         --shard-coord-crash-at 8000000";
      soak "soak-shard-repl-failover" ~expect:Pass
        "--shards 2 --repl-per-shard 2 --shard-hop-ns 20000 --shard-drop 0.1 \
         --wal --shard-failover-at 0:4000000 --shard-failover-at 1:8000000 \
         --shard-coord-crash-at 12000000";
      (* chaos composed with failover and coordinator crashes: lost and
         orphaned commits must stay marks, never violations *)
      soak "soak-chaos-repl-failover" ~expect:Pass
        "--repl 2 --repl-ack async --repl-hop-ns 5000 \
         --repl-partition 2000000:4000000 --repl-promote-on-partition \
         --repl-read-prob 0.3 --chaos-crash 0.003 --chaos-drop 0.02 \
         --chaos-dup 0.02 --chaos-delay 0.05";
      soak "soak-chaos-coord-crash" ~expect:Pass
        "--shards 2 --shard-hop-ns 20000 --shard-drop 0.15 \
         --shard-coord-crash-at 8000000 --chaos-crash 0.003 \
         --chaos-drop 0.02 --chaos-dup 0.02 --chaos-delay 0.05";
      (* Damaged recoveries, lying promotions and a lying 2PC plane plant
         real violations that a given seed may or may not witness, so
         these expect any: the checker must complete, never crash or
         hang. *)
      soak "soak-faulty-wal" ~expect:Any
        "--crash-at 2000000 --max-retries 3 --wal-fault-lost-fsync 0.6 \
         --wal-fault-dup 0.4";
      soak "soak-repl-lagging" ~expect:Any
        "--repl-ack async --repl-failover-at 3000000 \
         --repl-fault promote-lagging --repl 2 --repl-hop-ns 5000 \
         --repl-lag 1:1:3000000";
      soak "soak-repl-lose-acked" ~expect:Any
        "--repl-ack async --repl-failover-at 3000000 \
         --repl-fault lose-acked-window --repl 1 --repl-hop-ns 1000000";
      (* RMW-heavy workloads keep the cross-shard path dense enough to
         witness the lies *)
      soak "soak-shard-fracture" ~workload:"blindw-rw" ~expect:Any
        "--shards 2 --shard-prepare-timeout-ns 400000 \
         --shard-retransmit-ns 100000 --shard-fault fractured-commit \
         --shard-hop-ns 50000 --shard-drop 0.15 \
         --shard-coord-crash-at 10000000 --shard-coord-crash-at 20000000 \
         --shard-coord-crash-at 30000000 --shard-coord-crash-at 40000000 \
         --shard-coord-crash-at 50000000";
      soak "soak-shard-commit-abort" ~workload:"blindw-rw" ~expect:Any
        "--shards 2 --shard-prepare-timeout-ns 400000 \
         --shard-retransmit-ns 100000 --shard-fault commit-after-abort \
         --shard-hop-ns 200 --shard-drop 0.3";
      soak "soak-shard-snapshot-skew" ~workload:"ycsb" ~expect:Any
        "--shards 2 --shard-prepare-timeout-ns 400000 \
         --shard-retransmit-ns 100000 --shard-fault snapshot-skew \
         --shard-hop-ns 100000 --shard-drop 0.3 \
         --shard-skew-bound-ns 100000000";
      (* the shard-* classes' shape (this is also their
         stale-prepared-read row): at 400 blindw-rw transactions the
         stale read rarely lands where a later read can contradict it *)
      clazz "soak-shard-stale-prep" ~workload:"cross-rmw" ~txns:800
        ~clients:16 ~expect:Any
        "--shards 2 --shard-hop-ns 970150 --shard-skew-bound-ns 19403012 \
         --shard-prepare-timeout-ns 3880602 --shard-retransmit-ns 970150 \
         --shard-coord-crash-at 6467670 --shard-fault stale-prepared-read";
      (* a shard's replica set promotes a lagging follower yet claims a
         clean rebuild (--shard-repl-drop 1.0 keeps the 2PC wire healthy
         while replication delivers nothing), or a just-failed-over
         primary fractures a commit *)
      soak "soak-shard-repl-lagging" ~workload:"blindw-rw" ~expect:Any
        "--shards 2 --repl-per-shard 2 --shard-repl-drop 1.0 \
         --shard-repl-fault promote-lagging --shard-failover-at 0:4000000";
      soak "soak-shard-repl-fracture" ~workload:"blindw-rw" ~expect:Any
        "--shards 2 --repl-per-shard 2 --shard-hop-ns 50000 \
         --shard-drop 0.15 --shard-fault fractured-commit \
         --shard-prepare-timeout-ns 400000 --shard-retransmit-ns 100000 \
         --shard-failover-at 0:4000000 --shard-failover-at 1:8000000";
    ]
    @ net @ repl @ shard @ stack
    @ [
        (* the runner plants a crash in, or removes the stop condition
           of, these two: see Runner *)
        clazz "selftest-crash" ~workload:"ycsb" ~txns:50 ~expect:Crash "";
        clazz "selftest-hang" ~workload:"ycsb" ~txns:50 ~expect:Stall "";
      ])

let preset_names = List.map fst presets
let find_preset name = List.assoc_opt name presets
