(* Declarative campaign grids.

   A grid is pure data; [cells] is a pure function of it.  Per-cell seeds
   come from Rng.derive (SplitMix64 positional derivation), so cell N of
   campaign seed S is the same run whether it executes first on a worker
   domain, last in a serial sweep, or standalone from the CLI line this
   module renders — that positional independence is the foundation of the
   serial/parallel byte-identity guarantee and of citable failures. *)

type plane =
  | Baseline
  | Chaos of { crash : float; drop : float; dup : float; delay : float }
  | Recovery of {
      crash_at : int list;
      torn : float;
      lost_fsync : float;
      dup_replay : float;
    }
  | Net of { drop : float; dup : float; reset : float; delay : float }
  | Repl of {
      followers : int;
      sync : bool;
      drop : float;
      dup : float;
      hop_ns : int;
      failover_at : int list;
    }
  | Shard of {
      shards : int;
      drop : float;
      hop_ns : int;
      coord_crash_at : int list;
    }
  | Stacked of {
      shards : int;
      per_shard : int;
      hop_ns : int;
      failover_at : (int * int) list;
    }
  | Engine_fault of Minidb.Fault.t list
  | Selftest_crash of int
  | Selftest_hang

type expect = Pass | Fail | Any | Crash | Stall

let expect_to_string = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Any -> "any"
  | Crash -> "crash"
  | Stall -> "stall"

let expect_of_string = function
  | "pass" -> Some Pass
  | "fail" -> Some Fail
  | "any" -> Some Any
  | "crash" -> Some Crash
  | "stall" -> Some Stall
  | _ -> None

type clazz = {
  cname : string;
  workload : string;
  level : Minidb.Isolation.level;
  txns : int;
  clients : int;
  max_retries : int;
  plane : plane;
  expect : expect;
}

type t = {
  campaign_seed : int;
  seeds_per_class : int;
  classes : clazz list;
}

type cell = { index : int; seed : int; clazz : clazz }

(* {2 Canonical description / fingerprint} *)

let ints is = String.concat "," (List.map string_of_int is)

let pairs ps =
  String.concat ","
    (List.map (fun (a, b) -> Printf.sprintf "%d:%d" a b) ps)

let plane_to_string = function
  | Baseline -> "baseline"
  | Chaos { crash; drop; dup; delay } ->
    Printf.sprintf "chaos(crash=%g,drop=%g,dup=%g,delay=%g)" crash drop dup
      delay
  | Recovery { crash_at; torn; lost_fsync; dup_replay } ->
    Printf.sprintf "recovery(crash-at=[%s],torn=%g,lost-fsync=%g,dup=%g)"
      (ints crash_at) torn lost_fsync dup_replay
  | Net { drop; dup; reset; delay } ->
    Printf.sprintf "net(drop=%g,dup=%g,reset=%g,delay=%g)" drop dup reset
      delay
  | Repl { followers; sync; drop; dup; hop_ns; failover_at } ->
    Printf.sprintf
      "repl(followers=%d,ack=%s,drop=%g,dup=%g,hop=%d,failover-at=[%s])"
      followers
      (if sync then "sync" else "async")
      drop dup hop_ns (ints failover_at)
  | Shard { shards; drop; hop_ns; coord_crash_at } ->
    Printf.sprintf "shard(shards=%d,drop=%g,hop=%d,coord-crash-at=[%s])"
      shards drop hop_ns (ints coord_crash_at)
  | Stacked { shards; per_shard; hop_ns; failover_at } ->
    Printf.sprintf
      "stacked(shards=%d,per-shard=%d,hop=%d,failover-at=[%s])" shards
      per_shard hop_ns (pairs failover_at)
  | Engine_fault faults ->
    Printf.sprintf "engine-fault(%s)"
      (String.concat "," (List.map Minidb.Fault.to_string faults))
  | Selftest_crash n -> Printf.sprintf "selftest-crash(after=%d)" n
  | Selftest_hang -> "selftest-hang"

let describe c =
  Printf.sprintf "%s: %s@%s txns=%d clients=%d retries=%d %s expect=%s"
    c.cname c.workload
    (Minidb.Isolation.level_to_string c.level)
    c.txns c.clients c.max_retries (plane_to_string c.plane)
    (expect_to_string c.expect)

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

   The honest cells reuse the chaos-soak CI parameters (realistic rates
   that exercise every degradation channel); the planted cells use
   engine-level faults whose conviction is workload-driven rather than
   environment-driven, so they convict across the whole seed range. *)

let si = Minidb.Isolation.Snapshot_isolation

let clazz ?(level = si) ?(txns = 600) ?(clients = 8) ?(max_retries = 0)
    ~workload ~plane ~expect cname =
  { cname; workload; level; txns; clients; max_retries; plane; expect }

let presets =
  [
    ("honest-baseline", clazz "honest-baseline" ~workload:"ycsb"
       ~plane:Baseline ~expect:Pass);
    ("honest-chaos", clazz "honest-chaos" ~workload:"ycsb+t"
       ~plane:(Chaos { crash = 0.003; drop = 0.02; dup = 0.02; delay = 0.05 })
       ~expect:Pass);
    (* WAL damage is the one honest plane allowed to convict: a lost
       fsync can resurrect an overwritten value, a genuine provable
       violation of the claimed guarantee (same policy as the CI
       recovery soak leg) — hence Any, not Pass. *)
    ("honest-recovery", clazz "honest-recovery" ~workload:"smallbank"
       ~max_retries:3
       ~plane:
         (Recovery
            {
              crash_at = [ 2_000_000; 5_000_000 ];
              torn = 0.1;
              lost_fsync = 0.3;
              dup_replay = 0.2;
            })
       ~expect:Any);
    ("honest-net", clazz "honest-net" ~workload:"tatp" ~max_retries:2
       ~plane:(Net { drop = 0.05; dup = 0.05; reset = 0.05; delay = 0.05 })
       ~expect:Pass);
    ("honest-repl", clazz "honest-repl" ~workload:"blindw-rw"
       ~plane:
         (Repl
            {
              followers = 2;
              sync = true;
              drop = 0.05;
              dup = 0.05;
              hop_ns = 20_000;
              failover_at = [];
            })
       ~expect:Pass);
    ("honest-repl-failover", clazz "honest-repl-failover"
       ~workload:"blindw-rw+"
       ~plane:
         (Repl
            {
              followers = 2;
              sync = true;
              drop = 0.05;
              dup = 0.0;
              hop_ns = 20_000;
              failover_at = [ 3_000_000 ];
            })
       ~expect:Pass);
    ("honest-shard", clazz "honest-shard" ~workload:"ycsb"
       ~plane:
         (Shard { shards = 3; drop = 0.0; hop_ns = 2_000; coord_crash_at = [] })
       ~expect:Pass);
    ("honest-shard-faulty", clazz "honest-shard-faulty" ~workload:"ycsb"
       ~plane:
         (Shard
            {
              shards = 2;
              drop = 0.15;
              hop_ns = 2_000;
              coord_crash_at = [ 4_000_000 ];
            })
       ~expect:Pass);
    ("honest-stacked", clazz "honest-stacked" ~workload:"smallbank"
       ~plane:
         (Stacked
            {
              shards = 2;
              per_shard = 2;
              hop_ns = 2_000;
              failover_at = [ (3_000_000, 0) ];
            })
       ~expect:Pass);
    ("planted-stale-read", clazz "planted-stale-read" ~workload:"ycsb"
       ~plane:(Engine_fault [ Minidb.Fault.Stale_read ]) ~expect:Fail);
    ("planted-dirty-read", clazz "planted-dirty-read" ~workload:"ycsb+t"
       ~txns:1200 ~clients:16
       ~plane:(Engine_fault [ Minidb.Fault.Dirty_read ]) ~expect:Fail);
    ("planted-lost-update", clazz "planted-lost-update" ~workload:"smallbank"
       ~txns:1200 ~clients:16
       ~plane:(Engine_fault [ Minidb.Fault.No_fuw ]) ~expect:Fail);
    ("planted-partial-commit", clazz "planted-partial-commit"
       ~workload:"ycsb+t"
       ~plane:(Engine_fault [ Minidb.Fault.Partial_commit ]) ~expect:Fail);
    ("selftest-crash", clazz "selftest-crash" ~workload:"ycsb" ~txns:50
       ~plane:(Selftest_crash 5) ~expect:Crash);
    ("selftest-hang", clazz "selftest-hang" ~workload:"ycsb" ~txns:50
       ~plane:Selftest_hang ~expect:Stall);
  ]

let preset_names = List.map fst presets
let find_preset name = List.assoc_opt name presets

(* {2 Standalone reproduction}

   A cell is defined by its reproducer line: the runner parses [args]
   through the same flag mapping as the CLI, so the printed line
   replays the cell by construction.  Every fault-plane stream seed is
   derived from the cell seed at index 1; each plane has its own seed
   flag, so the planes of one cell still draw from independent streams. *)

(* The shortest decimal that parses back to the same float: a rate
   printed with six significant digits would run as a different cell. *)
let num f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || Float.equal (float_of_string s) f then s else go (p + 1)
  in
  go 1

let args cell =
  let c = cell.clazz in
  let int = string_of_int in
  let env = int (Leopard_util.Rng.derive ~seed:cell.seed ~index:1) in
  let each flag render xs = List.concat_map (fun x -> [ flag; render x ]) xs in
  [
    "-w"; c.workload; "-d"; "postgresql"; "-i";
    String.lowercase_ascii (Minidb.Isolation.level_to_string c.level);
    "--txns"; int c.txns; "--clients"; int c.clients; "--seed"; int cell.seed;
  ]
  @ (if c.max_retries = 0 then [] else [ "--max-retries"; int c.max_retries ])
  @
  match c.plane with
  | Baseline | Selftest_crash _ | Selftest_hang -> []
  | Chaos { crash; drop; dup; delay } ->
    [
      "--chaos-crash"; num crash; "--chaos-drop"; num drop; "--chaos-dup";
      num dup; "--chaos-delay"; num delay; "--chaos-seed"; env;
    ]
  | Recovery { crash_at; torn; lost_fsync; dup_replay } ->
    each "--crash-at" int crash_at
    @ [
        "--wal-fault-torn"; num torn; "--wal-fault-lost-fsync"; num lost_fsync;
        "--wal-fault-dup"; num dup_replay; "--wal-fault-seed"; env;
      ]
  | Net { drop; dup; reset; delay } ->
    [
      "--net"; "--net-fault-drop"; num drop; "--net-fault-dup"; num dup;
      "--net-fault-reset"; num reset; "--net-fault-delay"; num delay;
      "--net-fault-seed"; env;
    ]
  | Repl { followers; sync; drop; dup; hop_ns; failover_at } ->
    [
      "--repl"; int followers; "--repl-ack"; (if sync then "sync" else "async");
      "--repl-drop"; num drop; "--repl-dup"; num dup; "--repl-hop-ns";
      int hop_ns; "--repl-seed"; env;
    ]
    @ each "--repl-failover-at" int failover_at
  | Shard { shards; drop; hop_ns; coord_crash_at } ->
    [
      "--shards"; int shards; "--shard-drop"; num drop; "--shard-hop-ns";
      int hop_ns; "--shard-seed"; env;
    ]
    @ each "--shard-coord-crash-at" int coord_crash_at
  | Stacked { shards; per_shard; hop_ns; failover_at } ->
    [
      "--shards"; int shards; "--repl-per-shard"; int per_shard;
      "--shard-hop-ns"; int hop_ns; "--shard-seed"; env;
    ]
    @ each "--shard-failover-at"
        (fun (at, shard) -> Printf.sprintf "%d:%d" shard at)
        failover_at
  | Engine_fault faults -> each "--fault" Minidb.Fault.to_string faults

let cli_line cell =
  match cell.clazz.plane with
  | Selftest_crash _ | Selftest_hang ->
    Printf.sprintf
      "# self-test cell %d (campaign machinery only; no standalone CLI \
       equivalent)"
      cell.index
  | Baseline | Chaos _ | Recovery _ | Net _ | Repl _ | Shard _ | Stacked _
  | Engine_fault _ ->
    String.concat " " ("leopard" :: args cell)
