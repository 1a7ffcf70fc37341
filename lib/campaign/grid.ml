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

   The honest cells reuse the chaos-soak CI parameters (realistic rates
   that exercise every degradation channel); the planted cells use
   engine-level faults whose conviction is workload-driven rather than
   environment-driven, so they convict across the whole seed range. *)

let presets =
  List.map
    (fun c -> (c.cname, c))
    [
      clazz "honest-baseline" ~workload:"ycsb" ~expect:Pass "";
      clazz "honest-chaos" ~workload:"ycsb+t" ~expect:Pass
        "--chaos-crash 0.003 --chaos-drop 0.02 --chaos-dup 0.02 \
         --chaos-delay 0.05";
      (* WAL damage is the one honest plane allowed to convict: a lost
         fsync can resurrect an overwritten value, a genuine provable
         violation of the claimed guarantee (same policy as the CI
         recovery soak leg) — hence Any, not Pass. *)
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
      (* the runner plants a crash in, or removes the stop condition
         of, these two: see Runner *)
      clazz "selftest-crash" ~workload:"ycsb" ~txns:50 ~expect:Crash "";
      clazz "selftest-hang" ~workload:"ycsb" ~txns:50 ~expect:Stall "";
    ]

let preset_names = List.map fst presets
let find_preset name = List.assoc_opt name presets
