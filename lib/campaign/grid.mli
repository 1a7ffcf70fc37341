(** Declarative campaign grids — classes x seeds expanded into cells.

    A campaign is a grid: a list of {e cell classes} (a workload, a
    size, the fault-plane flags of a [leopard] line, and an expected
    verdict) crossed with a range of per-cell seeds.  [cells] expands
    the grid into a flat array of cells; each cell's RNG seed is derived
    positionally from the campaign seed with {!Leopard_util.Rng.derive},
    so any cell can be reproduced standalone from [(campaign_seed,
    index)] alone — the checker report header and the results DB cite
    both, and {!cli_line} renders the [leopard] invocation that defines
    the cell and so replays it outside the campaign machinery.

    Everything here is pure data: no RNG state, no clock, no I/O.  The
    same grid value expands to the same cell array on every call, which
    is what makes serial and parallel sweeps byte-identical. *)

type expect =
  | Pass  (** honest cell: [Verified] or [Inconclusive], never [Violation] *)
  | Fail  (** planted fault: the checker must convict ([Violation]) *)
  | Any  (** any completed verdict is acceptable (seed-dependent faults) *)
  | Crash
      (** self-test: the runner plants a crash in the cell body, which
          must be recorded [Crashed] *)
  | Stall
      (** self-test: the runner removes the cell's stop condition, so
          its step budget must record [Timeout] *)

val expect_to_string : expect -> string

type clazz = {
  cname : string;
  workload : string;  (** a {!Leopard_workload.Catalog} name *)
  level : Minidb.Isolation.level;
  txns : int;
  clients : int;
  flags : string list;
      (** every other [leopard] argument: fault planes, retries,
          planted faults — never a seed *)
  expect : expect;
}

val clazz :
  ?level:Minidb.Isolation.level ->
  ?txns:int ->
  ?clients:int ->
  workload:string ->
  expect:expect ->
  string ->
  string ->
  clazz
(** [clazz ~workload ~expect name flags]: [flags] is written as on the
    command line and split on spaces.  Defaults: snapshot isolation,
    600 transactions, 8 clients. *)

type t = private {
  campaign_seed : int;
  seeds_per_class : int;  (** cells per class; >= 1 *)
  classes : clazz list;
}

val make : ?campaign_seed:int -> ?seeds_per_class:int -> clazz list -> t
(** Defaults: campaign seed 42, one seed per class.  Raises
    [Invalid_argument] on an empty class list, a non-positive seed
    range, an unknown workload name, or a duplicate class name. *)

type cell = { index : int; seed : int; clazz : clazz }
(** [seed = Rng.derive ~seed:campaign_seed ~index] — the only seed the
    cell's run draws from: its fault-plane streams are seeded with a
    value derived from it (see {!args}). *)

val cells : t -> cell array
(** Class-major expansion: cell [index = class_position * seeds_per_class
    + seed_position].  Pure; identical on every call. *)

val cell_count : t -> int

val scale : txns:int -> clients:int -> clazz -> clazz
(** Override the workload size of a class (used by the shrinker and by
    [--cell-txns]/[--cell-clients]); raises [Invalid_argument] on a
    non-positive size. *)

val presets : (string * clazz) list
(** The named cell classes the [campaign] subcommand accepts, in
    [--list-cells] order:
    - [honest-*]: each fault plane sampled on its own workload;
    - [planted-*]: engine faults the checker must convict;
    - [soak-*]: CI's fault-plane soak, one class per soak leg and per
      planted fault, at 400 transactions.  Honest legs expect [Pass];
      WAL damage and the planted replication and shard lies expect
      [Any], so they assert that every cell completes;
    - [net-*], [repl-*], [shard-*], [stack-*]: the fault planes'
      tables, one class per fault class of the client wire,
      replication (under each ack mode), sharding and the stacked
      planes, at one shape per plane; honest classes expect [Pass],
      planted lies and WAL damage [Any];
    - the two self-test cells.

    No two presets share a definition: the sharding table's unsharded
    baseline is [repl-single-node], its stale-prepared-read row
    [soak-shard-stale-prep].

    Every name fits the 24-character [cell :] column of the sweep
    summary. *)

val preset_names : string list
val find_preset : string -> clazz option

val describe : clazz -> string
(** The class's line: its name and expectation, then the [leopard]
    arguments of {!args} without the cell's seeds — the fingerprint
    input, also shown by [campaign --list-cells]. *)

val fingerprint : t -> string
(** 64-bit FNV-1a over the canonical grid description, rendered as 16
    hex digits.  Checkpoints store it so a resume against a different
    grid is detected instead of mixing results. *)

val args : cell -> string list
(** The cell's definition as [leopard] arguments (without the program
    name): workload, isolation, size and the cell's derived seed, then
    the class's {!clazz.flags}, then all five stream-seed flags
    ([--chaos-seed], [--net-fault-seed], [--wal-fault-seed],
    [--repl-seed], [--shard-seed]) set to [Rng.derive ~seed ~index:1].
    Each plane reads only its own stream seed.  The runner builds the
    cell's run from exactly these through {!Leopard_harness.Flags}. *)

val cli_line : cell -> string
(** ["leopard "] followed by {!args}: the standalone invocation that
    replays this cell, because it is the cell's definition.  Self-test
    cells ([crash]/[stall]) have no standalone equivalent and render as
    a comment. *)
