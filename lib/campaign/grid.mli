(** Declarative campaign grids — classes x seeds expanded into cells.

    A campaign is a grid: a list of {e cell classes} (a workload plus one
    fault-plane configuration plus an expected verdict) crossed with a
    range of per-cell seeds.  [cells] expands the grid into a flat array
    of cells; each cell's RNG seed is derived positionally from the
    campaign seed with {!Leopard_util.Rng.derive}, so any cell can be
    reproduced standalone from [(campaign_seed, index)] alone — the
    checker report header and the results DB cite both, and {!cli_line}
    renders the exact [leopard] invocation that replays the cell outside
    the campaign machinery.

    Everything here is pure data: no RNG state, no clock, no I/O.  The
    same grid value expands to the same cell array on every call, which
    is what makes serial and parallel sweeps byte-identical. *)

type plane =
  | Baseline  (** no fault plane: the honest single-node engine *)
  | Chaos of { crash : float; drop : float; dup : float; delay : float }
      (** collection-path faults *)
  | Recovery of {
      crash_at : int list;
      torn : float;
      lost_fsync : float;
      dup_replay : float;
    }  (** server crash/recovery through a faulty WAL *)
  | Net of { drop : float; dup : float; reset : float; delay : float }
      (** the client wire plane *)
  | Repl of {
      followers : int;
      sync : bool;
      drop : float;
      dup : float;
      hop_ns : int;
      failover_at : int list;
    }  (** primary/follower replication, optionally with failovers *)
  | Shard of {
      shards : int;
      drop : float;
      hop_ns : int;
      coord_crash_at : int list;
    }  (** hash-range shard group with 2PC over faulty links *)
  | Stacked of {
      shards : int;
      per_shard : int;
      hop_ns : int;
      failover_at : (int * int) list;  (** [(instant, shard)] *)
    }  (** every shard a replica set: the composed fault planes *)
  | Engine_fault of Minidb.Fault.t list
      (** planted engine bugs — the cells the checker must convict *)
  | Selftest_crash of int
      (** raise from inside the cell body after N transactions; exists
          to prove campaign crash isolation records [Crashed] without
          aborting the sweep *)
  | Selftest_hang
      (** a cell that never reaches its stop condition; exists to prove
          the per-cell step budget records [Timeout] *)

type expect =
  | Pass  (** honest cell: [Verified] or [Inconclusive], never [Violation] *)
  | Fail  (** planted fault: the checker must convict ([Violation]) *)
  | Any  (** any completed verdict is acceptable (seed-dependent faults) *)
  | Crash  (** self-test: the cell must be recorded [Crashed] *)
  | Stall  (** self-test: the cell must be recorded [Timeout] *)

val expect_to_string : expect -> string
val expect_of_string : string -> expect option

type clazz = {
  cname : string;
  workload : string;  (** a {!Leopard_workload.Catalog} name *)
  level : Minidb.Isolation.level;
  txns : int;
  clients : int;
  max_retries : int;
  plane : plane;
  expect : expect;
}

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
    cell's run draws from (fault-plane streams use {!sub_seed}). *)

val cells : t -> cell array
(** Class-major expansion: cell [index = class_position * seeds_per_class
    + seed_position].  Pure; identical on every call. *)

val cell_count : t -> int

val sub_seed : cell -> int -> int
(** [sub_seed cell salt] — the derived seed for one of the cell's
    fault-plane streams (chaos, wire link, WAL damage, ...).  Salts are
    fixed per plane so {!cli_line} and the runner agree byte-for-byte. *)

val scale : txns:int -> clients:int -> clazz -> clazz
(** Override the workload size of a class (used by the shrinker and by
    [--cell-txns]/[--cell-clients]); raises [Invalid_argument] on a
    non-positive size. *)

val presets : (string * clazz) list
(** The named cell classes the [campaign] subcommand accepts: honest
    cells across all six fault planes, planted engine faults the checker
    must convict, and the two self-test cells. *)

val preset_names : string list
val find_preset : string -> clazz option

val describe : clazz -> string
(** Canonical one-line rendering of every parameter of the class — the
    fingerprint input, also shown by [campaign --list]. *)

val fingerprint : t -> string
(** 64-bit FNV-1a over the canonical grid description, rendered as 16
    hex digits.  Checkpoints store it so a resume against a different
    grid is detected instead of mixing results. *)

val cli_line : cell -> string
(** The exact standalone [leopard] invocation reproducing this cell:
    workload, isolation, size, the cell's derived seed and every
    fault-plane flag with its derived stream seed.  Self-test cells have
    no standalone equivalent and render as a comment. *)
