(** Isolation-level vocabulary and the four implementation mechanisms.

    The paper's central abstraction (§II-B, Fig. 1): every isolation level
    offered by the commercial DBMSs it surveys is implemented by composing
    four mechanisms —

    - {b CR} (consistent read): snapshot visibility, at transaction or
      statement granularity;
    - {b ME} (mutual exclusion): two-phase row locking;
    - {b FUW} (first updater wins): abort concurrent second updaters;
    - {b SC} (serialization certifier): SSI dangerous-structure detection,
      multi-version timestamp ordering, or OCC read-set validation.

    [mechanisms] is the engine-facing description of a concrete
    (DBMS, level) cell of Fig. 1; {!Profile} names the rows. *)

type level =
  | Read_committed
  | Repeatable_read
  | Snapshot_isolation
  | Serializable

val level_to_string : level -> string
val level_of_string : string -> level option

(** Snapshot granularity of the CR mechanism. *)
type cr_level =
  | Txn_level  (** one snapshot at the transaction's first operation *)
  | Stmt_level  (** a fresh snapshot at every statement *)

(** Which serialization certifier the SC mechanism runs. *)
type sc_kind =
  | Ssi  (** PostgreSQL-style: abort pivots with both in- and out- rw
             antidependencies *)
  | Mvto  (** CockroachDB-style: forbid dependencies from a newer-timestamp
              transaction to an older one *)
  | Occ_validate  (** FoundationDB/RocksDB-style: commit-time read-set
                      validation *)

val sc_kind_to_string : sc_kind -> string

(** Lock granule of the ME mechanism: per row (every profile surveyed
    except SQLite) or per table (SQLite's database/table-level locking). *)
type lock_granularity = Row_locks | Table_locks

type mechanisms = {
  me_writes : bool;  (** X row locks on writes, held to transaction end *)
  me_locking_reads : bool;
      (** locking reads ([FOR UPDATE]) take X row locks *)
  me_reads : bool;
      (** plain reads take S row locks held to transaction end (pure 2PL
          reads: SQLite, InnoDB serializable) *)
  cr : cr_level option;  (** [None] = no MVCC snapshots (pure locking) *)
  fuw : bool;  (** first-updater-wins write conflict aborts *)
  sc : sc_kind option;
  lock_granularity : lock_granularity;
}

val mechanism_letters : mechanisms -> string
(** Compact "ME CR FUW SC" membership string for the Fig. 1 matrix. *)
