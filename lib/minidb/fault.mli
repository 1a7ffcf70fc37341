(** Fault injection — the reproduction of the paper's 17-bug study.

    The paper's headline practical result is that Leopard found 17
    isolation bugs in commercial DBMSs that other checkers missed,
    including four published TiDB cases (§VI-F).  We cannot run TiDB, so
    `minidb` exposes 17 injectable faults, each a genuine violation of one
    of the four mechanisms, observable only through client traces.  The
    first four are direct analogues of the paper's published bugs.

    A fault is switched on for a whole engine run; the engine consults the
    fault set at the corresponding decision point. *)

type t =
  | No_lock_on_noop_update
      (** Bug 1 analogue: an update writing a value equal to the current
          one skips its X lock (TiDB acquired no lock for a no-op update),
          admitting dirty writes. *)
  | Stale_read
      (** Bug 2 analogue: reads return the version {e preceding} the
          visible one when more than one committed version exists. *)
  | Predicate_read_ignores_locks
      (** Bug 3 analogue: a locking read reached through a predicate
          (range/join) forgets to acquire or respect row X locks. *)
  | Read_two_versions
      (** Bug 4 analogue: a read returns both the transaction's own
          pending write and an old (deleted) version of the same cell. *)
  | No_fuw  (** lost updates admitted: FUW checks disabled *)
  | No_ssi  (** write skew admitted: the SSI certifier is disabled *)
  | Dirty_read  (** visibility includes other transactions' pending writes *)
  | Stmt_snapshot_under_txn_cr
      (** statement-level snapshots served where transaction-level
          consistency was promised (non-repeatable reads under RR/SI) *)
  | Early_lock_release
      (** X locks released right after the write instead of at commit *)
  | Snapshot_reset_on_write
      (** the transaction's snapshot is silently re-taken at its first
          write, tearing the consistent view *)
  | Mvto_no_check  (** the timestamp-ordering certifier admits newer-to-older
                       dependencies *)
  | Ignore_own_writes
      (** reads do not see the transaction's own pending writes *)
  | Version_order_inversion
      (** a committed version is installed {e behind} the current latest
          version, so later readers see the older value as newest *)
  | Read_aborted_version
      (** reads may observe versions of aborted transactions *)
  | Partial_commit
      (** commit installs only a strict prefix of the write set *)
  | Delayed_visibility
      (** commit acknowledges the client before versions become visible;
          reads meanwhile miss supposedly-committed data *)
  | Shared_lock_ignores_exclusive
      (** S locks are (wrongly) granted while an X lock is held *)

val all : t list
val to_string : t -> string
val of_string : string -> t option

val expected_mechanism : t -> string
(** Which of Leopard's four verifications is expected to flag the fault:
    "CR", "ME", "FUW" or "SC" (primary mechanism when several could). *)

val paper_bug : t -> string option
(** For the four published TiDB analogues, the paper's bug name. *)

module Set : Set.S with type elt = t
