type t =
  | No_lock_on_noop_update
  | Stale_read
  | Predicate_read_ignores_locks
  | Read_two_versions
  | No_fuw
  | No_ssi
  | Dirty_read
  | Stmt_snapshot_under_txn_cr
  | Early_lock_release
  | Snapshot_reset_on_write
  | Mvto_no_check
  | Ignore_own_writes
  | Version_order_inversion
  | Read_aborted_version
  | Partial_commit
  | Delayed_visibility
  | Shared_lock_ignores_exclusive

let all =
  [
    No_lock_on_noop_update;
    Stale_read;
    Predicate_read_ignores_locks;
    Read_two_versions;
    No_fuw;
    No_ssi;
    Dirty_read;
    Stmt_snapshot_under_txn_cr;
    Early_lock_release;
    Snapshot_reset_on_write;
    Mvto_no_check;
    Ignore_own_writes;
    Version_order_inversion;
    Read_aborted_version;
    Partial_commit;
    Delayed_visibility;
    Shared_lock_ignores_exclusive;
  ]

let to_string = function
  | No_lock_on_noop_update -> "no-lock-on-noop-update"
  | Stale_read -> "stale-read"
  | Predicate_read_ignores_locks -> "predicate-read-ignores-locks"
  | Read_two_versions -> "read-two-versions"
  | No_fuw -> "no-fuw"
  | No_ssi -> "no-ssi"
  | Dirty_read -> "dirty-read"
  | Stmt_snapshot_under_txn_cr -> "stmt-snapshot-under-txn-cr"
  | Early_lock_release -> "early-lock-release"
  | Snapshot_reset_on_write -> "snapshot-reset-on-write"
  | Mvto_no_check -> "mvto-no-check"
  | Ignore_own_writes -> "ignore-own-writes"
  | Version_order_inversion -> "version-order-inversion"
  | Read_aborted_version -> "read-aborted-version"
  | Partial_commit -> "partial-commit"
  | Delayed_visibility -> "delayed-visibility"
  | Shared_lock_ignores_exclusive -> "shared-lock-ignores-exclusive"

let of_string s = List.find_opt (fun f -> String.equal (to_string f) s) all

let expected_mechanism = function
  | No_lock_on_noop_update -> "ME"
  | Stale_read -> "CR"
  | Predicate_read_ignores_locks -> "ME"
  | Read_two_versions -> "CR"
  | No_fuw -> "FUW"
  | No_ssi -> "SC"
  | Dirty_read -> "CR"
  | Stmt_snapshot_under_txn_cr -> "CR"
  | Early_lock_release -> "ME"
  | Snapshot_reset_on_write -> "CR"
  | Mvto_no_check -> "SC"
  | Ignore_own_writes -> "CR"
  | Version_order_inversion -> "CR"
  | Read_aborted_version -> "CR"
  | Partial_commit -> "CR"
  | Delayed_visibility -> "CR"
  | Shared_lock_ignores_exclusive -> "ME"

let paper_bug = function
  | No_lock_on_noop_update -> Some "TiDB Bug 1: dirty write"
  | Stale_read -> Some "TiDB Bug 2: inconsistent read"
  | Predicate_read_ignores_locks -> Some "TiDB Bug 3: incompatible write locks"
  | Read_two_versions -> Some "TiDB Bug 4: a query returns two versions"
  | _ -> None

module Set = Set.Make (struct
  type nonrec t = t

  (* lint: allow poly-compare — the fault type is all constant
     constructors, so structural compare is total and stable *)
  let compare = compare
end)
