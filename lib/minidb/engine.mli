(** The transactional engine under test.

    A multi-version engine whose concurrency control is assembled from
    exactly the four mechanisms of the paper's Fig. 1, selected by a
    {!Profile.t} and an {!Isolation.level}:

    - {b ME}: row S/X locks via {!Lock_manager} (2PL, held to txn end);
    - {b CR}: snapshot reads via {!Version_store}, at transaction or
      statement granularity;
    - {b FUW}: first-updater-wins aborts of concurrent second updaters;
    - {b SC}: an SSI pivot certifier, an MVTO timestamp-ordering
      certifier, or OCC commit-time read-set validation.

    The engine runs inside a {!Sim} discrete-event simulation: [exec] is
    called at the simulated instant a request {e arrives} at the server,
    and the continuation fires at the instant the reply leaves — possibly
    much later when the request sat in a lock queue.  Injected
    {!Fault.t}s corrupt specific decision points to plant real isolation
    bugs for Leopard to find.

    The engine also keeps {!Ground_truth} — the exact dependencies that
    occurred — which a black-box checker never sees but the evaluation
    harness uses to score Leopard's deductions. *)

module Cell = Leopard_trace.Cell
module Trace = Leopard_trace.Trace

type t
type txn

type abort_reason =
  | Deadlock_victim
  | Fuw_conflict  (** first updater won; this transaction lost *)
  | Certifier_conflict of string  (** SSI / MVTO / OCC refusal *)
  | User_abort
  | Server_crash
      (** the server crashed during the transaction's epoch: its
          server-side state is gone.  The reply still arrives (the
          outcome is definite, never indeterminate) and the abort is
          retryable in the new epoch. *)

val abort_reason_to_string : abort_reason -> string

type request =
  | Read of { cells : Cell.t list; locking : bool; predicate : bool }
      (** [locking] = [SELECT ... FOR UPDATE]; [predicate] marks access
          through a range/join predicate (the trigger of
          {!Fault.Predicate_read_ignores_locks}). *)
  | Write of (Cell.t * Trace.value) list
  | Commit
  | Abort

type result =
  | Ok_read of Trace.item list
      (** observed items; may contain duplicates or extra versions under
          injected faults *)
  | Ok_write
  | Ok_commit
  | Err of abort_reason
      (** the transaction is dead: its effects are discarded and its locks
          released.  The client should log an abort trace. *)

val create :
  ?wal:Wal.t ->
  Sim.t ->
  profile:Profile.t ->
  level:Isolation.level ->
  faults:Fault.Set.t ->
  t
(** Raises [Invalid_argument] if the profile does not support the level.
    With [?wal], every commit appends its installed write set to the log
    before the acknowledgement leaves, enabling {!crash_recover}. *)

val mechanisms : t -> Isolation.mechanisms

val load : t -> (Cell.t * Trace.value) list -> unit
(** Populate the initial database state (visible since time 0). *)

val begin_txn : t -> client:int -> txn
(** Register a transaction; costs no simulated time.  Its snapshot is
    taken at its first operation, per the CR mechanism. *)

val txn_id : txn -> int

val txn_alive : txn -> bool
(** Still active (not committed, not aborted). *)

val exec : t -> txn -> op_id:int -> request -> k:(result -> unit) -> unit
(** Submit a request at the current simulated instant.  [k] fires exactly
    once, at the simulated completion instant.

    Commit is {e idempotent}: a [Commit] for a transaction that already
    committed is re-acknowledged with [Ok_commit] without re-executing
    (the transaction id acts as the commit token; the status table is
    the idempotency table).  This is what makes wire-level COMMIT
    retries and duplications safe — see {!duplicate_commit_acks}. *)

val duplicate_commit_acks : t -> int
(** How many [Commit] requests were acknowledged idempotently because
    the transaction had already committed (retried/duplicated commit
    tokens). *)

val peek : t -> Cell.t -> Trace.value option
(** Latest committed value of a cell — a white-box oracle for tests
    (e.g. checking YCSB+T's closed-economy invariant after a run). *)

val ground_truth : t -> Ground_truth.t
val committed : t -> int -> bool
(** Whether the given transaction id committed. *)

(** {2 Crash–recovery} *)

val crash_recover : t -> Recovery.summary
(** Simulated instantaneous server crash followed by recovery, in place:
    active transactions die (their pending writes and locks evaporate;
    queued lock waiters are answered, not abandoned), the epoch is
    bumped, and the committed store is rebuilt from the WAL under the
    log's durability fault model.  Post-crash requests of pre-crash
    transactions get [Err Server_crash].  Timestamps stay globally
    monotone across the restart, so a single trace file spanning epochs
    remains checkable.  Raises [Invalid_argument] when the engine was
    created without [?wal]. *)

val epoch : t -> int
(** Current server epoch; 0 until the first crash or failover. *)

(** {2 Replication} *)

val set_commit_hook : t -> (Wal.record -> unit) option -> unit
(** Attach (or detach, with [None]) a replication hook fed every commit
    record at the instant the commit applies, before the acknowledgement
    leaves the server.  Building the record draws no stamps and no
    randomness, so attaching a hook leaves the engine's timestamp stream
    byte-identical. *)

val op_snapshot : t -> txn -> int
(** The snapshot instant the transaction's next read would be served at.
    Mutates exactly as the engine's own read path would (starts the
    transaction, pins or advances the snapshot per the CR granularity),
    so follower-read routing can take the snapshot and then serve the
    read from a replica — or fall back to [exec] — without skew.
    [max_int] for pure-locking profiles (read latest committed). *)

val txn_has_writes : txn -> bool
(** Whether the transaction has buffered any writes (a follower can only
    serve reads of write-free transactions: pending writes live only at
    the primary).  A committed or aborted transaction drops its write
    table but keeps this answer: [true] iff it wrote before it
    finished. *)

val promote_from :
  t -> ?wal:Wal.t -> records:Wal.record list -> unit -> t * Recovery.summary
(** Promote a replica to primary: a fresh engine whose committed store
    is rebuilt from [records] (the survivor prefix of the replication
    log, oldest first, replayed at the original commit stamps) and whose
    epoch is the old primary's plus one.  Transaction ids, stamps, the
    transaction-status table, ground truth and the initial image are
    {e shared} with [old], so timestamps stay globally monotone, ids
    unique, and idempotent commit acks keep working across the failover.
    Per-engine counters ([commits], [aborts], ...) restart at zero — sum
    across engines for run totals.  With [?wal] the new engine logs to
    it; the log is preloaded with [records] first ({!Wal.preload}).
    The old engine is left untouched: call {!depose} on it (immediately,
    or after a window to model split-brain). *)

val depose : t -> epoch:int -> unit
(** Kill a replaced primary's volatile state exactly as a crash would
    (active transactions die, locks evaporate, the commit hook detaches)
    and raise its epoch to [epoch] (the promoted engine's), so every
    straggler request gets a definite [Err Server_crash].  Unlike
    {!crash_recover} nothing is rebuilt and {!restarts} does not tick. *)

val restarts : t -> int
(** Number of crash–recovery cycles so far. *)

val snapshot_committed : t -> (Cell.t * Version_store.version list) list
(** {!Version_store.snapshot_committed} of the live store — the
    canonical committed-state image used to prove recovery is
    byte-identical. *)

(** {2 Statistics} *)

val commits : t -> int
val aborts : t -> int
val aborts_by : t -> abort_reason -> int
val deadlocks : t -> int
val ops_executed : t -> int

val wal_appended : t -> int
(** Commit records appended to the WAL ([0] without one). *)
