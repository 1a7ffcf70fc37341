(** A shard participant: a per-shard version store fed by the
    coordinator's decision log, plus the participant side of 2PC.

    The coordinator appends commit records in commit-stamp order and the
    participant applies its shard's slices strictly in sequence, so
    [applied_ts] is an exact visibility horizon for the cells this shard
    owns — the store holds every owned version with
    [commit_ts <= applied_ts] and none beyond it.  A read of owned
    cells at a snapshot [<= applied_ts] therefore observes exactly what
    the engine would serve at the same snapshot.

    On top of the applier sits the prepared-transaction table (the 2PC
    prepared locks) and an optional frozen serving horizon — the
    {!Shard_fault.Stale_prepared_read} lie. *)

type prepared = {
  p_start_ts : int;
  p_writes : (Leopard_trace.Cell.t * Leopard_trace.Trace.value) list;
  p_vetoed : bool;  (** this shard voted abort for the transaction *)
}

type t = {
  id : int;  (** link-session id of this shard *)
  mutable store : Minidb.Version_store.t;
  mutable applied_through : int;
      (** highest contiguously applied decision seq (1-based; 0 = none) *)
  mutable applied_ts : int;
      (** commit stamp of the last applied decision; 0 if none *)
  prepared : (int, prepared) Hashtbl.t;
  mutable frozen_ts : int option;
      (** serving horizon frozen at an orphaned prepare; only ever set
          under {!Shard_fault.Stale_prepared_read} *)
}

val create :
  id:int -> initial:(Leopard_trace.Cell.t * Leopard_trace.Trace.value) list -> t

val prepare :
  t ->
  txn:int ->
  start_ts:int ->
  writes:(Leopard_trace.Cell.t * Leopard_trace.Trace.value) list ->
  check_conflicts:bool ->
  bool
(** Vote on a PREPARE: [true] = commit, [false] = veto.  A duplicated
    prepare re-votes identically.  With [check_conflicts], a write set
    overlapping the rows of another prepared transaction is vetoed (the
    prepared-lock conflict, turned into an abort instead of blocking);
    the synchronous zero-fault path passes [false] — prepare and
    decision are atomic there, so prepared locks are never observably
    held. *)

val apply : t -> seq:int -> Minidb.Wal.record -> bool
(** Apply decision [seq] if it is exactly the next expected one
    ([applied_through + 1]); returns whether it was applied.  Clears the
    transaction's prepared entry.  Stale retransmits and out-of-order
    deliveries are rejected — the cumulative ack tells the coordinator
    what to resend. *)

val release : t -> txn:int -> apply_anyway:bool -> unit
(** ABORT decision: drop [txn]'s prepared entry.  [apply_anyway] is the
    {!Shard_fault.Commit_after_abort} lie — install the prepared writes
    at the current horizon despite the abort. *)

val freeze : t -> unit
(** Freeze the serving horizon at the current [applied_ts] (idempotent);
    the {!Shard_fault.Stale_prepared_read} orphaned-lock lie. *)

val read :
  t ->
  cells:Leopard_trace.Cell.t list ->
  ts:int ->
  Leopard_trace.Trace.item list
(** Snapshot read at [ts] against the shard's store (missing cells read
    as 0, matching the engine's convention).  Only meaningful for cells
    this shard owns. *)

val crash_rebuild :
  t ->
  initial:(Leopard_trace.Cell.t * Leopard_trace.Trace.value) list ->
  records:Minidb.Wal.record list ->
  unit
(** Crash/restart: prepared entries and any frozen horizon are volatile
    and lost; the store rebuilds from the durable decision log (oldest
    first), with [applied_through]/[applied_ts] set to the log's end. *)
