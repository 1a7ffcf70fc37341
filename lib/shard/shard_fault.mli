(** Seeded sharding/2PC faults — the sixth fault plane.

    - {!Minidb.Fault} corrupts live concurrency control;
    - {!Minidb.Wal} faults corrupt what survives a crash;
    - [Harness.Chaos] corrupts trace collection;
    - {!Leopard_net.Faulty_link} corrupts the client wire;
    - [Leopard_replication.Repl_fault] corrupts failover;
    - {e this module} corrupts the cross-shard commit protocol.

    These are planted bugs, not environmental noise: wire faults and
    coordinator crashes merely strand prepares or delay decisions, and
    an honest coordinator then presumes abort, re-delivers logged
    decisions on recovery, and the run {e reports} genuinely unknowable
    outcomes (the checker degrades to Inconclusive).  A fault here makes
    the commit protocol lie, planting a definite,
    mechanism-attributable isolation violation. *)

type t =
  | Fractured_commit
      (** a coordinator crash mid-decision-fanout drops one shard's
          slice of a decided commit and compensates the sequence — one
          shard applied, one not (expected mechanism: CR) *)
  | Commit_after_abort
      (** a participant applies its prepared writes when the ABORT
          decision arrives: an aborted transaction's values become
          readable on its shard (CR, G1a) *)
  | Snapshot_skew
      (** a cross-shard read is served per shard at [min(snapshot,
          shard horizon)] instead of one global snapshot (CR) *)
  | Stale_prepared_read
      (** prepared locks orphaned by a coordinator crash freeze the
          shard's serving horizon, which keeps answering later
          snapshots from it (CR) *)

val all : t list
val to_string : t -> string
val of_string : string -> t option
val has_fault : t list -> t -> bool
(** Set membership ([has_fault faults f]). *)
