(** Seeded replication/failover faults — the fifth fault plane.

    - {!Minidb.Fault} corrupts live concurrency control;
    - {!Minidb.Wal} faults corrupt what survives a crash;
    - [Harness.Chaos] corrupts trace collection;
    - {!Leopard_net.Faulty_link} corrupts the client wire;
    - {e this module} corrupts replication and leader promotion.

    These are planted bugs, not environmental noise: partitions and link
    faults merely delay or strand log shipping, and an honest failover
    then {e reports} its lost suffix (the checker degrades to
    Inconclusive).  A fault here makes the cluster lie or misbehave,
    planting a definite, mechanism-attributable isolation violation. *)

type t =
  | Promote_lagging
      (** failover targets the {e least} caught-up follower and claims
          the promotion was clean — commits past its horizon vanish
          silently (expected mechanism: CR) *)
  | Lose_acked_window
      (** a lossy failover (async-acked tail not yet replicated) is
          claimed clean — acked commits vanish without a lost-suffix
          report (CR) *)
  | Stale_follower_read
      (** a routed follower read is served at the replica's applied
          horizon even when that is behind the transaction's snapshot
          (CR) *)
  | Split_brain
      (** the deposed primary keeps serving commits for a window after
          promotion — two brains commit concurrently (FUW) *)

val all : t list
val to_string : t -> string
val of_string : string -> t option
val has_fault : t list -> t -> bool
(** Set membership ([has_fault faults f]). *)
