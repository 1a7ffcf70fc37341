(** Serialization-certifier verification (paper §V-D, Fig. 9, Theorem 5).

    A dependency graph over committed transactions, fed with the
    dependencies deduced by the other three mechanisms plus the rw edges
    derived from wr + version order.  Instead of searching the graph for
    cycles, the verifier mirrors the certifier the DBMS claims to run:

    - {b SSI} (PostgreSQL): two consecutive rw antidependencies among
      certainly-concurrent transactions should have been aborted — if the
      pattern appears between committed transactions, the certifier is
      broken;
    - {b MVTO} (CockroachDB): a dependency that certainly points from a
      younger transaction to an older one (by first-operation intervals)
      should have been refused;
    - {b Cycle} (OCC validation): any cycle of deduced (hence real)
      dependencies refutes conflict serializability.

    Certainty guards matter: all deduced edges are real, but a violation
    is only reported when the interval arithmetic proves the mirrored
    certifier must have seen the pattern — otherwise a correct engine
    could be flagged.

    Garbage collection implements Definition 4 / Theorem 5: a committed
    transaction with in-degree zero whose terminal after-timestamp lies at
    or before the earliest possible future snapshot can never join a
    cycle or a fresh pattern, and is pruned together with its edges. *)

module Interval = Leopard_util.Interval

type t

val create : Il_profile.certifier option -> t

val note_commit :
  t -> txn:int -> first_iv:Interval.t -> terminal_iv:Interval.t -> unit
(** Register a committed transaction as a graph node. *)

val add_dep : t -> Dep.t -> Bug.t list
(** Insert an edge (both endpoints must be registered) and run the
    mirrored certifier; returns the violations this edge exposes. *)

val nodes : t -> int
val edges : t -> int

val referenced_txns : t -> int list
(** Sorted ids of the live graph nodes — the SC contribution to the
    truncation retained-set (rw witnesses are excluded: they never emit
    new dependencies). *)

val gc : t -> frontier:int -> int
(** Prune garbage transactions (Definition 4) given that every unverified
    trace has [ts_bef >= frontier]; cascades while new in-degree-zero
    garbage appears.  Returns nodes pruned. *)

val dump : t -> string list
(** Serialize the graph as {!Leopard_trace.Fields} lines, txn-sorted,
    preserving edge and rw-witness list order (they pin certifier-check
    order); witnesses carry their interval copies because they may
    outlive gc'd nodes.  Inverse of {!restore}. *)

val restore : Il_profile.certifier option -> string list -> t
(** Rebuild a graph from {!dump} output without re-running certifier
    checks: {!load} every line, then {!seal}.  Raises [Failure] on
    malformed input. *)

val load : t -> Leopard_trace.Fields.Cursor.t -> unit
(** Add one {!dump} line's node, its in-degree not yet counted. *)

val seal : t -> unit
(** Count in-degrees and edges once every node is loaded.  Raises
    [Failure] on an edge to an unknown node. *)

val has_cycle : t -> bool
(** Full cycle search over the current graph — used by tests to
    cross-validate the certifier mirrors, not by the online path. *)
