(** First-updater-wins verification (paper §V-C, Fig. 8, Theorem 4).

    Two committed transactions updating the same row must be serially
    ordered: one must commit before the other takes its snapshot,
    otherwise neither saw the other's update and the later commit is a
    lost update that FUW should have aborted.

    From traces we know each committed updater's snapshot-generation
    interval (its first operation) and its commit interval.  For a pair
    whose intervals overlap, Theorem 4 guarantees at most one serial
    order is feasible:

    - no feasible order → FUW violation (both are concurrent yet both
      committed);
    - exactly one → a ww dependency in that direction.

    Pairs are evaluated when the second transaction's commit trace is
    processed, so both triples are known. *)

module Interval = Leopard_util.Interval

type entry = {
  ftxn : int;
  snapshot_iv : Interval.t;  (** first-operation interval *)
  commit_iv : Interval.t;
}

type verdict = Violation | Ww of int * int | Unordered

val judge : a:entry -> b:entry -> verdict
(** ["a before b"] is feasible iff [a]'s commit can precede [b]'s
    snapshot. *)

type t

val create : unit -> t

val register :
  t ->
  row:int * int ->
  entry ->
  on_pair:(row:int * int -> other:entry -> verdict -> unit) ->
  unit
(** Add a committed updater of [row] and evaluate it against every updater
    of the row registered earlier. *)

val live_entries : t -> int

val referenced_txns : t -> int list
(** Sorted ids of every transaction with a retained registry entry — the
    FUW contribution to the truncation retained-set. *)

val dump : t -> string list
(** Serialize the registry as {!Leopard_trace.Fields} lines, row-major
    sorted, preserving per-row entry order (it pins pair-evaluation
    order).  Inverse of {!restore}. *)

val restore : string list -> t
(** Rebuild a registry from {!dump} output.  Raises [Failure] on a
    malformed line. *)

val load : t -> Leopard_trace.Fields.Cursor.t -> unit
(** Add one {!dump} line's entry to its row: how {!restore} and the
    checker's decoder fill a registry, then call {!seal}. *)

val seal : t -> unit
(** Put every row back in {!dump} order once all lines are loaded. *)

val prune : t -> horizon:int -> int
(** Drop entries whose commit after-timestamp is [<= horizon]: any future
    updater's snapshot starts after the horizon, so the pair is certainly
    ordered and cannot violate FUW. *)
