(** Mutual-exclusion verification (paper §V-B, Fig. 7, Theorem 3).

    The verifier mirrors the lock table of a 2PL engine from traces alone:
    a write (or locking read) acquires an X lock on its row somewhere
    inside the operation's interval; a plain read under pure-2PL profiles
    acquires an S lock; every lock is released somewhere inside the
    transaction's terminal (commit/abort) interval.

    For two conflicting locks whose hold intervals cannot be ordered with
    certainty, Theorem 3 guarantees that at most one interleaving is
    compatible; {!judge} enumerates the interleavings:

    - no compatible order → ME violation (the engine must have held two
      incompatible locks simultaneously);
    - exactly one → a ww dependency is deduced in that direction.

    Pairs are evaluated when the {e second} of the two locks is released,
    so both release intervals are known. *)

module Interval = Leopard_util.Interval

type mode = S | X

type entry = {
  etxn : int;
  mode : mode;
  acquire_iv : Interval.t;  (** interval of the first locking op on the row *)
  mutable release_iv : Interval.t option;  (** terminal interval once known *)
}

type verdict =
  | Violation  (** no interleaving avoids simultaneous incompatible locks *)
  | Ww of int * int  (** the unique feasible order: (holder first, second) *)
  | Unordered  (** both orders feasible — cannot happen for well-formed
                   traces (Theorem 3); kept for defensive completeness *)

val judge : mine:entry -> other:entry -> verdict
(** Both entries must be released.  S/S pairs are compatible and are never
    passed to [judge] by {!release}. *)

type t

val create : unit -> t

val acquire : t -> row:int * int -> txn:int -> mode -> iv:Interval.t -> unit
(** Record a lock acquisition.  A transaction keeps at most one entry per
    mode on a row; an S-to-X upgrade adds a separate X entry dated at the
    upgrading operation (the exclusive hold only starts there), and an S
    request is subsumed by an existing X entry. *)

val release :
  t ->
  txn:int ->
  iv:Interval.t ->
  on_pair:(row:int * int -> mine:entry -> other:entry -> verdict -> unit) ->
  unit
(** Mark all of [txn]'s locks released at the terminal interval [iv], then
    evaluate every conflicting pair whose partner is already released. *)

val discard : t -> txn:int -> unit
(** Forget every entry of [txn] {e without} pair checks.  For
    indeterminate-outcome transactions (crashed clients): their release
    instant is unknown, so no overlap conclusion involving them is
    sound — they carry no ME obligations. *)

val live_entries : t -> int
(** Lock-table size — the ME memory metric. *)

val referenced_txns : t -> int list
(** Sorted ids of every transaction holding a retained lock entry — the
    lock-table contribution to the truncation retained-set. *)

val dump : t -> string list
(** Serialize the lock table (row-major, sorted row keys) and the
    per-transaction row lists as {!Leopard_trace.Fields} lines,
    preserving both list orders — [release] iterates them, so they pin
    pair-evaluation order.  Inverse of {!restore}. *)

val restore : string list -> t
(** Rebuild a lock table from {!dump} output.  Raises [Failure] on a
    malformed line. *)

val load : t -> Leopard_trace.Fields.Cursor.t -> unit
(** Add one {!dump} line (a lock entry, appended to its row, or a
    transaction's row list): how {!restore} and the checker's decoder
    fill a lock table, then call {!seal}. *)

val seal : t -> unit
(** Put every row back in {!dump} order once all lines are loaded. *)

val prune : t -> horizon:int -> int
(** Drop released entries whose release after-timestamp is [<= horizon]:
    every future acquisition starts after the horizon, so such locks can
    only be certainly-ordered with it.  Returns entries dropped. *)
