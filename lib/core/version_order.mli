(** Ordered versions per cell — the verifier's mirror of MVCC storage.

    The CR verification (§V-A) keeps, for every recently accessed cell,
    the committed versions ordered by the after-timestamp of their
    installation interval.  Following the paper's transaction model ("a
    commit installs all versions created by a transaction"), the
    {e installation interval} used for visibility reasoning is the
    committing transaction's commit-trace interval; the write operation's
    own interval is retained as [write_iv] for diagnostics and for the
    FUW verification.

    Versions also carry the readers that were matched to them, which is
    how rw dependencies are derived when a direct successor version
    appears (Fig. 9). *)

module Cell = Leopard_trace.Cell
module Trace = Leopard_trace.Trace
module Interval = Leopard_util.Interval

type version = {
  value : Trace.value;
  vtxn : int;  (** committing transaction *)
  write_iv : Interval.t;  (** interval of the write operation *)
  commit_iv : Interval.t;  (** interval of the commit — visibility point *)
  mutable readers : int list;  (** readers matched to this version *)
}

type t

val create : unit -> t

val install :
  t ->
  Cell.t ->
  version ->
  predecessor:(version option -> unit) ->
  successor:(version option -> unit) ->
  unit
(** Insert a committed version into the cell's chain, keeping ascending
    [commit_iv] after-timestamp order.  The callbacks receive the direct
    neighbours at the insertion point (used to emit version-order ww and
    derived rw dependencies). *)

val chain : t -> Cell.t -> version list
(** Ascending (oldest to newest); [] for unknown cells. *)

val live_versions : t -> int
(** Total versions currently retained — the CR memory metric. *)

val add_reader : t -> Cell.t -> version -> int -> unit
(** Register [reader] as matched to [cell]'s version [v], unless it
    already is: [v.readers] gains it at the head, so the list stays
    newest first with each reader once.  Expected O(1): a short list is
    scanned, and a version with many readers gets a membership table,
    dropped when {!prune} drops the version. *)

val iter_multi_writers : t -> (int -> unit) -> unit
(** Call [f] on the writer of every version on a chain holding two or
    more versions, in no particular order and possibly more than once.
    Only such a chain offers two candidates to one read, so these are
    the only writers whose ww edges candidate narrowing asks about.
    Costs O(versions on those chains), which {!prune} bounds. *)

val dump : t -> string list
(** Serialize every retained version as one {!Leopard_trace.Fields}
    line, cell-major in {!Cell.compare} order (deterministic whatever
    the insertion history); in-chain order and reader-list order are
    preserved exactly.  Inverse of {!restore}. *)

val restore : string list -> t
(** Rebuild a mirror from {!dump} output.  Raises [Failure] on a
    malformed line. *)

val load : t -> Leopard_trace.Fields.Cursor.t -> unit
(** Add one {!dump} line's version to its chain: how {!restore} and the
    checker's decoder fill a mirror, then call {!seal}. *)

val seal : t -> unit
(** Put every chain back in {!dump} order once all lines are loaded. *)

val prune : t -> horizon:int -> int
(** Garbage-collect versions that can never again be candidates for any
    snapshot taken at or after [horizon]: a version is dropped when it is
    certainly installed before {e every} version that could still serve
    as such a snapshot's pivot (the horizon-pivot and everything newer).
    Pivot-overlap versions are kept, per Fig. 6.  Only chains holding two
    or more versions are visited, since a lone version is its own pivot.
    Returns the number of versions dropped. *)
