(** Deduced transaction dependencies and the deduction log.

    The four verification mechanisms cooperate by exchanging the
    dependencies each of them can prove (paper §V-A): the consistent-read
    check deduces wr edges, mutual exclusion and first-updater-wins deduce
    ww edges, and rw edges follow from a wr edge plus the version order
    (Fig. 9).  The log records every deduction with its source so the
    serialization-certifier check can consume them and the evaluation can
    report which uncertain dependencies were recovered (Fig. 13). *)

type kind = Ww | Wr | Rw

val kind_to_string : kind -> string

type source =
  | Direct  (** non-overlapping intervals: Fig. 3(a) *)
  | From_cr  (** unique candidate match (§V-A) *)
  | From_me  (** unique feasible lock order (Theorem 3) *)
  | From_fuw  (** unique feasible commit order (Theorem 4) *)
  | From_version_order  (** adjacent versions with certain commit order *)
  | Derived_rw  (** wr + version order (Fig. 9) *)

val source_to_string : source -> string

val all_sources : source list
(** Every source, in declaration (report) order. *)

val source_rank : source -> int
(** Position in {!all_sources} — indexes the checker's per-source
    truncation tallies. *)

type t = { kind : kind; from_txn : int; to_txn : int; source : source }

module Log : sig
  (** The deduction log: every (kind, from, to) triple deduced so far,
      with the source that deduced it first.

      A logged edge owns no heap block.  The log keeps one row per
      [from_txn] in an int-keyed table; a row is a small open-addressed
      [int array] of [(to_txn, tag)] pairs, the tag packing the kind and
      the source.  So an edge costs two words of its row plus the
      table's slack, a row about seven words more, [add] and [mem] are
      expected O(1) however many edges one transaction has, and any int
      is a valid id.  Per-source counts are kept up to date, so
      {!count} and {!by_source} cost nothing. *)

  type dep = t
  type t

  val create : unit -> t

  val add : t -> dep -> bool
  (** Record a deduction; [false] if the (kind, from, to) triple was
      already known, whose first source then stands. *)

  val mem : t -> kind -> int -> int -> bool
  val count : t -> int

  val by_source : t -> (source * int) list
  (** Entries per source, sources without entries left out, in
      {!all_sources} order. *)

  val sweep : t -> keep:(kind -> int -> int -> bool) -> (source -> unit) -> unit
  (** [sweep t ~keep dropped] removes every entry [(kind, from, to)]
      for which [keep kind from to] is false, calling [dropped] with
      each removed entry's source, in no particular order; the entries
      [keep] accepts stay as they are.  One pass over the log, which is
      how a truncating checker folds the entries no later trace can
      deduce again or look up into its tallies. *)

  val entries : t -> dep list
  (** All logged deductions in a canonical (kind, from, to) order —
      deterministic regardless of insertion history, for checkpoint
      serialization. *)
end
