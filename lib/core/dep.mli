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
  type dep = t
  type t

  val create : unit -> t

  val add : t -> dep -> bool
  (** Record a deduction; [false] if the (kind, from, to) triple was
      already known. *)

  val mem : t -> kind -> int -> int -> bool
  val count : t -> int
  val by_source : t -> (source * int) list
  val iter : t -> (dep -> unit) -> unit

  val txns : t -> int list
  (** Sorted list of transaction ids with at least one logged edge. *)

  val take_txn : t -> int -> dep list
  (** Drop the log entries touching a transaction and return them, so a
      truncating checker can fold them into accumulated tallies before
      the memory is reclaimed. *)

  val entries : t -> dep list
  (** All logged deductions in a canonical (kind, from, to, source)
      order — deterministic regardless of insertion history, for
      checkpoint serialization. *)
end
