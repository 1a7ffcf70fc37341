(** Isolation-level inference: which claims does a history support?

    The paper points out that Elle cannot distinguish repeatable read
    from serializable on PostgreSQL (§VI-F).  Leopard can: each
    (DBMS, level) claim names a set of mechanisms, so re-verifying one
    history against successively stronger profiles yields the strongest
    claim the history is consistent with — e.g. a run with write skew
    passes `postgresql/SI` but fails `postgresql/SR`, whose certifier
    check would have had to abort it.

    Each profile of the DBMS is its own bounded session
    ([Harness.Session.verify]) over the claim's trace source, marks and
    truncation cadence, one after another, so inference holds one
    truncation window at a time.  Each checks in {e claim-compatibility}
    mode ({!Checker.create}'s [relaxed_reads]): behaviour stronger than a
    claim never fails it — a serializable history's transaction-level
    snapshots are legal under a read-committed claim even though they are
    not what a statement-snapshot engine would have produced. *)

type verdict = {
  profile : Il_profile.t;
  passed : bool;
  violations : int;
  violating_mechanisms : string list;  (** e.g. [["SC"]] *)
}

val infer : dbms:string -> (Il_profile.t -> Checker.report) -> verdict list
(** [infer ~dbms verify]: one verdict per profile of [dbms] (profiles
    named ["dbms/LEVEL"]), weakest first, each from the report
    [verify profile] returns: one relaxed session over the whole
    history, with its marks — without them a commit with an unknown
    outcome stays active, its writes never install, and a read of one
    looks like a violation.  [] for an unknown DBMS. *)

val strongest_passed : verdict list -> Il_profile.t option
(** The last passing profile in the conventional RC < RR < SI < SR
    strength order; [None] if everything failed. *)

val pp_verdicts : Format.formatter -> verdict list -> unit
