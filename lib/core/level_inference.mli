(** Isolation-level inference: which claims does a history support?

    The paper points out that Elle cannot distinguish repeatable read
    from serializable on PostgreSQL (§VI-F).  Leopard can: each
    (DBMS, level) claim names a set of mechanisms, so re-verifying one
    history against successively stronger profiles yields the strongest
    claim the history is consistent with — e.g. a run with write skew
    passes `postgresql/SI` but fails `postgresql/SR`, whose certifier
    check would have had to abort it.

    Inference replays one history against every profile of the given
    DBMS, feeding each trace to every profile in one pass (cheap:
    verification is linear), so it wants a complete, sorted history —
    use it offline or at the end of a run.

    Profiles are checked in {e claim-compatibility} mode
    ({!Checker.create}'s [relaxed_reads]): behaviour stronger than a
    claim never fails it — a serializable history's transaction-level
    snapshots are legal under a read-committed claim even though they are
    not what a statement-snapshot engine would have produced. *)

type verdict = {
  profile : Il_profile.t;
  passed : bool;
  violations : int;
  violating_mechanisms : string list;  (** e.g. [["SC"]] *)
}

val infer :
  dbms:string ->
  ?mark:(Checker.t -> unit) ->
  ((Leopard_trace.Trace.t -> unit) -> unit) ->
  verdict list
(** [infer ~dbms ~mark iter]: one verdict per profile of [dbms]
    (profiles named ["dbms/LEVEL"]), weakest first.  [mark] runs on each
    profile's checker before the first trace and should apply the
    history's marks as every verifying session does
    ([Harness.Marks.apply]): without them a commit with an unknown
    outcome stays active, its writes never install, and a read of one
    looks like a violation.  The default applies none, which suits a
    fault-free history.  [iter feed] must feed the history once,
    globally sorted by [ts_bef].  Returns [] for an unknown DBMS. *)

val strongest_passed : verdict list -> Il_profile.t option
(** The last passing profile in the conventional RC < RR < SI < SR
    strength order; [None] if everything failed. *)

val pp_verdicts : Format.formatter -> verdict list -> unit
