(** The Verifier — mechanism-mirrored verification (paper §V, Algorithm 2).

    [feed] consumes traces in non-decreasing [ts_bef] order (as the
    two-level pipeline dispatches them) and mirrors the engine's internal
    state: ordered versions per cell, an interval lock table, a
    first-updater-wins registry and a dependency graph.  The four
    verifications run cooperatively and exchange the dependencies each can
    prove:

    - {b CR} checks every read against the minimal candidate version set
      (Theorem 2) and deduces wr edges from unique matches;
    - {b ME} checks conflicting lock pairs at release time (Theorem 3) and
      deduces ww edges;
    - {b FUW} checks committed co-updaters of a row (Theorem 4) and
      deduces ww edges;
    - {b SC} mirrors the engine's certifier over all deduced edges, plus
      rw edges derived from wr + version order (Fig. 9).

    Reads are verified once the dispatch frontier passes their
    after-timestamp, which guarantees every version possibly visible to
    them has been installed in the mirror — this is what makes the online
    check sound despite out-of-order commit/read [ts_bef] interleavings.

    Obsolete state is pruned periodically: versions behind the pivot of
    every possible future snapshot, released locks behind the horizon,
    FUW entries behind the horizon and garbage transactions of the
    dependency graph (Definition 4, Theorem 5).

    {b The horizon} is the earliest snapshot a {e future} statement can
    take: the frontier, lowered to the first operation of every active
    transaction that may still issue statements.  Its premise is that
    clients are sequential (closed-loop): a client starts its next
    transaction only after the previous one returned.  So when a trace
    names a different transaction than its client's previous one, that
    previous transaction — if still active because its terminal trace
    was lost — is {e superseded}: any trace it still has lies behind the
    frontier, where [feed] refuses it and the pipeline drops it as late.
    A superseded transaction keeps its status (marks still apply, and
    {!finalize} still counts it unterminated) but no longer pins the
    horizon, so a lost terminal costs one transaction instead of all
    pruning and truncation from then on.

    A client that interleaves transactions is outside the trace model
    and is guarded: when a superseded transaction gets another trace, the
    mark is cleared if no prune has passed its first [ts_bef] (checking
    proceeds exactly as if it had never been set); otherwise the
    transaction becomes indeterminate and its reads inconclusive, so the
    verdict degrades to [Inconclusive] and never becomes a false
    [Violation]. *)

module Trace = Leopard_trace.Trace

type t

val create :
  ?gc_every:int ->
  ?narrow_candidates:bool ->
  ?relaxed_reads:bool ->
  Il_profile.t ->
  t
(** [gc_every] (default 512 traces, 0 disables) controls pruning
    frequency.

    [narrow_candidates] (default true) enables the paper's §V-A
    cooperation optimization: ww dependencies deduced by the ME and FUW
    mechanisms order versions whose installation intervals overlap, so a
    version provably overwritten before the snapshot is dropped from the
    candidate set even when intervals alone could not exclude it.  A
    smaller candidate set means stricter CR checks (more violations
    caught); on a correct engine the deduced order is real, so no false
    positives are introduced.

    [relaxed_reads] (default false) switches statement-level CR from the
    exact mechanism mirror ("the snapshot is taken at this statement") to
    claim compatibility ("the snapshot was taken somewhere between
    transaction begin and this statement").  Use it when asking whether a
    history {e supports} a weaker claim — e.g. level inference verifying
    a serializable history against a read-committed profile, where the
    stronger engine's transaction-level snapshots are legal. *)

val feed : t -> Trace.t -> unit
(** Traces must arrive in non-decreasing [ts_bef] order; raises
    [Invalid_argument] otherwise.  A structurally identical duplicate of
    a trace already fed at the same [(client, txn, ts_bef)] (a double
    delivery) is silently dropped and counted in
    {!degradation.dup_traces_dropped}. *)

val feed_all : t -> Trace.t list -> unit

val finalize : t -> unit
(** Flush deferred read checks and run a last pruning pass.  Must be
    called once after the final trace. *)

val truncate : t -> watermark:int -> unit
(** Fold the verified prefix into the compact summary.  [watermark] is
    the pipeline's progress proof ({!Pipeline.watermark}): every trace
    not yet dispatched has [ts_bef >= watermark].  The checker prunes
    all four mechanism mirrors at [min watermark (internal horizon)]
    exactly as periodic gc does, then additionally folds deduction-log
    entries whose transactions no longer appear in {e any} live
    structure into accumulated per-source tallies — the one structure
    periodic gc never bounds.  Folded counts are merged back into
    {!report.deps_deduced} / {!report.deduced_by_source}, so a
    truncated run reports the same totals as an untruncated one; open
    ambiguous/lost/indeterminate sets, degradation counters and stored
    bugs are always retained.  After a truncation, {!live_size} is
    O(window): bounded by the state reachable from live transactions.
    Safe to call at any dispatch point, any number of times. *)

val mark_indeterminate : t -> txn:int -> unit
(** Declare that [txn]'s commit outcome is unknowable from the trace
    stream (its client crashed with the transaction in flight — the
    commit may or may not have taken effect server-side).  The
    transaction is excluded from ME/FUW/SC obligations, dependencies
    touching it are dropped, and reads observing one of its written
    values count as inconclusive instead of reporting a violation.  May
    be called before or after the transaction's traces are fed; call it
    no later than the batch in which the crash was detected so downstream
    reads are already covered when they are checked. *)

val mark_ambiguous_commit : t -> txn:int -> unit
(** Declare that [txn]'s client sent a COMMIT but never received the
    acknowledgement (wire faults: the request or its reply was lost, or
    the connection reset after delivery).  The transaction starts with
    the same exclusions as {!mark_indeterminate}, but is {e resolvable}:
    when a later {e committed} read observes one of its written values,
    the checker promotes it to definitely-committed ("outcome
    resolution" — an engine at read-committed or above never serves an
    unapplied write to a transaction that goes on to commit) and the
    read is re-checked against the promoted version.  Promoted
    transactions count in {!report.resolved_ambiguous} and stop
    degrading the verdict; unresolved ones count in
    {!degradation.ambiguous_commits}.  ME and FUW obligations stay
    waived even after promotion (their instants are unknowable).  Call
    it no later than the batch in which the give-up was detected, like
    {!mark_indeterminate}. *)

val mark_coord_ambiguous : t -> txn:int -> unit
(** Declare that [txn]'s 2PC coordinator crashed before reaching a
    commit decision (a trace-file [P … ?] marker, or [Run]'s
    coordinator-ambiguity channel): the client can never learn the
    outcome.  Identical exclusions and resolution rule to
    {!mark_ambiguous_commit}, but counted in a separate channel —
    {!degradation.coord_ambiguous_commits} — so coordinator give-ups
    and wire give-ups partition exactly: whichever mark arrives first
    claims the transaction, and a later mark from the other channel is
    a no-op.  A failover's {!note_failover} lost-suffix still wins over
    both ("lost beats ambiguous"). *)

val note_crashed_clients : t -> int -> unit
(** Add externally detected client crashes to the degradation stats. *)

val note_late_dropped : t -> int -> unit
(** Add traces the pipeline dropped as late ({!Pipeline.late_dropped}). *)

val note_lost_traces : t -> int -> unit
(** Add traces known lost before dispatch (collection drops, corrupt
    trace-file lines skipped by [Codec.load_lenient_all], ...). *)

val note_restart : t -> at:int -> replayed:int -> damaged:int -> unit
(** Declare one server crash–recovery epoch boundary (a trace-file
    [E] marker, or [Run]'s [epochs]): the server crashed at instant
    [at] and recovered by replaying [replayed] WAL records, [damaged]
    of which were torn, lost, reordered or duplicated.  A clean restart
    ([damaged = 0]) does not degrade the verdict — the trace stream is
    complete and every post-crash timestamp is fresher than the crash,
    so the obligations remain fully checkable.  Damaged records are
    counted in {!degradation.recovery_lost_records} and weaken
    [Verified] to [Inconclusive].  Unlike {!note_lost_traces}, recovery
    damage never downgrades unmatched reads: the traces are all
    present, so a read contradicting them is still a provable
    violation.  Raises [Invalid_argument] on negative inputs. *)

val note_failover : t -> at:int -> epoch:int -> lost:int list -> unit
(** Declare one leader change (a trace-file [L] marker, or [Run]'s
    leader marks): at instant [at] a follower was promoted into epoch
    [epoch], truncating the replication log to the survivor prefix and
    losing the commits in [lost].  Call it {e before} feeding traces —
    lost transactions then enter the checker already indeterminate, and
    (unlike {!mark_ambiguous_commit}) they are {e never} resolvable: the
    surviving timeline provably lacks them, so a read observing their
    values is inconclusive rather than proof of commit.  A lossless
    failover ([lost = []]) does not degrade the verdict; lost commits
    are counted in {!degradation.lost_suffix_commits} and weaken
    [Verified] to [Inconclusive] — never a false [Violation].  Raises
    [Invalid_argument] if [at < 0] or [epoch < 1]. *)

type degradation = {
  crashed_clients : int;
  indeterminate_txns : int;  (** transactions marked indeterminate *)
  dup_traces_dropped : int;  (** duplicate deliveries deduped by [feed] *)
  late_traces_dropped : int;  (** reported via {!note_late_dropped} *)
  lost_traces : int;  (** reported via {!note_lost_traces} *)
  inconclusive_reads : int;
      (** reads whose observed value matches an indeterminate write:
          neither verified nor a violation *)
  unterminated_txns : int;
      (** transactions with no terminal trace and no indeterminate mark
          at [finalize] (truncated or lossy collection), superseded ones
          included; decided only by [finalize], 0 before it *)
  restarts : int;  (** crash–recovery epochs ({!note_restart}) *)
  recovery_lost_records : int;
      (** WAL records damaged across all recoveries; non-zero weakens
          [Verified] to [Inconclusive] *)
  ambiguous_commits : int;
      (** commits still ambiguous after resolution
          ({!mark_ambiguous_commit} minus promotions); non-zero weakens
          [Verified] to [Inconclusive] *)
  failovers : int;  (** leader changes ({!note_failover}) *)
  lost_suffix_commits : int;
      (** commits reported lost with a failover's truncated log suffix;
          non-zero weakens [Verified] to [Inconclusive] *)
  coord_ambiguous_commits : int;
      (** commits still ambiguous because the 2PC coordinator crashed
          undecided ({!mark_coord_ambiguous} minus promotions); disjoint
          from [ambiguous_commits] by first-mark precedence; non-zero
          weakens [Verified] to [Inconclusive] *)
}

val degradation_free : degradation -> bool
(** All counters zero — the collection was complete and clean, so a
    bug-free report means [Verified], not merely "nothing found".
    [restarts] and [failovers] are exempt: clean multi-epoch and
    multi-leader traces still verify. *)

type report = {
  traces : int;
  committed : int;
  aborted : int;
  bugs_total : int;
  bugs : Bug.t list;  (** first 10_000, in detection order *)
  bugs_by_mechanism : (Bug.mechanism * int) list;
      (** violation counts per mechanism (complete, not capped) *)
  deps_deduced : int;
  deduced_by_source : (Dep.source * int) list;
  reads_checked : int;
  peak_live : int;  (** high-water mark of mirrored-state size (versions +
                        locks + FUW entries + graph nodes/edges + deferred
                        reads + live transactions + deduction-log entries)
                        — the memory metric *)
  final_live : int;
  pruned_versions : int;
  pruned_locks : int;
  pruned_fuw : int;
  pruned_graph : int;
  truncations : int;  (** {!truncate} calls *)
  truncated_deps : int;
      (** deduction-log entries folded into tallies by {!truncate};
          already included in [deps_deduced] *)
  resolved_ambiguous : int;
      (** ambiguous commits promoted to definitely-committed by a later
          committed read observing their writes *)
  degradation : degradation;
}

val report : t -> report

type verdict =
  | Verified  (** clean report over a complete, undegraded collection *)
  | Violation  (** at least one isolation violation was proven *)
  | Inconclusive of string
      (** no violation proven, but the collection degraded (crashes,
          losses, indeterminate outcomes) — the argument summarizes how.
          Soundness note: violations found under degradation are still
          reported as {!Violation}; degradation never hides a proven
          bug, it only prevents a hollow "verified". *)

val verdict : report -> verdict

val deduced : t -> Dep.kind -> int -> int -> bool
(** Deduction-log membership — feeds the Fig. 13 classification. *)

val live_size : t -> int
(** Current mirrored-state size (see {!report.peak_live}). *)

val set_dep_hook : t -> (Dep.t -> unit) -> unit
(** Subscribe to every fresh deduction (used by the naive cycle-search
    baseline to obtain the same dependencies Leopard deduces). *)

val encode : t -> string list
(** Serialize the full live state as one {!Leopard_trace.Fields} record
    per line, tagged with its kind ([h] header, [s] scalars, [x]
    transactions, [vo]/[me]/[fw]/[sc] mirror entries, ...) —
    deterministic (hashtables are dumped sorted; semantically ordered
    lists keep their exact order), so feeding the same remaining stream
    to a decoded checker reproduces an uninterrupted run's report
    field-for-field.  Call after {!truncate} for a compact image.  The
    dep hook is not serialized. *)

val decode :
  ?gc_every:int ->
  ?narrow_candidates:bool ->
  ?relaxed_reads:bool ->
  Il_profile.t ->
  string list ->
  (t, string) result
(** Rebuild a checker from {!encode} output, in one pass: each record,
    in order, fills a checker fresh from {!create}.  The profile and
    flags must match the ones the checkpoint was written under ([Error]
    otherwise — resuming under different rules would silently change
    the verdict); a malformed record is [Error "malformed TAG"], never a
    partially restored checker. *)
