(** Write-ahead log of commit records, with a seeded durability fault
    model.

    The engine appends one record per committed transaction — the full
    installed write set with its per-cell commit stamps — before the
    commit acknowledgement leaves the server.  After a simulated crash,
    {!Recovery} replays the surviving records to rebuild the
    {!Version_store}; with no faults the rebuilt committed state is
    byte-identical to the pre-crash committed state (proven in
    [test_recovery.ml]).

    The fault model corrupts the {e durability} path at crash/replay
    time, planting real post-recovery isolation violations for Leopard
    to find.  It is the third corner of the fault triangle:

    - {!Fault} corrupts live concurrency control (wrong answers while
      the server is up);
    - [Harness.Chaos] corrupts the collection path (the verifier sees
      less than what happened);
    - [Wal] faults corrupt what survives a crash (the server itself
      forgets or resurrects committed work).

    All draws come from a dedicated SplitMix64 stream seeded by
    [fault_cfg.seed]: the same seed replays the same damage, and the
    stream is never shared with the workload's RNG. *)

type write = {
  cell : Leopard_trace.Cell.t;
  value : Leopard_trace.Trace.value;
  write_op : int;  (** op id of the writing statement, for provenance *)
  commit_ts : int;  (** per-cell visibility stamp actually installed *)
}

type record = {
  txn : int;
  client : int;
  start_ts : int;
  commit_ts : int;  (** transaction-level commit stamp *)
  writes : write list;
}

(** The four durability faults.  Each plants a consistent-read anomaly
    in the recovered state (see [expected_mechanism]): a crash cannot
    retroactively create the certainly-overlapping committed intervals
    that ME/FUW violations require, so durability damage surfaces to the
    verifier as reads served from a wrong version chain. *)
type fault =
  | Torn_tail  (** the final record is half-applied: only a strict
                   prefix of its write set survives replay *)
  | Lost_fsync  (** a window of acknowledged tail records never reached
                    disk — a resurrected lost update *)
  | Reordered_flush  (** a record near the tail was flushed after its
                         successors and lost: an interior hole *)
  | Dup_replay  (** recovery re-applies a superseded record on top of
                    the state, resurrecting an overwritten version *)

val fault_to_string : fault -> string
val fault_of_string : string -> fault option

val expected_mechanism : fault -> string
(** The verifier family expected to catch the planted anomaly.  All four
    faults map to ["CR"]: the damage shows up as stale / aborted /
    resurrected reads against the value-matched candidate sets. *)

type fault_cfg = {
  seed : int;
  torn_tail_prob : float;
  lost_fsync_prob : float;
  lost_fsync_window : int;  (** max records lost per fsync window *)
  reordered_flush_prob : float;
  dup_replay_prob : float;
}

val fault_cfg :
  ?seed:int ->
  ?torn_tail_prob:float ->
  ?lost_fsync_prob:float ->
  ?lost_fsync_window:int ->
  ?reordered_flush_prob:float ->
  ?dup_replay_prob:float ->
  unit ->
  fault_cfg
(** All probabilities default to zero, window to 3, seed to 0. *)

val faults_disabled : fault_cfg -> bool
(** True when every probability is zero — the all-zero config is a
    proven no-op. *)

type damage = {
  torn_records : int;  (** records replayed with a truncated write set *)
  lost_records : int;  (** records dropped entirely (fsync window) *)
  reordered_records : int;  (** interior records lost to flush reorder *)
  duplicated_records : int;  (** superseded records re-applied on top *)
  lost_writes : int;  (** individual cell writes that did not survive *)
}

val no_damage : damage -> bool

val zero_damage : damage
(** The all-zero damage record (e.g. for a replication-shipped log
    rebuilt without touching the durability fault model). *)

val damaged_records : damage -> int
(** Total records affected — the count reported to the checker's
    degradation record via [Checker.note_restart]. *)

type t

val create : ?faults:fault_cfg -> unit -> t
val append : t -> record -> unit

val preload : t -> record list -> unit
(** Replace the durable log with [records] (oldest first), e.g. the
    survivor prefix a promoted replica received over replication.
    {!appended} is unchanged: the records were counted when the old
    primary appended them. *)

val appended : t -> int
(** Records appended since creation (monotone across crashes). *)

val size : t -> int
(** Records currently in the durable log. *)

val crash : t -> record list * damage
(** Simulate a crash: draw each fault once from the dedicated stream,
    damage the durable log accordingly, and return the records recovery
    must replay, in replay order.  A [Dup_replay] victim appears twice —
    its second occurrence last, to be re-applied at a fresh stamp.  The
    durable log is reset to the surviving records (without the replay
    duplicate), so a later crash starts from the recovered state. *)
