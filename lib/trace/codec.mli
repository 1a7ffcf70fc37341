(** A plain-text trace format, for recording histories and re-checking
    them offline.

    Real deployments decouple collection from verification: clients
    append traces to a log while running, and the checker replays the log
    later (or on another machine).  One line per trace:

    {v
    R <ts_bef> <ts_aft> <txn> <client> [!] <t.r.c>=<value>,...
    W <ts_bef> <ts_aft> <txn> <client> <t.r.c>=<value>,...
    C <ts_bef> <ts_aft> <txn> <client>
    A <ts_bef> <ts_aft> <txn> <client>
    v}

    [R] is a read (with [!] marking a locking read), [W] a write, [C] a
    commit, [A] an abort; cells are [table.row.column].  Lines beginning
    with [#] and blank lines are ignored.  The format is stable,
    diff-friendly and greppable.

    A single file can span server restarts: an {e epoch marker} line

    {v
    E <at> <epoch> <replayed> <damaged>
    v}

    records a crash at instant [at] after which the server recovered
    into [epoch] (1-based), replaying [replayed] WAL records of which
    [damaged] were torn, lost, reordered or duplicated.

    An {e ambiguous-commit marker} line

    {v
    U <at> <txn> <client>
    v}

    records that [client] gave up at instant [at] on transaction
    [txn]'s COMMIT without learning the outcome (the request or its
    acknowledgement was lost on the wire): the transaction has no
    terminal trace and its commit status is unknowable from the stream
    alone.  Checkers feed these to [Checker.mark_ambiguous_commit]
    before the traces.

    A {e leader marker} line

    {v
    L <at> <epoch> <primary> <lost-csv|->
    v}

    records a failover at instant [at]: a follower was promoted into
    [epoch] (1-based) as the new [primary], truncating the replication
    log to the survivor prefix; the comma-separated transaction ids
    beyond that prefix were lost with the old timeline ([-] when the
    failover was lossless).  Checkers feed these to
    [Checker.note_failover] before the traces.

    A {e shard marker} line

    {v
    S <at> <shards>
    v}

    declares (at instant [at], normally 0) that the file spans a shard
    group of [shards] hash-range partitions: one trace file covers the
    whole group, and cross-shard dependencies stitch through it.

    A {e prepare marker} line

    {v
    P <at> <txn> <shard-csv> <c|a|?>
    v}

    records the disposition of [txn]'s two-phase-commit round across
    the comma-separated shards at instant [at]: [c] the coordinator
    decided commit, [a] it decided abort (veto or vote timeout — a
    definite outcome), [?] it crashed before deciding — the outcome is
    unknowable to the client, and checkers feed these to
    [Checker.mark_coord_ambiguous] before the traces.

    All marker kinds sort chronologically with the traces.  One writer
    ({!save_ext}) produces the format and one line loop reads it: the
    streaming {!fold}, and behind it a strict ({!load_all}), a lenient
    ({!load_lenient_all}) and a markers-only ({!load_markers}) reader. *)

val header : string
(** The recommended first line, ["# leopard-trace v1"]. *)

type epoch_mark = {
  at : int;  (** simulated instant of the crash *)
  epoch : int;  (** 1-based epoch entered by the recovery *)
  replayed : int;  (** WAL records replayed *)
  damaged : int;  (** records damaged by durability faults *)
}

val epoch_to_line : epoch_mark -> string
(** Encode one epoch marker (no trailing newline). *)

type ambiguous_mark = {
  at : int;  (** simulated instant the client gave up *)
  txn : int;  (** transaction whose commit outcome is unknown *)
  client : int;  (** session that issued the commit *)
}

val ambiguous_to_line : ambiguous_mark -> string
(** Encode one ambiguous-commit marker (no trailing newline). *)

type leader_mark = {
  at : int;  (** simulated instant of the promotion *)
  epoch : int;  (** 1-based epoch entered by the new primary *)
  primary : int;  (** follower id promoted to primary *)
  lost : int list;  (** committed txns on the truncated log suffix *)
}

val leader_to_line : leader_mark -> string
(** Encode one leader marker (no trailing newline). *)

type shard_mark = {
  at : int;  (** instant the topology took effect (normally 0) *)
  shards : int;  (** number of hash-range partitions; >= 2 *)
}

val shard_to_line : shard_mark -> string
(** Encode one shard marker (no trailing newline). *)

type disposition =
  | Committed  (** the coordinator decided commit *)
  | Aborted  (** the coordinator decided abort — a definite outcome *)
  | Unknown  (** the coordinator crashed before deciding *)

type prepare_mark = {
  at : int;  (** simulated instant the round was decided (or orphaned) *)
  txn : int;
  shards : int list;  (** participating shards, ascending *)
  disposition : disposition;
}

val prepare_to_line : prepare_mark -> string
(** Encode one prepare marker (no trailing newline). *)

type entry =
  | Trace of Trace.t
  | Epoch of epoch_mark
  | Ambiguous of ambiguous_mark
  | Leader of leader_mark
  | Shard of shard_mark
  | Prepare of prepare_mark

val entry_of_line : string -> (entry option, string) result
(** Decode one line; [Ok None] for comments and blank lines.  Malformed
    markers are errors, like malformed traces. *)

val to_line : Trace.t -> string
(** Encode one trace (no trailing newline). *)

val of_line : string -> (Trace.t option, string) result
(** Decode one line; [Ok None] for comments, blank lines {e and} epoch
    markers (use {!entry_of_line} to observe those). *)

val save_ext :
  path:string ->
  ?ambiguous:ambiguous_mark list ->
  ?leaders:leader_mark list ->
  ?shards:shard_mark list ->
  ?prepares:prepare_mark list ->
  epochs:epoch_mark list ->
  Trace.t list ->
  unit
(** Header, traces, and markers merged at their instants ([traces] must
    be sorted by [ts_bef]).  Raises [Sys_error] if [path] cannot be
    written. *)

type contents = {
  c_traces : Trace.t list;
  c_epochs : epoch_mark list;
  c_ambiguous : ambiguous_mark list;
  c_leaders : leader_mark list;
  c_shards : shard_mark list;
  c_prepares : prepare_mark list;
}
(** Everything a trace file can carry, each kind in file order. *)

val fold :
  path:string ->
  bad:(int -> string -> unit) ->
  (int -> entry -> 'a -> 'a) ->
  'a ->
  'a
(** [fold ~path ~bad f init] streams the file: [f lineno entry acc] for
    each entry in file order, [bad lineno diagnostic] for each line that
    does not decode; comments and blank lines reach neither.  Line
    numbers are 1-based.  Raise out of [f] or [bad] to stop early.  Holds
    one line at a time.  Raises [Sys_error] if the file cannot be
    opened. *)

val load_all : path:string -> (contents, string) result
(** Every entry of the file; the first malformed line fails the whole
    load with ["line N: diagnostic"] (1-based).  Raises [Sys_error] if
    the file cannot be opened. *)

val load_lenient_all : path:string -> contents * (int * string) list
(** Like {!load_all}, but a malformed line is skipped and reported as
    [(1-based line number, diagnostic)] instead of discarding the whole
    file — truncated or partially corrupted trace files (crashed
    clients, torn writes) still yield every decodable entry.  Feed the
    skipped count to [Checker.note_lost_traces] so the verdict degrades
    to [Inconclusive] rather than silently "verifying" a partial
    history. *)

val load_markers : path:string -> (contents * int, string) result
(** Every marker of the file ([c_traces] is empty) and the number of its
    trace lines.  A trace line — one whose first field is [R], [W], [C]
    or [A] — is recognised by that tag and counted, not decoded, so a
    malformed one is left for a reader that decodes it; any other
    malformed line fails the load like {!load_all}.  Raises [Sys_error]
    if the file cannot be opened. *)
