(** One verification session: a checker, the marks that govern its
    input, a trace source, a truncation cadence and an optional
    checkpoint.  [leopard --check], verified workload runs,
    {!Online.run}, campaign cells and the bench all verify through it.

    {b The canonical mark order} ({!Marks.apply}):
    + lost traces, so a read whose write may sit on a lost trace is
      inconclusive rather than a violation;
    + restart epochs;
    + indeterminate transactions, then crashed clients;
    + wire and replication-gate ambiguous commits, then coordinator
      orphans — the first mark claims a transaction, so the two
      ambiguity channels partition exactly;
    + failover leaders last — "lost beats ambiguous": a commit both
      ambiguous and lost at a failover is lost, never resolvable.

    Marks land before the traces they govern: an offline session applies
    them all before its first trace, a live one in the round they
    appear.  So a trace file is read twice ({!file_stream}): once for
    its marks, whose failover lines can name commits traced before them,
    and once to stream its traces.

    {b Truncation.}  With [gc_watermark = N > 0] an offline session
    truncates after every N-th trace at that trace's [ts_bef] (the
    source dispatches in [ts_bef] order, so nothing still to come is
    older); a live session, after a round in which N traces were
    dispatched since the last cut, at [Pipeline.watermark].

    {b Checkpoints.}  [checkpoint] (needs [gc_watermark]) gets a frame
    per cut.  A [Sorted] session prefixes each frame with a [cursor]
    record holding N, the traces consumed, so a later session over the
    same file can resume; a pipeline session cannot resume, so its
    frames are bare snapshots and the last one is the finalized state.
    The file's header fingerprints the profile, the cadences and, for a
    trace file, a digest of the whole file, read only when a checkpoint
    is named: a checkpoint never resumes against different input. *)

type stream = {
  total : int;  (** how many traces [iter] feeds *)
  iter : (Leopard_trace.Trace.t -> unit) -> unit;
      (** [iter feed] feeds every trace, in [ts_bef] order *)
}
(** One globally sorted trace stream. *)

type source =
  | Sorted of stream
  | Pipeline of Leopard.Pipeline.t  (** per-client streams, merged *)

val list_stream : Leopard_trace.Trace.t list -> stream
(** A list already sorted by [ts_bef]. *)

exception Bad_line of string
(** ["line N: diagnostic"]: a file stream met a line it cannot feed. *)

val file_stream :
  path:string -> (Leopard_trace.Codec.contents * stream, string) result
(** A strict check's two passes over the trace file at [path], holding
    no trace longer than its turn.  Pass 1 runs now
    ({!Leopard_trace.Codec.load_markers}): the file's markers, for
    {!Marks.of_codec}, and a stream whose [total] counts the trace lines
    without decoding them.  Pass 2 is the stream's [iter]: it decodes
    each trace line in file order and feeds it at once.  [iter] raises
    {!Bad_line} at a malformed trace line, and at a trace that sorts
    before its predecessor ({!Leopard_trace.Trace.compare_by_bef}), so
    it feeds exactly what a stable sort of the file would; [--record]
    writes files in that order.  [Error "line N: …"] for any other
    malformed line; raises [Sys_error] if the file cannot be opened. *)

type result = {
  report : Leopard.Checker.report;
  resumed_at : int option;  (** the cursor a resumed session restarted at *)
  warnings : string list;  (** why a named checkpoint was not resumed *)
  pipeline_peak : int;  (** [Pipeline.peak_memory]; 0 for [Sorted] *)
}

val verify :
  ?gc_every:int ->
  ?gc_watermark:int ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?file:string ->
  ?after_trace:(int -> unit) ->
  Leopard.Il_profile.t ->
  Marks.t ->
  source ->
  result
(** Verify a complete source.  [resume] restores the newest checkpoint
    frame that validates and reads past the traces its cursor counts,
    neither feeding nor keeping them (the snapshot already carries the
    marks); a missing, foreign or damaged checkpoint warns and starts
    fresh, with the same verdict.  [file] names the trace file a
    [Sorted] source was read from.
    [after_trace n] runs once the [n]-th trace and any cut it triggers
    are done.  Raises [Invalid_argument] on a checkpoint without
    [gc_watermark] or a resumed [Pipeline]. *)

val of_outcome :
  ?gc_every:int ->
  ?gc_watermark:int ->
  ?checkpoint:string ->
  Leopard.Il_profile.t ->
  Run.outcome ->
  result
(** {!Marks.of_outcome} over the pipeline of the run's per-client
    streams, each sorted by [ts_bef]: once a run is over, delivery
    delay no longer matters.  Safe to call from several domains. *)

(** {2 Live sessions} *)

type t

val create :
  ?gc_every:int -> ?gc_watermark:int -> ?checkpoint:string ->
  Leopard.Il_profile.t -> t

val mark : t -> Marks.t -> unit
(** Apply what is new since the last call.  Marks only grow: each call
    carries everything the previous ones did. *)

val round : t -> Leopard.Pipeline.t -> unit
(** Dispatch what is dispatchable, count late drops, truncate if due. *)

val finish : t -> Leopard.Checker.report
(** Finalize, write the last frame, close the checkpoint. *)
