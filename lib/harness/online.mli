(** Live (online) verification — Leopard attached while the workload runs.

    The paper's deployment mode: the Tracer continuously collects traces
    from running clients and batches them into the two-level pipeline
    (§VI-C batches every 0.5 s); the Verifier consumes whatever the
    watermark proves dispatchable and keeps pace with the DBMS.

    [run] wires a {!Leopard.Checker} to a workload execution through the
    streaming pipeline: every trace enters a per-client queue the moment
    the client logs it, and on every simulated batch window the pipeline
    dispatches what is safe into the checker.  Because clients are still
    running, a queue can be momentarily empty; the pipeline's watermark
    then relies on each client's last-seen timestamp, so dispatch order
    (Theorem 1) still holds — the same verification verdicts as an
    offline pass over the full sorted history, which the tests assert
    against an unobserved replay of the same config (a run is
    deterministic from its seed). *)

type result = {
  outcome : Run.outcome;
      (** the run's counters and marks; it carries no traces (its
          [client_traces] are empty) *)
  report : Leopard.Checker.report;
  verify_cpu_s : float;  (** CPU time spent inside verification calls *)
  rounds : int;  (** batch windows processed *)
  max_lag : int;  (** peak produced-but-not-yet-verified traces *)
  final_lag : int;
      (** traces produced but never verified, measured {e after} the
          final drain: exactly [late_dropped + stranded].  0 means the
          verifier saw every produced trace; non-zero is degradation the
          report already accounts for, never silent loss. *)
  stranded : int;
      (** traces still queued behind a source the pipeline closed as
          crashed — produced, never dispatched, counted into the
          checker as lost ([Checker.note_lost_traces]). *)
}

val run :
  ?batch_window_ns:int ->
  ?gc_every:int ->
  ?max_stall_ns:int ->
  ?gc_watermark:int ->
  ?checkpoint:string ->
  il:Leopard.Il_profile.t ->
  Run.config ->
  result
(** [batch_window_ns] defaults to 500_000 ns of simulated time (the
    paper's 0.5 s scaled to simulator latencies).  The config's
    [observer] and [tick] hooks are taken over by the monitor.

    The monitor is a live {!Session}: chaos crashes, losses and wire
    give-ups are marked the round they appear, so the verdict degrades
    to [Inconclusive] rather than a false one, and a crashed client's
    source reports {!Leopard.Pipeline.Closed_crashed} instead of
    pinning the watermark.  [max_stall_ns] (simulated time, in whole
    batch windows) bounds how long an empty-but-live source may pin it.
    [gc_watermark] (default: off) truncates once that many traces were
    dispatched since the last cut; [checkpoint] (requires
    [gc_watermark], else [Invalid_argument]) receives a frame per cut
    and a final one after finalize.

    Raises [Invalid_argument] on a config with [repl] or [shard]: a
    failover or coordinator crash can mark a commit lost or ambiguous
    after its traces were dispatched, so those runs verify offline
    ({!Session.of_outcome}). *)
