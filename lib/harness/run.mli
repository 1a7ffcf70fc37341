(** Closed-loop workload execution — the client side of the paper's setup.

    [execute] simulates [clients] concurrent clients (the paper's "thread
    scale") running transaction programs from a {!Leopard_workload.Spec.t}
    against a {!Minidb.Engine.t}.  Each operation is issued with a network
    hop, executed at the server (possibly after lock waits), and answered
    with another hop; the client logs the interval trace
    [(ts_bef, ts_aft, payload)] exactly as the paper's Tracer does.

    When the engine aborts a transaction (deadlock, FUW, certifier), the
    client logs an abort trace whose interval spans the failed call, and
    moves on to the next transaction.

    The result carries both the black-box view (per-client trace streams,
    monotone in [ts_bef] as Algorithm 1 requires) and the white-box view
    (ground-truth dependencies, commit/abort counts, simulated duration)
    used to score the verification. *)

module Trace = Leopard_trace.Trace

type latency = {
  net_mean_ns : float;  (** mean one-way network hop (exponential) *)
  think_mean_ns : float;  (** mean gap between transactions *)
  op_gap_ns : float;  (** mean client-side gap between operations *)
  commit_extra_ns : float;  (** extra server latency on commit (fsync) *)
}

val default_latency : latency

type stop = Txn_count of int | Sim_time_ns of int
(** Stop after N {e committed-or-aborted} transactions in total, or at a
    simulated instant. *)

type net_config = {
  net_fault : Leopard_net.Faulty_link.config;
      (** seeded per-message fault model of the wire *)
  net_client : Leopard_net.Client.config;
      (** request timeouts and bounded retries *)
  queue_capacity : int;
      (** per-session server queue bound; requests beyond it are
          load-shed with a definite [Rejected] *)
  session_timeout_ns : int;
      (** how long the server keeps an orphaned transaction (client gave
          up) before reaping it with an abort *)
}

val net_config :
  ?fault:Leopard_net.Faulty_link.config ->
  ?client:Leopard_net.Client.config ->
  ?queue_capacity:int ->
  ?session_timeout_ns:int ->
  unit ->
  net_config
(** Defaults: disabled link, default client config, capacity 64, session
    timeout 1_000_000 ns.  Raises [Invalid_argument] on a non-positive
    capacity or timeout. *)

type net_rt
(** Per-run wire state (link, per-client retry streams, ambiguous-commit
    log), created by {!config} like the chaos plane's. *)

val net_ambiguous : net_rt -> (int * int * int) list
(** [(client, txn, gave_up_at)] of every commit whose outcome the client
    never learned, oldest first — pollable mid-run by an online monitor. *)

type repl_config = {
  cluster : Leopard_replication.Cluster.config;
      (** follower count, ack mode, replication link faults, partition
          windows, planted replication faults *)
  failover_at : int list;
      (** explicit promotion instants (simulated ns, positive) *)
  promote_on_partition : bool;
      (** additionally derive one promotion per primary-isolating
          partition window ([follower = -1]), fired
          [election_timeout_ns] after the window opens *)
  election_timeout_ns : int;
  split_brain_ns : int;
      (** with {!Leopard_replication.Repl_fault.Split_brain} planted,
          how long the deposed primary keeps serving unfenced *)
}

val repl_config :
  ?failover_at:int list ->
  ?promote_on_partition:bool ->
  ?election_timeout_ns:int ->
  ?split_brain_ns:int ->
  Leopard_replication.Cluster.config ->
  repl_config
(** Defaults: no explicit failovers, no partition-derived promotions,
    election timeout 300_000 ns, split-brain window 300_000 ns.  Raises
    [Invalid_argument] on non-positive instants or windows. *)

type shard_config = {
  group : Leopard_shard.Group.config;
      (** shard count, protocol link faults, partitions, timeouts,
          planted shard faults *)
  coord_crash_at : int list;
      (** simulated instants of coordinator crashes (positive);
          undecided 2PC rounds at each instant are orphaned into the
          coordinator-ambiguity channel *)
  part_crash_at : (int * int) list;
      (** [(instant, shard)] participant crash/restarts: the shard's
          volatile prepared state dies and its store rebuilds from its
          own WAL through the durability fault model, truncated to the
          prefix that validates against the coordinator's decision
          log *)
  stack : Leopard_compose.Stack.config option;
      (** run every shard as a primary/follower replica set — the
          stacked fault planes *)
  shard_failover_at : (int * int) list;
      (** [(instant, shard)] failovers inside the per-shard replica
          sets; requires [stack] *)
}

val shard_config :
  ?coord_crash_at:int list ->
  ?part_crash_at:(int * int) list ->
  ?stack:Leopard_compose.Stack.config ->
  ?shard_failover_at:(int * int) list ->
  Leopard_shard.Group.config ->
  shard_config
(** Defaults: no coordinator or participant crashes, no replica sets,
    no shard failovers.  Raises [Invalid_argument] on non-positive
    instants, a shard index outside [0 .. shards-1], or shard failovers
    without a [stack]. *)

type config = {
  spec : Leopard_workload.Spec.t;
  profile : Minidb.Profile.t;
  level : Minidb.Isolation.level;
  faults : Minidb.Fault.Set.t;
  clients : int;
  stop : stop;
  seed : int;
  latency : latency;
  latency_of : (int -> latency) option;
      (** per-client latency override (heterogeneous clients /
          stragglers); defaults to [latency] for every client *)
  observer : (Trace.t -> unit) option;
      (** called synchronously for every trace as the client logs it —
          the hook live (online) verification attaches to *)
  tick : (int * (unit -> unit)) option;
      (** [(interval_ns, f)]: run [f] every [interval_ns] of simulated
          time while clients are active (the paper batches traces into
          the pipeline every 0.5 s) *)
  chaos : Chaos.t option;
      (** collection-path fault injection (client crashes, lossy
          delivery, clock skew); [None] leaves the run byte-identical to
          the chaos-free harness *)
  net : net_rt option;
      (** wire mode: requests travel as serialized messages through a
          seeded faulty link to per-session server queues, with
          timeouts, bounded retries and idempotent commit tokens.  With
          a disabled (zero-rate) link the traces are byte-identical to
          the in-process path for the same workload seed; [None] skips
          the wire entirely *)
  max_retries : int;
      (** how many times a client re-runs a transaction program the
          engine aborted (deadlock victim, FUW, certifier); 0 preserves
          the abort-and-move-on behaviour *)
  retry_backoff_ns : float;
      (** mean of the first retry delay; doubles per attempt (bounded
          exponential backoff, capped at 32x) *)
  wal : bool;
      (** log every commit's installed write set to a {!Minidb.Wal};
          forced on whenever [crash_at] or [wal_faults] is set *)
  crash_at : int list;
      (** simulated instants at which the server crashes and recovers
          from the WAL; in-flight transactions die with a definite
          [Server_crash] abort and clients retry under [max_retries] *)
  wal_faults : Minidb.Wal.fault_cfg option;
      (** durability fault model applied at crash/replay time, drawn
          from its own seeded stream (never the workload's) *)
  repl : repl_config option;
      (** replication mode: the engine is the primary of a follower
          cluster; commits ship over the replication wire and a seeded
          orchestrator can promote a follower mid-run.  Mutually
          exclusive with [net].  With a disabled replication environment
          (no link faults, hops, partitions, or follower reads) the run
          is byte-identical to the single-node path on the same seed *)
  shard : shard_config option;
      (** shard mode: the key space is hash-range partitioned across a
          {!Leopard_shard.Group} and cross-shard commits run two-phase
          commit over the group's seeded faulty links; single-shard
          transactions take a fast path that never touches the
          protocol.  Mutually exclusive with [net] and [repl].  With a
          disabled protocol environment (no link faults, hops, or
          partitions) the run is byte-identical to the unsharded path
          on the same seed *)
}

val config :
  ?faults:Minidb.Fault.Set.t ->
  ?clients:int ->
  ?seed:int ->
  ?latency:latency ->
  ?latency_of:(int -> latency) ->
  ?observer:(Trace.t -> unit) ->
  ?tick:int * (unit -> unit) ->
  ?chaos:Chaos.config ->
  ?net:net_config ->
  ?max_retries:int ->
  ?retry_backoff_ns:float ->
  ?wal:bool ->
  ?crash_at:int list ->
  ?wal_faults:Minidb.Wal.fault_cfg ->
  ?repl:repl_config ->
  ?shard:shard_config ->
  spec:Leopard_workload.Spec.t ->
  profile:Minidb.Profile.t ->
  level:Minidb.Isolation.level ->
  stop:stop ->
  unit ->
  config

type outcome = {
  client_traces : Trace.t list array;
      (** per client, in issue order (monotone ts_bef) *)
  op_trace : (int, Trace.t) Hashtbl.t;  (** op id -> its trace *)
  truth_deps : Minidb.Ground_truth.dep list;
      (** exact dependencies between committed transactions *)
  committed : int -> bool;
  peek : Leopard_trace.Cell.t -> Trace.value option;
      (** final committed value of a cell (white-box test oracle) *)
  snapshot :
    unit -> (Leopard_trace.Cell.t * Minidb.Version_store.version list) list;
      (** committed-state image of the live store — equality across a
          fault-free crash proves byte-identical recovery *)
  commits : int;
  aborts : int;
  aborts_fuw : int;
  aborts_certifier : int;
  aborts_deadlock : int;
  aborts_crash : int;  (** transactions killed by server crashes *)
  deadlocks : int;
  restarts : int;  (** crash–recovery epochs the run spanned *)
  epochs : Leopard_trace.Codec.epoch_mark list;
      (** crash boundaries, oldest first; [epoch] is the 1-based
          position *)
  wal_appended : int;  (** commit records logged *)
  wal_damaged : int;  (** records damaged across all recoveries *)
  sim_duration_ns : int;
  ops : int;
  retries : int;  (** engine-aborted attempts re-run under [max_retries] *)
  crashed_clients : int list;  (** chaos-killed clients, ascending *)
  indeterminate_txns : int list;
      (** transactions in flight at a client crash — their outcome is
          unknowable from the traces (ascending ids) *)
  chaos_dropped : int;  (** traces lost on the collection path *)
  chaos_duplicated : int;  (** traces delivered twice *)
  chaos_delayed : int;  (** traces delivered late *)
  net : net_stats option;  (** wire-mode statistics; [None] off the wire *)
  leaders : Leopard_trace.Codec.leader_mark list;
      (** failover boundaries, oldest first.  [lost] is what the cluster
          {e reported} lost — empty under the claim-clean replication
          faults, whose whole point is hiding the truncated suffix *)
  repl : Leopard_replication.Cluster.stats option;
      (** replication statistics; [None] when not replicated *)
  repl_ambiguous : (int * int * int) list;
      (** [(client, txn, gave_up_at)] of commits whose replication gate
          timed out (applied at the primary, durability across failover
          unknown), oldest first *)
  shard : Leopard_shard.Group.stats option;
      (** shard-group statistics; [None] off the shard plane *)
  shard_repl : Leopard_compose.Stack.stats option;
      (** per-shard replica-set statistics when the planes are stacked;
          honest shard failovers surface here (and as lossless leader
          marks), never as a degradation channel *)
  coord_ambiguous : (int * int * int) list;
      (** [(client, txn, orphaned_at)] of commits whose 2PC coordinator
          crashed before deciding, oldest first *)
  shard_marks : Leopard_trace.Codec.shard_mark list;
      (** the group-topology declaration ([S] line) when sharded *)
  prepare_marks : Leopard_trace.Codec.prepare_mark list;
      (** 2PC round dispositions ([P] lines), oldest first *)
}

and net_stats = {
  resets : int;  (** connection resets injected *)
  msg_dropped : int;  (** messages silently lost *)
  msg_duplicated : int;  (** messages delivered twice *)
  msg_delayed : int;  (** messages given extra latency *)
  msg_reordered : int;  (** messages routed through the reorder window *)
  rejected : int;  (** requests load-shed by a full session queue *)
  resends : int;  (** client retransmissions (attempts beyond the first) *)
  give_ups : int;  (** calls settled without any reply *)
  ambiguous : (int * int * int) list;
      (** [(client, txn, gave_up_at)] of commits with unknown outcome,
          oldest first *)
  dup_commit_acks : int;
      (** COMMITs the engine acknowledged idempotently (retried or
          link-duplicated commit tokens that had already been applied) *)
}

val execute : config -> outcome

val backoff_mean_ns : retry_backoff_ns:float -> tries:int -> float
(** Mean of the retry delay before attempt [tries + 1]:
    [retry_backoff_ns * 2^min(tries, 5)] — exposed pure so tests can
    assert the backoff is bounded. *)

val all_traces_sorted : outcome -> Trace.t list
(** Every trace of the run, globally sorted by [ts_bef] (convenience for
    feeding verifiers without a pipeline). *)
