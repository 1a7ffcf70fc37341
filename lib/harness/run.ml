module Trace = Leopard_trace.Trace
module Codec = Leopard_trace.Codec
module Rng = Leopard_util.Rng
module Engine = Minidb.Engine
module Sim = Minidb.Sim
module Net = Leopard_net
module Repl = Leopard_replication
module Shard = Leopard_shard
module Compose = Leopard_compose

type latency = {
  net_mean_ns : float;
  think_mean_ns : float;
  op_gap_ns : float;
  commit_extra_ns : float;
}

let default_latency =
  {
    net_mean_ns = 50_000.0;
    think_mean_ns = 100_000.0;
    op_gap_ns = 10_000.0;
    commit_extra_ns = 30_000.0;
  }

type stop = Txn_count of int | Sim_time_ns of int

(* Wire mode: requests travel as serialized messages through a seeded
   faulty link to a per-session server queue, instead of being invoked
   in-process.  The fault/client knobs are [Net]'s; [queue_capacity]
   bounds each session's server queue (load shedding beyond it);
   [session_timeout_ns] is how long the server keeps an orphaned
   transaction alive after its client gave up before reaping it. *)
type net_config = {
  net_fault : Net.Faulty_link.config;
  net_client : Net.Client.config;
  queue_capacity : int;
  session_timeout_ns : int;
}

let net_config ?(fault = Net.Faulty_link.disabled)
    ?(client = Net.Client.config ()) ?(queue_capacity = 64)
    ?(session_timeout_ns = 1_000_000) () =
  if queue_capacity < 1 then
    invalid_arg "Run.net_config: queue_capacity must be >= 1";
  if session_timeout_ns <= 0 then
    invalid_arg "Run.net_config: session_timeout_ns must be positive";
  { net_fault = fault; net_client = client; queue_capacity; session_timeout_ns }

(* Per-run wire state, created at config time (like [Chaos.create]) so an
   online monitor can poll [ambiguous] while the run progresses. *)
type net_rt = {
  ncfg : net_config;
  link : Net.Faulty_link.t;
  net_rngs : Rng.t array;  (* per-client retry/backoff jitter streams *)
  mutable ambiguous : (int * int * int) list;
      (* (client, txn, gave_up_at) of commits with unknown outcome;
         newest first *)
}

let net_ambiguous rt = List.rev rt.ambiguous

(* Replication mode: the engine is the primary of a [Repl.Cluster];
   every durable commit ships to followers over the replication wire,
   and a seeded orchestrator can promote a follower mid-run.
   [failover_at] lists explicit promotion instants;
   [promote_on_partition] additionally derives one promotion
   [election_timeout_ns] after the start of every primary-isolating
   partition window (a [follower = -1] window in the cluster config).
   When [Repl_fault.Split_brain] is planted, the deposed primary keeps
   serving its in-flight transactions for [split_brain_ns] after each
   promotion instead of being fenced immediately. *)
type repl_config = {
  cluster : Repl.Cluster.config;
  failover_at : int list;
  promote_on_partition : bool;
  election_timeout_ns : int;
  split_brain_ns : int;
}

let repl_config ?(failover_at = []) ?(promote_on_partition = false)
    ?(election_timeout_ns = 300_000) ?(split_brain_ns = 300_000) cluster =
  if election_timeout_ns <= 0 then
    invalid_arg "Run.repl_config: election_timeout_ns must be positive";
  if split_brain_ns <= 0 then
    invalid_arg "Run.repl_config: split_brain_ns must be positive";
  if List.exists (fun at -> at <= 0) failover_at then
    invalid_arg "Run.repl_config: failover instants must be positive";
  { cluster; failover_at; promote_on_partition; election_timeout_ns;
    split_brain_ns }

(* Shard mode: the key space is hash-range partitioned across a
   [Shard.Group] and cross-shard commits run two-phase commit over the
   group's faulty links.  [coord_crash_at] lists instants at which the
   coordinator crashes (orphaning undecided rounds into the
   coordinator-ambiguity channel); [part_crash_at] lists
   [(instant, shard)] participant crash/restarts (the shard rebuilds
   from its own WAL through the durability fault model).  [stack]
   additionally runs every shard as a primary/follower replica set
   ([Compose.Stack]) and [shard_failover_at] lists [(instant, shard)]
   failovers inside those replica sets — the stacked fault planes. *)
type shard_config = {
  group : Shard.Group.config;
  coord_crash_at : int list;
  part_crash_at : (int * int) list;
  stack : Compose.Stack.config option;
  shard_failover_at : (int * int) list;
}

let shard_config ?(coord_crash_at = []) ?(part_crash_at = []) ?stack
    ?(shard_failover_at = []) (group : Shard.Group.config) =
  if List.exists (fun at -> at <= 0) coord_crash_at then
    invalid_arg "Run.shard_config: coordinator crash instants must be positive";
  if List.exists (fun (at, _) -> at <= 0) part_crash_at then
    invalid_arg "Run.shard_config: participant crash instants must be positive";
  if
    List.exists
      (fun (_, s) -> s < 0 || s >= group.Shard.Group.shards)
      part_crash_at
  then invalid_arg "Run.shard_config: participant crash shard out of range";
  if shard_failover_at <> [] && stack = None then
    invalid_arg
      "Run.shard_config: shard failovers need a per-shard replica set (stack)";
  if List.exists (fun (at, _) -> at <= 0) shard_failover_at then
    invalid_arg "Run.shard_config: shard failover instants must be positive";
  if
    List.exists
      (fun (_, s) -> s < 0 || s >= group.Shard.Group.shards)
      shard_failover_at
  then invalid_arg "Run.shard_config: shard failover shard out of range";
  { group; coord_crash_at; part_crash_at; stack; shard_failover_at }

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
  observer : (Trace.t -> unit) option;
  tick : (int * (unit -> unit)) option;
  chaos : Chaos.t option;
  net : net_rt option;
  max_retries : int;
  retry_backoff_ns : float;
  wal : bool;
  crash_at : int list;  (* simulated instants of server crashes *)
  wal_faults : Minidb.Wal.fault_cfg option;
  repl : repl_config option;
  shard : shard_config option;
}

let config ?(faults = Minidb.Fault.Set.empty) ?(clients = 8) ?(seed = 42)
    ?(latency = default_latency) ?latency_of ?observer ?tick ?chaos ?net
    ?(max_retries = 0) ?(retry_backoff_ns = 100_000.0) ?(wal = false)
    ?(crash_at = []) ?wal_faults ?repl ?shard ~spec ~profile ~level ~stop () =
  (* the wire transport serves one engine; routing it at a promoted
     replica would need session re-establishment the server does not
     model, so the two planes are run separately *)
  (match (net, repl) with
  | Some _, Some _ ->
    invalid_arg "Run.config: net and repl modes are mutually exclusive"
  | _ -> ());
  (* the shard group owns the engine's commit hook and its protocol
     traffic models the intra-cluster wire; the client wire and the
     replication plane each claim the same seams *)
  (match (shard, net) with
  | Some _, Some _ ->
    invalid_arg "Run.config: shard and net modes are mutually exclusive"
  | _ -> ());
  (match (shard, repl) with
  | Some _, Some _ ->
    invalid_arg
      "Run.config: shard and repl modes are mutually exclusive (replicate \
       each shard via shard_config's stack instead)"
  | _ -> ());
  {
    spec;
    profile;
    level;
    faults;
    clients;
    stop;
    seed;
    latency;
    latency_of;
    observer;
    tick;
    chaos = Option.map (fun c -> Chaos.create ~clients c) chaos;
    net =
      Option.map
        (fun n ->
          let root = Rng.create n.net_fault.Net.Faulty_link.seed in
          (* the link splits the first [clients] streams off this same
             seed; skip past them so a client's retry jitter never shares
             a state with its fault stream *)
          for _ = 1 to clients do
            ignore (Rng.split root)
          done;
          {
            ncfg = n;
            link = Net.Faulty_link.create ~sessions:clients n.net_fault;
            net_rngs = Array.init clients (fun _ -> Rng.split root);
            ambiguous = [];
          })
        net;
    max_retries;
    retry_backoff_ns;
    (* crashing or injecting durability faults implies logging *)
    wal = wal || crash_at <> [] || wal_faults <> None;
    crash_at;
    wal_faults;
    repl;
    shard;
  }

let latency_for cfg client =
  match cfg.latency_of with Some f -> f client | None -> cfg.latency

type outcome = {
  client_traces : Trace.t list array;
  op_interval : int -> Leopard_util.Interval.t option;
  truth_deps : Minidb.Ground_truth.dep list Lazy.t;
  committed : int -> bool;
  peek : Leopard_trace.Cell.t -> Trace.value option;
  snapshot :
    unit -> (Leopard_trace.Cell.t * Minidb.Version_store.version list) list;
      (* committed-state image of the live store; see
         [Version_store.snapshot_committed] *)
  commits : int;
  aborts : int;
  aborts_fuw : int;
  aborts_certifier : int;
  aborts_deadlock : int;
  aborts_crash : int;
  deadlocks : int;
  restarts : int;
  epochs : Codec.epoch_mark list;  (* crash/restart boundaries, oldest first *)
  wal_appended : int;
  wal_damaged : int;
  sim_duration_ns : int;
  ops : int;
  retries : int;
  crashed_clients : int list;
  indeterminate_txns : int list;
  chaos_dropped : int;
  chaos_duplicated : int;
  chaos_delayed : int;
  net : net_stats option;
  leaders : Codec.leader_mark list;
      (* failover boundaries, oldest first; [lost] is what the cluster
         *reported* lost — empty under claim-clean replication faults *)
  repl : Repl.Cluster.stats option;
  repl_ambiguous : (int * int * int) list;
      (* (client, txn, gave_up_at) of commits whose replication gate
         timed out, oldest first *)
  shard : Shard.Group.stats option;
  shard_repl : Compose.Stack.stats option;
      (* per-shard replica sets, when the planes are stacked *)
  coord_ambiguous : (int * int * int) list;
      (* (client, txn, orphaned_at) of commits whose 2PC coordinator
         crashed before deciding, oldest first *)
  shard_marks : Codec.shard_mark list;
      (* the group topology declaration ([S] line); empty off the plane *)
  prepare_marks : Codec.prepare_mark list;
      (* 2PC round dispositions ([P] lines), oldest first *)
}

and net_stats = {
  resets : int;
  msg_dropped : int;
  msg_duplicated : int;
  msg_delayed : int;
  msg_reordered : int;
  rejected : int;  (* requests load-shed by the server *)
  resends : int;
  give_ups : int;
  ambiguous : (int * int * int) list;
      (* (client, txn, gave_up_at) of ambiguous commits, oldest first *)
  dup_commit_acks : int;  (* commits acknowledged idempotently *)
}

type state = {
  cfg : config;
  sim : Sim.t;
  engine : Engine.t ref;  (* current primary; swapped at failover *)
  deposed : Engine.t list ref;  (* replaced primaries, newest first *)
  repl_cl : Repl.Cluster.t option;
  shard_gr : Shard.Group.t option;
  mutable leaders : Codec.leader_mark list;  (* newest first *)
  mutable repl_ambiguous : (int * int * int) list;  (* newest first *)
  mutable coord_ambiguous : (int * int * int) list;  (* newest first *)
  net_exec : (Net.Server.t * Net.Client.t array) option;
  buffers : Trace.t list ref array;  (* newest first; reversed at the end *)
  mutable op_iv : int array;
      (* the logged [ts_bef]/[ts_aft] of op [i] at [2i]/[2i+1]; [min_int]
         where the op logged no trace; grown by doubling *)
  mutable next_op : int;
  mutable finished_txns : int;
  mutable retries : int;
  mutable live_clients : int;
      (* clients that will still schedule work; when it reaches 0 the
         tick loop must stop too, or a run whose clients all crashed
         before the stop condition would spin forever *)
  mutable stop_now : bool;
}

let fresh_op st =
  let id = st.next_op in
  st.next_op <- id + 1;
  id

let should_stop st =
  st.stop_now
  ||
  match st.cfg.stop with
  | Txn_count n -> st.finished_txns >= n
  | Sim_time_ns t -> Sim.now st.sim >= t

let delay rng mean = 1 + int_of_float (Rng.exponential rng mean)

(* Issue one request: network hop to the server, engine execution
   (possibly delayed by lock queues), network hop back.  [engine] is the
   primary the transaction began on — after a failover it keeps talking
   to that (possibly deposed) engine, whose epoch guard then refuses it
   exactly as a crashed server would.  A non-locking, non-predicate read
   of a so-far write-free transaction may be routed to a live replica
   instead of the engine; the replica serves it only when sound (or when
   a stale-read fault is planted), drawing the same [d_out] the engine
   path would. *)
let issue st rng ~engine ~client ~txn ~request ~receive =
  let latency = latency_for st.cfg client in
  let ts_bef = Sim.now st.sim in
  let d_in = delay rng latency.net_mean_ns in
  let op_id = fresh_op st in
  Sim.schedule_after st.sim ~delay:d_in (fun () ->
      let serve_engine () =
        Engine.exec engine txn ~op_id request ~k:(fun result ->
            let extra =
              match request with
              | Engine.Commit -> delay rng latency.commit_extra_ns
              | Engine.Read _ | Engine.Write _ | Engine.Abort -> 0
            in
            let d_out = extra + delay rng latency.net_mean_ns in
            Sim.schedule_after st.sim ~delay:d_out (fun () ->
                receive ~op_id ~ts_bef result))
      in
      match (st.repl_cl, st.shard_gr) with
      | None, None -> serve_engine ()
      | Some cl, _ -> (
        match request with
        | Engine.Read { cells; locking = false; predicate = false }
          when (not (Engine.txn_has_writes txn)) && engine == !(st.engine) -> (
          match
            Repl.Cluster.maybe_follower_read cl ~cells
              ~snapshot:(fun () -> Engine.op_snapshot engine txn)
          with
          | Some items ->
            let d_out = delay rng latency.net_mean_ns in
            Sim.schedule_after st.sim ~delay:d_out (fun () ->
                receive ~op_id ~ts_bef (Engine.Ok_read items))
          | None -> serve_engine ())
        | Engine.Read _ | Engine.Write _ | Engine.Commit | Engine.Abort ->
          serve_engine ())
      | None, Some gr -> (
        (* same shape as the follower-read branch: the owning
           participants serve the snapshot read when every touched shard
           can do so honestly (or a planted lie lets a lagging/frozen
           horizon pretend); otherwise the engine path, with values and
           draws identical to an unsharded run *)
        match request with
        | Engine.Read { cells; locking = false; predicate = false }
          when not (Engine.txn_has_writes txn) -> (
          match
            Shard.Group.route_read gr ~cells
              ~snapshot:(fun () -> Engine.op_snapshot engine txn)
          with
          | Some items ->
            let d_out = delay rng latency.net_mean_ns in
            Sim.schedule_after st.sim ~delay:d_out (fun () ->
                receive ~op_id ~ts_bef (Engine.Ok_read items))
          | None -> serve_engine ())
        | Engine.Read _ | Engine.Write _ | Engine.Commit | Engine.Abort ->
          serve_engine ()))

(* Issue one request through the wire.  The workload rng supplies exactly
   the draws the in-process [issue] makes — [d_in] at the issue instant,
   commit-extra + [d_out] at each reply instant — so a zero-fault link
   replays the in-process run byte-for-byte; every retry/backoff/fault
   decision comes from the net streams instead.  [on_undelivered] fires
   when the call settles without a server outcome (load-shed or
   every attempt timed out/reset): for a COMMIT that is the ambiguous
   case, for anything else a definite client-side abort. *)
let issue_net st ~server ~nclient rng ~client ~txn ~request ~receive
    ~on_undelivered =
  let latency = latency_for st.cfg client in
  let ts_bef = Sim.now st.sim in
  let d_in = delay rng latency.net_mean_ns in
  let op_id = fresh_op st in
  Net.Server.register_txn server txn;
  let body =
    match request with
    | Engine.Read { cells; locking; predicate } ->
      Net.Wire.Read { cells; locking; predicate }
    | Engine.Write items -> Net.Wire.Write items
    | Engine.Commit -> Net.Wire.Commit { token = Engine.txn_id txn }
    | Engine.Abort -> Net.Wire.Abort
  in
  Net.Client.call nclient ~txn:(Engine.txn_id txn) ~op:op_id ~body
    ~first_send_delay_ns:d_in
    ~resp_base_delay_ns:(fun _resp ->
      let extra =
        match request with
        | Engine.Commit -> delay rng latency.commit_extra_ns
        | Engine.Read _ | Engine.Write _ | Engine.Abort -> 0
      in
      extra + delay rng latency.net_mean_ns)
    ~k:(fun outcome ->
      match outcome with
      | Net.Client.Reply (Net.Wire.Ok_read items) ->
        receive ~op_id ~ts_bef (Engine.Ok_read items)
      | Net.Client.Reply Net.Wire.Ok_write ->
        receive ~op_id ~ts_bef Engine.Ok_write
      | Net.Client.Reply Net.Wire.Ok_commit ->
        receive ~op_id ~ts_bef Engine.Ok_commit
      | Net.Client.Reply (Net.Wire.Refused reason) ->
        receive ~op_id ~ts_bef (Engine.Err reason)
      | Net.Client.Reply (Net.Wire.Began _) ->
        assert false (* the harness begins transactions client-side *)
      | Net.Client.Reply Net.Wire.Rejected | Net.Client.No_reply ->
        on_undelivered ~op_id ~ts_bef)

(* Route a request through the configured transport. *)
let transport st rng ~engine ~client ~txn ~request ~receive ~on_undelivered =
  match st.net_exec with
  | None -> issue st rng ~engine ~client ~txn ~request ~receive
  | Some (server, nclients) ->
    issue_net st ~server ~nclient:nclients.(client) rng ~client ~txn ~request
      ~receive ~on_undelivered

let deliver_now st ~client trace =
  match st.cfg.observer with
  | Some f -> f trace
  | None -> st.buffers.(client) := trace :: !(st.buffers.(client))

let note_interval st op_id (trace : Trace.t) =
  let n = Array.length st.op_iv in
  if 2 * op_id >= n then
    st.op_iv <-
      Array.append st.op_iv (Array.make (max n ((2 * op_id) + 2 - n)) min_int);
  st.op_iv.(2 * op_id) <- trace.Trace.ts_bef;
  st.op_iv.((2 * op_id) + 1) <- trace.Trace.ts_aft

let interval_at iv op =
  if op < 0 || op >= Array.length iv / 2 || iv.(2 * op) = min_int then None
  else Some (Leopard_util.Interval.make ~bef:iv.(2 * op) ~aft:iv.((2 * op) + 1))

let emit st ~client ~txn_id ~op_id ~ts_bef payload =
  let trace =
    { Trace.ts_bef; ts_aft = Sim.now st.sim; txn = txn_id; client; payload }
  in
  match st.cfg.chaos with
  | None ->
    note_interval st op_id trace;
    deliver_now st ~client trace;
    trace
  | Some ch ->
    (* what the client logs carries its (possibly skewed) clock; what the
       collector receives additionally went through the lossy path *)
    let s = Chaos.skew ch ~client in
    let trace =
      if s = 0 then trace
      else
        {
          trace with
          Trace.ts_bef = trace.Trace.ts_bef + s;
          ts_aft = trace.Trace.ts_aft + s;
        }
    in
    note_interval st op_id trace;
    List.iter
      (fun (delay_ns, tr) ->
        if delay_ns = 0 then deliver_now st ~client tr
        else
          Sim.schedule_after st.sim ~delay:delay_ns (fun () ->
              deliver_now st ~client tr))
      (Chaos.deliver ch ~client trace);
    trace

(* Bounded exponential backoff: mean doubles per retry, capped at 32x. *)
let backoff_mean_ns ~retry_backoff_ns ~tries =
  retry_backoff_ns *. float_of_int (1 lsl min tries 5)

let backoff_mean st tries =
  backoff_mean_ns ~retry_backoff_ns:st.cfg.retry_backoff_ns ~tries

let client_done st = st.live_clients <- st.live_clients - 1

let rec run_client st rng ~client =
  if should_stop st then client_done st
  else
    attempt st rng ~client
      ~prog:(st.cfg.spec.Leopard_workload.Spec.next_txn rng)
      ~tries:0

(* One transaction attempt.  [prog] is re-run verbatim (as a fresh
   transaction) when the engine aborts it and retries remain. *)
and attempt st rng ~client ~prog ~tries =
  begin
    (* the engine is captured per attempt: a transaction keeps talking to
       the primary it began on even across a failover (split-brain is
       exactly this, unfenced) *)
    let engine = !(st.engine) in
    let txn = Engine.begin_txn engine ~client in
    let txn_id = Engine.txn_id txn in
    (* the attempt's acknowledged write set, in issue order — the 2PC
       prepare slices are cut from this (unused off the shard plane) *)
    let acc_writes = ref [] in
    let next_txn () =
      if should_stop st then client_done st
      else
        Sim.schedule_after st.sim
          ~delay:(delay rng (latency_for st.cfg client).think_mean_ns)
          (fun () -> run_client st rng ~client)
    in
    let finish_txn () =
      st.finished_txns <- st.finished_txns + 1;
      next_txn ()
    in
    let abort_and_finish ?(retryable = false) ~op_id ~ts_bef () =
      ignore (emit st ~client ~txn_id ~op_id ~ts_bef Trace.Abort);
      st.finished_txns <- st.finished_txns + 1;
      if should_stop st then client_done st
      else if retryable && tries < st.cfg.max_retries then begin
        st.retries <- st.retries + 1;
        Sim.schedule_after st.sim
          ~delay:(delay rng (backoff_mean st tries))
          (fun () ->
            if should_stop st then client_done st
            else attempt st rng ~client ~prog ~tries:(tries + 1))
      end
      else next_txn ()
    in
    (* Server-side reaper: abort an orphaned transaction (its client
       crashed or gave up) once the session timeout elapses, releasing
       its locks.  A commit that sneaks in before the reaper fires wins —
       [txn_alive] is checked at reap time. *)
    let reap_after ~timeout_ns =
      Sim.schedule_after st.sim ~delay:timeout_ns (fun () ->
          if Engine.txn_alive txn then
            Engine.exec engine txn ~op_id:(fresh_op st) Engine.Abort
              ~k:(fun _ -> ()))
    in
    (* A wire call that settled without a server outcome.  A COMMIT is the
       ambiguous case: any attempt may have been applied, so the client
       logs no terminal trace, records the give-up for the checker, and
       moves on.  Anything else is a definite client-side abort — the
       client never sent (and never will send) COMMIT, and the reaper
       guarantees the server-side abort — so the abort trace is truthful. *)
    let on_undelivered ~request ~op_id ~ts_bef =
      let timeout_ns =
        match st.cfg.net with
        | Some rt -> rt.ncfg.session_timeout_ns
        | None -> assert false (* only the wire transport settles this way *)
      in
      reap_after ~timeout_ns;
      match request with
      | Engine.Commit ->
        (match st.cfg.net with
        | Some rt ->
          rt.ambiguous <- (client, txn_id, Sim.now st.sim) :: rt.ambiguous
        | None -> ());
        finish_txn ()
      | Engine.Abort -> abort_and_finish ~op_id ~ts_bef ()
      | Engine.Read _ | Engine.Write _ ->
        abort_and_finish ~retryable:true ~op_id ~ts_bef ()
    in
    (* Chaos crash: the request leaves for the server, but the client dies
       before the reply — nothing is logged and nothing further is issued.
       A crashed commit may have taken effect server-side (indeterminate);
       an orphaned read/write transaction is reaped by the server after
       the session timeout, releasing its locks. *)
    let issue_op ~request ~receive =
      match st.cfg.chaos with
      | Some ch when Chaos.roll_crash ch ~client ->
        Chaos.note_crash ch ~client ~txn:txn_id;
        st.finished_txns <- st.finished_txns + 1;
        client_done st;
        let dead_receive ~op_id:_ ~ts_bef:_ _result =
          match request with
          | Engine.Commit | Engine.Abort -> ()
          | Engine.Read _ | Engine.Write _ ->
            reap_after ~timeout_ns:(Chaos.cfg ch).Chaos.session_timeout_ns
        in
        transport st rng ~engine ~client ~txn ~request ~receive:dead_receive
          ~on_undelivered:(fun ~op_id ~ts_bef ->
            dead_receive ~op_id ~ts_bef (Engine.Err Engine.User_abort))
      | Some _ | None ->
        transport st rng ~engine ~client ~txn ~request ~receive
          ~on_undelivered:(on_undelivered ~request)
    in
    let rec step (prog : Leopard_workload.Program.t) =
      let continue next =
        Sim.schedule_after st.sim
          ~delay:(delay rng (latency_for st.cfg client).op_gap_ns)
          (fun () -> step next)
      in
      match prog with
      | Leopard_workload.Program.Finish ->
        let do_commit () =
          issue_op ~request:Engine.Commit
            ~receive:(fun ~op_id ~ts_bef result ->
              match result with
              | Engine.Ok_commit -> (
                match st.repl_cl with
                | None ->
                  ignore (emit st ~client ~txn_id ~op_id ~ts_bef Trace.Commit);
                  finish_txn ()
                | Some cl ->
                  (* the engine committed; whether (and when) the client may
                     log the commit is the replication gate's call *)
                  Repl.Cluster.gate_commit cl ~txn:txn_id ~k:(fun g ->
                      match g with
                      | Repl.Cluster.Acked ->
                        ignore
                          (emit st ~client ~txn_id ~op_id ~ts_bef Trace.Commit);
                        finish_txn ()
                      | Repl.Cluster.Ack_timeout ->
                        (* COMMIT applied but its durability across failover
                           is unknown: no terminal trace, recorded for the
                           checker as an ambiguous commit *)
                        st.repl_ambiguous <-
                          (client, txn_id, Sim.now st.sim) :: st.repl_ambiguous;
                        finish_txn ()
                      | Repl.Cluster.Lost_at_failover ->
                        (* gone with the old timeline; the leader mark's
                           lost list (when honest) tells the checker *)
                        finish_txn ()))
              | Engine.Err
                  ( Engine.Deadlock_victim | Engine.Fuw_conflict
                  | Engine.Certifier_conflict _ | Engine.User_abort
                  | Engine.Server_crash ) ->
                (* a prepared 2PC round dies with the engine abort — fan
                   the ABORT decision out so participants release their
                   prepared locks (no-op off the shard plane) *)
                (match st.shard_gr with
                | Some gr -> Shard.Group.decide_abort gr ~txn:txn_id
                | None -> ());
                abort_and_finish ~retryable:true ~op_id ~ts_bef ()
              | Engine.Ok_read _ | Engine.Ok_write ->
                assert false)
        in
        (match st.shard_gr with
        | None -> do_commit ()
        | Some gr -> (
          let ws = !acc_writes in
          match
            Shard.Group.shards_touched gr ~cells:(List.map fst ws)
          with
          | [] | [ _ ] ->
            (* fast path: read-only or single-shard — never touches 2PC *)
            do_commit ()
          | _ :: _ :: _ when not (Shard.Group.evented gr) ->
            (* synchronous round: instantaneous, always prepares; no RNG
               draws, no scheduled events — byte-identical to unsharded *)
            Shard.Group.prepare gr ~txn:txn_id
              ~start_ts:(Engine.op_snapshot engine txn)
              ~writes:ws
              ~k:(fun o ->
                match o with
                | Shard.Group.Prepared -> do_commit ()
                | Shard.Group.Abort_decided | Shard.Group.Coord_crashed ->
                  assert false)
          | _ :: _ :: _ ->
            (* evented round: one hop to the coordinator, then the voting
               phase; the commit is only issued to the engine once every
               shard has voted yes *)
            let ts_bef = Sim.now st.sim in
            let d_in =
              delay rng (latency_for st.cfg client).net_mean_ns
            in
            Sim.schedule_after st.sim ~delay:d_in (fun () ->
                Shard.Group.prepare gr ~txn:txn_id
                  ~start_ts:(Engine.op_snapshot engine txn)
                  ~writes:ws
                  ~k:(fun o ->
                    match o with
                    | Shard.Group.Prepared -> do_commit ()
                    | Shard.Group.Abort_decided ->
                      (* a shard vetoed or the vote timed out: a definite,
                         client-visible abort — release the engine txn and
                         retry like any engine abort *)
                      Engine.exec engine txn ~op_id:(fresh_op st) Engine.Abort
                        ~k:(fun _ -> ());
                      abort_and_finish ~retryable:true ~op_id:(fresh_op st)
                        ~ts_bef ()
                    | Shard.Group.Coord_crashed ->
                      (* the coordinator died undecided: the client can
                         never learn the outcome — no terminal trace,
                         recorded for the checker's coordinator channel;
                         the orphaned engine txn is reaped *)
                      reap_after
                        ~timeout_ns:
                          (Shard.Group.prepare_timeout_ns gr);
                      st.coord_ambiguous <-
                        (client, txn_id, Sim.now st.sim)
                        :: st.coord_ambiguous;
                      finish_txn ()))))
      | Leopard_workload.Program.Rollback ->
        issue_op ~request:Engine.Abort
          ~receive:(fun ~op_id ~ts_bef _result ->
            (* a user-requested rollback is intentional, not retried *)
            abort_and_finish ~op_id ~ts_bef ())
      | Leopard_workload.Program.Read { cells; locking; predicate; k } ->
        issue_op
          ~request:(Engine.Read { cells; locking; predicate })
          ~receive:(fun ~op_id ~ts_bef result ->
            match result with
            | Engine.Ok_read items ->
              ignore
                (emit st ~client ~txn_id ~op_id ~ts_bef
                   (Trace.Read { items; locking }));
              continue (k items)
            | Engine.Err
                ( Engine.Deadlock_victim | Engine.Fuw_conflict
                | Engine.Certifier_conflict _ | Engine.User_abort
                | Engine.Server_crash ) ->
              abort_and_finish ~retryable:true ~op_id ~ts_bef ()
            | Engine.Ok_write | Engine.Ok_commit -> assert false)
      | Leopard_workload.Program.Write { items; k } ->
        issue_op ~request:(Engine.Write items)
          ~receive:(fun ~op_id ~ts_bef result ->
            match result with
            | Engine.Ok_write ->
              acc_writes := !acc_writes @ items;
              let titems =
                List.map
                  (fun (cell, value) -> { Trace.cell; value })
                  items
              in
              ignore
                (emit st ~client ~txn_id ~op_id ~ts_bef (Trace.Write titems));
              continue (k ())
            | Engine.Err
                ( Engine.Deadlock_victim | Engine.Fuw_conflict
                | Engine.Certifier_conflict _ | Engine.User_abort
                | Engine.Server_crash ) ->
              abort_and_finish ~retryable:true ~op_id ~ts_bef ()
            | Engine.Ok_read _ | Engine.Ok_commit -> assert false)
    in
    step prog
  end

let execute cfg =
  let sim = Sim.create () in
  let wal =
    if cfg.wal then Some (Minidb.Wal.create ?faults:cfg.wal_faults ())
    else None
  in
  let engine =
    Engine.create ?wal sim ~profile:cfg.profile ~level:cfg.level
      ~faults:cfg.faults
  in
  Engine.load engine cfg.spec.Leopard_workload.Spec.initial;
  let engine_ref = ref engine in
  let deposed = ref [] in
  (* Crash/restart epochs: each instant kills the server between events
     and recovers it from the WAL before the next event runs.  Scheduled
     up front from the config, never drawn from the workload's RNG.  The
     closure crashes whichever engine is primary at that instant. *)
  let epochs = ref [] in
  List.iter
    (fun at ->
      Sim.schedule sim ~at:(max 1 at) (fun () ->
          let s = Engine.crash_recover !engine_ref in
          epochs :=
            {
              Codec.at = Sim.now sim;
              epoch = List.length !epochs + 1;
              replayed = s.Minidb.Recovery.replayed;
              damaged = Minidb.Wal.damaged_records s.Minidb.Recovery.damage;
            }
            :: !epochs))
    (List.sort_uniq Int.compare cfg.crash_at);
  let repl_cl =
    Option.map
      (fun (r : repl_config) ->
        Repl.Cluster.create sim r.cluster
          ~initial:cfg.spec.Leopard_workload.Spec.initial)
      cfg.repl
  in
  (match repl_cl with
  | Some cl -> Engine.set_commit_hook engine (Some (Repl.Cluster.on_commit cl))
  | None -> ());
  let shard_gr =
    Option.map
      (fun (s : shard_config) ->
        Shard.Group.create ~sim
          ~initial:cfg.spec.Leopard_workload.Spec.initial s.group)
      cfg.shard
  in
  (* the engine survives [crash_at] epochs with its hook intact
     ([crash_recover] keeps [on_commit]), so decision slices keep
     shipping across server restarts *)
  (match shard_gr with
  | Some gr -> Engine.set_commit_hook engine (Some (Shard.Group.on_commit gr))
  | None -> ());
  (* Stacked planes: one replica set per shard, fed by the group's
     apply hook. *)
  let shard_stack =
    match (cfg.shard, shard_gr) with
    | Some { stack = Some stk; _ }, Some gr ->
      Some
        (Compose.Stack.create ~sim ~group:gr
           ~initial:cfg.spec.Leopard_workload.Spec.initial stk)
    | _ -> None
  in
  (* Shard-plane chaos: coordinator crashes and participant
     crash/restarts, scheduled up front from the config — never drawn
     from the workload's RNG. *)
  (match (cfg.shard, shard_gr) with
  | Some scfg, Some gr ->
    List.iter
      (fun at ->
        Sim.schedule sim ~at:(max 1 at) (fun () -> Shard.Group.coord_crash gr))
      (List.sort_uniq Int.compare scfg.coord_crash_at);
    List.iter
      (fun (at, shard) ->
        Sim.schedule sim ~at:(max 1 at) (fun () ->
            Shard.Group.restart_participant gr ~shard))
      (List.sort_uniq
         (fun (a, sa) (b, sb) ->
           if a <> b then Int.compare a b else Int.compare sa sb)
         scfg.part_crash_at)
  | _ -> ());
  let net_exec =
    Option.map
      (fun rt ->
        let server =
          Net.Server.create ~engine ~queue_capacity:rt.ncfg.queue_capacity
        in
        let nclients =
          Array.init cfg.clients (fun i ->
              Net.Client.create sim ~rng:rt.net_rngs.(i) ~link:rt.link ~server
                ~session:i rt.ncfg.net_client)
        in
        (server, nclients))
      cfg.net
  in
  let st =
    {
      cfg;
      sim;
      engine = engine_ref;
      deposed;
      repl_cl;
      shard_gr;
      leaders = [];
      repl_ambiguous = [];
      coord_ambiguous = [];
      net_exec;
      buffers = Array.init cfg.clients (fun _ -> ref []);
      op_iv = Array.make 8192 min_int;
      next_op = 0;
      finished_txns = 0;
      retries = 0;
      live_clients = cfg.clients;
      stop_now = false;
    }
  in
  (* Failover orchestrator: explicit instants plus one derived promotion
     per primary-isolating partition window ([follower = -1]), fired
     [election_timeout_ns] after the window opens — the cluster noticing
     its primary has gone dark.  Scheduled up front, never drawn from
     the workload's RNG. *)
  (match (cfg.repl, repl_cl) with
  | Some rcfg, Some cl ->
    let derived =
      if rcfg.promote_on_partition then
        List.filter_map
          (fun (p : Repl.Cluster.partition) ->
            if p.Repl.Cluster.follower = -1 then
              Some (p.Repl.Cluster.from_ns + rcfg.election_timeout_ns)
            else None)
          rcfg.cluster.Repl.Cluster.partitions
      else []
    in
    List.iter
      (fun at ->
        Sim.schedule sim ~at:(max 1 at) (fun () ->
            match Repl.Cluster.failover cl with
            | None -> ()  (* no live follower left to promote *)
            | Some promo ->
              let old = !(st.engine) in
              Engine.set_commit_hook old None;
              let wal' =
                (* the promoted replica gets its own WAL, preloaded with
                   the survivor prefix — never the deposed primary's,
                   whose tail may hold exactly the records the failover
                   lost *)
                if cfg.wal then Some (Minidb.Wal.create ?faults:cfg.wal_faults ())
                else None
              in
              let fresh, _summary =
                Engine.promote_from old ?wal:wal'
                  ~records:promo.Repl.Cluster.survived ()
              in
              Engine.set_commit_hook fresh (Some (Repl.Cluster.on_commit cl));
              st.engine := fresh;
              st.deposed := old :: !(st.deposed);
              let faults = rcfg.cluster.Repl.Cluster.faults in
              let claim_clean =
                (* these faults *are* the lie: the cluster hides the
                   truncated suffix from its own failover report, leaving
                   the checker to prove the disappearance as a violation *)
                Repl.Repl_fault.(has_fault faults Promote_lagging)
                || Repl.Repl_fault.(has_fault faults Lose_acked_window)
              in
              let lost_reported =
                if claim_clean then []
                else
                  List.map
                    (fun (r : Minidb.Wal.record) -> r.Minidb.Wal.txn)
                    promo.Repl.Cluster.lost
              in
              st.leaders <-
                {
                  Codec.at = Sim.now sim;
                  epoch = Engine.epoch fresh;
                  primary = promo.Repl.Cluster.target;
                  lost = lost_reported;
                }
                :: st.leaders;
              if Repl.Repl_fault.(has_fault faults Split_brain) then
                (* the old brain keeps serving (and committing) unfenced
                   for a window: concurrent commits on both timelines *)
                Sim.schedule_after sim ~delay:rcfg.split_brain_ns (fun () ->
                    Engine.depose old ~epoch:(Engine.epoch fresh))
              else Engine.depose old ~epoch:(Engine.epoch fresh)))
      (List.sort_uniq Int.compare (rcfg.failover_at @ derived))
  | _ -> ());
  (* Per-shard failover orchestrator (stacked planes): each instant
     fails one shard's primary over to a replica.  Scheduled up front,
     never drawn from the workload's RNG.  The leader mark always
     reports [lost = []]: honestly the coordinator's decision log
     backfills the truncated suffix (lossless at the group level), and
     under the claim-clean replication lies the loss is exactly what
     the cluster hides — the checker must prove it from the traces, not
     learn it from a mark. *)
  (match (cfg.shard, shard_stack) with
  | Some scfg, Some stk ->
    List.iter
      (fun (at, shard) ->
        Sim.schedule sim ~at:(max 1 at) (fun () ->
            match Compose.Stack.failover stk ~shard with
            | None -> ()  (* no live follower left in that shard *)
            | Some fo ->
              st.leaders <-
                {
                  Codec.at = Sim.now sim;
                  epoch = 2 + List.length st.leaders;
                  primary = (fo.Compose.Stack.shard * 100)
                            + fo.Compose.Stack.primary;
                  lost = [];
                }
                :: st.leaders))
      (List.sort_uniq
         (fun (a, sa) (b, sb) ->
           if a <> b then Int.compare a b else Int.compare sa sb)
         scfg.shard_failover_at)
  | _ -> ());
  let root = Rng.create cfg.seed in
  for client = 0 to cfg.clients - 1 do
    let rng = Rng.split root in
    (* Stagger client start-ups slightly, as real clients would. *)
    Sim.schedule_after sim ~delay:(Rng.int rng 10_000) (fun () ->
        run_client st rng ~client)
  done;
  (match cfg.tick with
  | Some (interval_ns, f) ->
    let interval_ns = max 1 interval_ns in
    let rec tick () =
      f ();
      if (not (should_stop st)) && st.live_clients > 0 then
        Sim.schedule_after sim ~delay:interval_ns tick
    in
    Sim.schedule_after sim ~delay:interval_ns tick
  | None -> ());
  Sim.run sim;
  (* Counters are summed across every engine of the run: [promote_from]
     zeroes the promoted engine's counters, so current + deposed is an
     exact partition of the run's events.  The txn-state and ground-truth
     tables are shared across promotions, so [committed] and [truth_deps]
     read them from any engine. *)
  let cur = !(st.engine) in
  let engines = cur :: !(st.deposed) in
  let esum f = List.fold_left (fun acc e -> acc + f e) 0 engines in
  let committed id = Engine.committed cur id in
  {
    client_traces = Array.map (fun r -> List.rev !r) st.buffers;
    op_interval = interval_at st.op_iv;
    truth_deps =
      lazy (Minidb.Ground_truth.deps (Engine.ground_truth cur) ~committed);
    committed;
    peek = (fun cell -> Engine.peek cur cell);
    snapshot = (fun () -> Engine.snapshot_committed cur);
    commits = esum Engine.commits;
    aborts = esum Engine.aborts;
    aborts_fuw = esum (fun e -> Engine.aborts_by e Engine.Fuw_conflict);
    aborts_certifier =
      esum (fun e -> Engine.aborts_by e (Engine.Certifier_conflict ""));
    aborts_deadlock = esum (fun e -> Engine.aborts_by e Engine.Deadlock_victim);
    aborts_crash = esum (fun e -> Engine.aborts_by e Engine.Server_crash);
    deadlocks = esum Engine.deadlocks;
    restarts = esum Engine.restarts;
    epochs = List.rev !epochs;
    wal_appended = esum Engine.wal_appended;
    wal_damaged =
      List.fold_left
        (fun acc (e : Codec.epoch_mark) -> acc + e.damaged)
        0 !epochs;
    sim_duration_ns = Sim.now sim;
    ops = esum Engine.ops_executed;
    retries = st.retries;
    crashed_clients =
      (match cfg.chaos with
      | Some ch -> Chaos.crashed_clients ch
      | None -> []);
    indeterminate_txns =
      (match cfg.chaos with
      | Some ch -> Chaos.indeterminate_txns ch
      | None -> []);
    chaos_dropped =
      (match cfg.chaos with Some ch -> Chaos.dropped ch | None -> 0);
    chaos_duplicated =
      (match cfg.chaos with Some ch -> Chaos.duplicated ch | None -> 0);
    chaos_delayed =
      (match cfg.chaos with Some ch -> Chaos.delayed ch | None -> 0);
    net =
      (match (cfg.net, st.net_exec) with
      | Some rt, Some (server, nclients) ->
        let sum f = Array.fold_left (fun acc c -> acc + f c) 0 nclients in
        Some
          {
            resets = Net.Faulty_link.resets rt.link;
            msg_dropped = Net.Faulty_link.dropped rt.link;
            msg_duplicated = Net.Faulty_link.duplicated rt.link;
            msg_delayed = Net.Faulty_link.delayed rt.link;
            msg_reordered = Net.Faulty_link.reordered rt.link;
            rejected = Net.Server.rejected server;
            resends = sum Net.Client.resends;
            give_ups = sum Net.Client.give_ups;
            ambiguous = List.rev rt.ambiguous;
            dup_commit_acks = Engine.duplicate_commit_acks engine;
          }
      | _ -> None);
    leaders = List.rev st.leaders;
    repl = Option.map Repl.Cluster.stats repl_cl;
    repl_ambiguous = List.rev st.repl_ambiguous;
    shard = Option.map Shard.Group.stats shard_gr;
    shard_repl = Option.map Compose.Stack.stats shard_stack;
    coord_ambiguous = List.rev st.coord_ambiguous;
    shard_marks =
      (match cfg.shard with
      | None -> []
      | Some s -> [ { Codec.at = 0; shards = s.group.Shard.Group.shards } ]);
    prepare_marks =
      (match shard_gr with
      | None -> []
      | Some gr ->
        List.map
          (fun (at, txn, shards, d) ->
            {
              Codec.at;
              txn;
              shards;
              disposition =
                (match d with
                | 'c' -> Codec.Committed
                | 'a' -> Codec.Aborted
                | _ -> Codec.Unknown);
            })
          (Shard.Group.rounds_log gr));
  }

let all_traces_sorted outcome =
  let all =
    Array.fold_left (fun acc l -> List.rev_append l acc) [] outcome.client_traces
  in
  List.sort Trace.compare_by_bef all
