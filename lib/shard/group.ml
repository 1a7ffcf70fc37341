module Cell = Leopard_trace.Cell
module Trace = Leopard_trace.Trace
module Sim = Minidb.Sim
module Wal = Minidb.Wal
module Wire = Leopard_net.Wire
module Faulty_link = Leopard_net.Faulty_link
module Rng = Leopard_util.Rng

(* A shard group: the key space hash-range-partitioned across N
   participants, with a 2PC coordinator co-located with the engine.
   Cross-shard write transactions run PREPARE/vote/decision over the
   same faulty links as client traffic (one session per shard), so
   drop/dup/delay/reorder/reset/partition all apply to commit-protocol
   messages; single-shard transactions take a fast path that never
   touches the protocol.  Decisions are logged per shard before
   shipping, giving each participant a strictly sequential,
   commit-stamp-ordered feed — mirroring the replication plane — so a
   participant's [applied_ts] is an exact serving horizon for its
   slice of the key space.

   The zero-fault path (no link faults, no hop latency, no partitions)
   is fully synchronous: prepares, decisions and applies happen inside
   the commit call with no scheduled events and no RNG draws, keeping a
   sharded run byte-identical to the single-shard run. *)

type partition = { shard : int; from_ns : int; until_ns : int }

type config = {
  shards : int;
  hop_ns : int;
  link : Faulty_link.config;
  partitions : partition list;
  prepare_timeout_ns : int;
  retransmit_ns : int;
  max_retransmits : int;
  skew_bound_ns : int;
  faults : Shard_fault.t list;
  wal_faults : Wal.fault_cfg option;
}

let config ?(shards = 2) ?(hop_ns = 0) ?(link = Faulty_link.disabled)
    ?(partitions = []) ?(prepare_timeout_ns = 2_000_000)
    ?(retransmit_ns = 500_000) ?(max_retransmits = 8)
    ?(skew_bound_ns = 1_000_000) ?(faults = []) ?wal_faults () =
  if shards < 2 then invalid_arg "Group.config: shards must be >= 2";
  if hop_ns < 0 then invalid_arg "Group.config: hop_ns must be >= 0";
  if prepare_timeout_ns <= 0 then
    invalid_arg "Group.config: prepare_timeout_ns must be > 0";
  if retransmit_ns <= 0 then
    invalid_arg "Group.config: retransmit_ns must be > 0";
  if max_retransmits < 0 then
    invalid_arg "Group.config: max_retransmits must be >= 0";
  if skew_bound_ns < 0 then
    invalid_arg "Group.config: skew_bound_ns must be >= 0";
  List.iter
    (fun p ->
      if p.from_ns < 0 || p.until_ns <= p.from_ns then
        invalid_arg "Group.config: partition window must satisfy 0 <= from < until";
      if p.shard < -1 || p.shard >= shards then
        invalid_arg "Group.config: partition shard out of range")
    partitions;
  {
    shards;
    hop_ns;
    link;
    partitions;
    prepare_timeout_ns;
    retransmit_ns;
    max_retransmits;
    skew_bound_ns;
    faults;
    wal_faults;
  }

(* The SplitMix64 finalizer ([Rng.mix64]) is a deterministic,
   well-mixed hash that is part of the partitioning contract (unlike
   [Hashtbl.hash], which is runtime-dependent and lint-banned).  The top
   16 bits place the row on a 65536-point ring split into [shards]
   contiguous ranges. *)
let shard_of_row ~shards (table, row) =
  let packed =
    Int64.logxor (Int64.shift_left (Int64.of_int table) 32) (Int64.of_int row)
  in
  let point = Int64.to_int (Int64.shift_right_logical (Rng.mix64 packed) 48) in
  point * shards / 65536

(* Row-key granularity: a row's columns co-locate, so the engine's
   row-level lock granule never spans shards. *)
let shard_of_cell ~shards cell = shard_of_row ~shards (Cell.row_key cell)

type prep_outcome =
  | Prepared
  | Abort_decided
  | Coord_crashed

(* One shard's channel: participant, per-shard decision log (1-based,
   growable), cumulative ack cursor, a depth-1 send pipeline, and the
   participant's own write-ahead log — every applied decision is made
   durable locally, so a participant crash recovers from its *own* WAL
   (through the durability fault model) rather than from the
   coordinator's always-complete log. *)
type pchan = {
  p : Participant.t;
  mutable log : Wal.record array;
  mutable count : int;
  mutable acked_through : int;
  mutable inflight : bool;
  wal : Wal.t;
}

type round = {
  r_txn : int;
  r_start_ts : int;
  r_shards : int list;  (* ascending, >= 2 entries *)
  r_votes : (int, bool) Hashtbl.t;  (* shard -> vote received *)
  mutable r_settled : bool;  (* continuation called *)
  r_k : prep_outcome -> unit;
}

type t = {
  cfg : config;
  sim : Sim.t;
  initial : (Cell.t * Trace.value) list;
  link : Faulty_link.t;
  chans : pchan array;
  rounds : (int, round) Hashtbl.t;  (* open + prepared-awaiting-decision *)
  evented : bool;
  mutable gen : int;  (* coordinator incarnation *)
  mutable dispositions : (int * int * int list * char) list;
      (* (at, txn, shards, 'c'|'a'|'?'), newest first *)
  mutable n_prepares_sent : int;
  mutable n_votes_delivered : int;
  mutable n_vetoes : int;
  mutable n_prep_timeouts : int;
  mutable n_decisions_sent : int;
  mutable n_acks_delivered : int;
  mutable n_resends : int;
  mutable n_fast_commits : int;
  mutable n_tpc_commits : int;
  mutable n_tpc_aborts : int;
  mutable n_coord_crashes : int;
  mutable n_orphans : int;
  mutable n_presumed_aborts : int;
  mutable n_fractured : int;
  mutable n_part_restarts : int;
  mutable n_rebuilds : int;
  mutable n_wal_truncated : int;
  mutable n_wal_damage : int;
  mutable apply_hook : (shard:int -> seq:int -> Wal.record -> unit) option;
  mutable n_routed_reads : int;
  mutable n_skew_serves : int;
  mutable n_stale_serves : int;
  mutable n_partition_drops : int;
  mutable n_stale_drops : int;
}

let owner t cell = shard_of_cell ~shards:t.cfg.shards cell
let lying t f = Shard_fault.has_fault t.cfg.faults f

let initial_for t shard =
  List.filter (fun (cell, _) -> owner t cell = shard) t.initial

let create ~sim ~initial (cfg : config) =
  let evented =
    (not (Faulty_link.is_disabled cfg.link))
    || cfg.hop_ns > 0 || cfg.partitions <> []
  in
  {
    cfg;
    sim;
    initial;
    link = Faulty_link.create ~sessions:cfg.shards cfg.link;
    chans =
      Array.init cfg.shards (fun id ->
          let initial =
            List.filter
              (fun (cell, _) -> shard_of_cell ~shards:cfg.shards cell = id)
              initial
          in
          (* each participant draws its durability damage from its own
             derived stream, so shard 0's crash never perturbs shard 1 *)
          let wal_faults =
            Option.map
              (fun (f : Wal.fault_cfg) ->
                { f with Wal.seed = f.Wal.seed + ((id + 1) * 1_000_003) })
              cfg.wal_faults
          in
          {
            p = Participant.create ~id ~initial;
            log = [||];
            count = 0;
            acked_through = 0;
            inflight = false;
            wal = Wal.create ?faults:wal_faults ();
          });
    rounds = Hashtbl.create 16;
    evented;
    gen = 0;
    dispositions = [];
    n_prepares_sent = 0;
    n_votes_delivered = 0;
    n_vetoes = 0;
    n_prep_timeouts = 0;
    n_decisions_sent = 0;
    n_acks_delivered = 0;
    n_resends = 0;
    n_fast_commits = 0;
    n_tpc_commits = 0;
    n_tpc_aborts = 0;
    n_coord_crashes = 0;
    n_orphans = 0;
    n_presumed_aborts = 0;
    n_fractured = 0;
    n_part_restarts = 0;
    n_rebuilds = 0;
    n_wal_truncated = 0;
    n_wal_damage = 0;
    apply_hook = None;
    n_routed_reads = 0;
    n_skew_serves = 0;
    n_stale_serves = 0;
    n_partition_drops = 0;
    n_stale_drops = 0;
  }

let evented t = t.evented
let prepare_timeout_ns t = t.cfg.prepare_timeout_ns
let participant t ~shard = t.chans.(shard).p
let shard_count t = t.cfg.shards
let has_fault t f = Shard_fault.has_fault t.cfg.faults f
let set_apply_hook t hook = t.apply_hook <- hook

(* {2 Per-shard decision log} *)

let push c r =
  if c.count = Array.length c.log then begin
    let cap = max 16 (2 * Array.length c.log) in
    let log = Array.make cap r in
    Array.blit c.log 0 log 0 c.count;
    c.log <- log
  end;
  c.log.(c.count) <- r;
  c.count <- c.count + 1

let entry_at c seq = c.log.(seq - 1)

(* Group a write set by owning shard, ascending shard order (array
   buckets — no hash-order dependence). *)
let partition_writes t writes =
  let buckets = Array.make t.cfg.shards [] in
  List.iter
    (fun ((cell, _) as w) ->
      let s = owner t cell in
      buckets.(s) <- w :: buckets.(s))
    writes;
  let acc = ref [] in
  for s = t.cfg.shards - 1 downto 0 do
    match buckets.(s) with
    | [] -> ()
    | ws -> acc := (s, List.rev ws) :: !acc
  done;
  !acc

let shards_touched t ~cells =
  let seen = Array.make t.cfg.shards false in
  List.iter (fun cell -> seen.(owner t cell) <- true) cells;
  let acc = ref [] in
  for s = t.cfg.shards - 1 downto 0 do
    if seen.(s) then acc := s :: !acc
  done;
  !acc

(* {2 Messaging} *)

let partitioned t ~shard =
  let now = Sim.now t.sim in
  List.exists
    (fun p ->
      (p.shard = -1 || p.shard = shard) && now >= p.from_ns && now < p.until_ns)
    t.cfg.partitions

(* Route one protocol message (either direction) over a shard's link:
   partition windows drop it outright; otherwise the faulty link decides
   drop/duplicate/delay/reset and every surviving copy travels one
   [hop_ns] plus its extra latency.  Resets behave as drops here — the
   protocol's only recovery is retransmission either way. *)
let transmit t c msg ~deliver =
  if partitioned t ~shard:c.p.Participant.id then
    t.n_partition_drops <- t.n_partition_drops + 1
  else
    match Faulty_link.route t.link ~session:c.p.Participant.id with
    | Faulty_link.Drop | Faulty_link.Reset -> ()
    | Faulty_link.Deliver extras ->
      List.iter
        (fun extra ->
          Sim.schedule_after t.sim ~delay:(t.cfg.hop_ns + extra) (fun () ->
              deliver msg))
        extras

(* Apply one decision at a participant.  A successful apply is made
   durable in the participant's own WAL (append draws no RNG — the
   zero-fault path stays event- and draw-free) and forwarded to the
   apply hook, which is how a per-shard replica set observes its
   shard's committed feed.  Rejected applies (stale retransmits, gaps)
   touch neither. *)
let apply_decision t c ~seq record =
  let applied = Participant.apply c.p ~seq record in
  if applied then begin
    Wal.append c.wal record;
    match t.apply_hook with
    | Some hook -> hook ~shard:c.p.Participant.id ~seq record
    | None -> ()
  end;
  applied

(* Synchronous apply of everything outstanding on a channel — the
   zero-fault fast path. *)
let apply_now t c =
  while c.acked_through < c.count do
    let seq = c.acked_through + 1 in
    ignore (apply_decision t c ~seq (entry_at c seq));
    c.acked_through <- seq
  done

let rec send_decision t c ~seq ~attempt =
  if attempt = 1 then t.n_decisions_sent <- t.n_decisions_sent + 1
  else t.n_resends <- t.n_resends + 1;
  let gen = t.gen in
  let msg =
    Wire.Tpc_decision
      { shard = c.p.Participant.id; seq; record = entry_at c seq }
  in
  transmit t c msg ~deliver:(fun m -> deliver t c ~gen m);
  (* Capped retransmit: the agenda must drain, so after the cap the
     channel goes quiet until the next commit or recovery re-pumps it. *)
  Sim.schedule_after t.sim ~delay:t.cfg.retransmit_ns (fun () ->
      if gen = t.gen && c.acked_through < seq && seq <= c.count then
        if attempt >= t.cfg.max_retransmits then c.inflight <- false
        else send_decision t c ~seq ~attempt:(attempt + 1))

and pump t c =
  if (not c.inflight) && c.acked_through < c.count then begin
    c.inflight <- true;
    send_decision t c ~seq:(c.acked_through + 1) ~attempt:1
  end

and send_prepare t round ~shard ~writes ~attempt =
  if attempt = 1 then t.n_prepares_sent <- t.n_prepares_sent + 1
  else t.n_resends <- t.n_resends + 1;
  let gen = t.gen in
  let c = t.chans.(shard) in
  let msg =
    Wire.Tpc_prepare
      { shard; txn = round.r_txn; start_ts = round.r_start_ts; writes }
  in
  transmit t c msg ~deliver:(fun m -> deliver t c ~gen m);
  Sim.schedule_after t.sim ~delay:t.cfg.retransmit_ns (fun () ->
      if
        gen = t.gen
        && (not round.r_settled)
        && (not (Hashtbl.mem round.r_votes shard))
        && attempt < t.cfg.max_retransmits
      then send_prepare t round ~shard ~writes ~attempt:(attempt + 1))

(* ABORT decision fan-out.  On the synchronous path the release happens
   in place; otherwise it rides the link like any other message.  The
   [Commit_after_abort] lie lives at the participant: the prepared
   writes are installed instead of dropped. *)
and send_aborts t ~txn shards =
  List.iter
    (fun shard ->
      let c = t.chans.(shard) in
      if not t.evented then
        Participant.release c.p ~txn
          ~apply_anyway:(lying t Shard_fault.Commit_after_abort)
      else begin
        let gen = t.gen in
        transmit t c (Wire.Tpc_abort { shard; txn }) ~deliver:(fun m ->
            deliver t c ~gen m)
      end)
    shards

and settle_abort t round =
  round.r_settled <- true;
  Hashtbl.remove t.rounds round.r_txn;
  t.n_tpc_aborts <- t.n_tpc_aborts + 1;
  t.dispositions <-
    (Sim.now t.sim, round.r_txn, round.r_shards, 'a') :: t.dispositions;
  send_aborts t ~txn:round.r_txn round.r_shards;
  round.r_k Abort_decided

and handle_vote t ~shard ~txn ~commit =
  t.n_votes_delivered <- t.n_votes_delivered + 1;
  match Hashtbl.find_opt t.rounds txn with
  | None -> ()  (* round already decided or aborted; late vote *)
  | Some round when round.r_settled -> ()
  | Some round ->
    if not (Hashtbl.mem round.r_votes shard) then begin
      Hashtbl.replace round.r_votes shard commit;
      if not commit then begin
        t.n_vetoes <- t.n_vetoes + 1;
        settle_abort t round
      end
      else if
        List.for_all
          (fun s ->
            match Hashtbl.find_opt round.r_votes s with
            | Some true -> true
            | _ -> false)
          round.r_shards
      then begin
        round.r_settled <- true;
        (* the round stays open until the engine's decision arrives via
           [on_commit] or [decide_abort] *)
        round.r_k Prepared
      end
    end

(* One delivery, either direction.  A generation mismatch means the
   message was in flight across a coordinator crash or participant
   restart: the new incarnation ignores it and relies on retransmission
   from durable state. *)
and deliver t c ~gen msg =
  if gen <> t.gen then t.n_stale_drops <- t.n_stale_drops + 1
  else
    match msg with
    | Wire.Tpc_prepare { txn; start_ts; writes; _ } ->
      let vote =
        Participant.prepare c.p ~txn ~start_ts ~writes ~check_conflicts:true
      in
      transmit t c
        (Wire.Tpc_vote { shard = c.p.Participant.id; txn; commit = vote })
        ~deliver:(fun m -> deliver t c ~gen m)
    | Wire.Tpc_vote { shard; txn; commit } -> handle_vote t ~shard ~txn ~commit
    | Wire.Tpc_decision { seq; record; _ } ->
      ignore (apply_decision t c ~seq record);
      (* always re-ack cumulatively: a duplicated or stale decision
         still tells the coordinator where this shard really is *)
      transmit t c
        (Wire.Tpc_ack
           {
             shard = c.p.Participant.id;
             through = c.p.Participant.applied_through;
           })
        ~deliver:(fun m -> deliver t c ~gen m)
    | Wire.Tpc_abort { txn; _ } ->
      Participant.release c.p ~txn
        ~apply_anyway:(lying t Shard_fault.Commit_after_abort)
    | Wire.Tpc_ack { through; _ } ->
      t.n_acks_delivered <- t.n_acks_delivered + 1;
      if through > c.acked_through then begin
        c.acked_through <- through;
        c.inflight <- false;
        pump t c
      end

(* {2 Coordinator API} *)

(* Start a 2PC round for a cross-shard write set.  [k] fires exactly
   once: [Prepared] (go ahead and commit at the engine), [Abort_decided]
   (a shard vetoed or the votes never arrived — the coordinator decided
   abort, a definite outcome the client learns), or [Coord_crashed] (the
   coordinator died before deciding — the client can never learn).

   On the synchronous path the round is instantaneous: prepare and
   decision are atomic at the engine, prepared locks are never
   observably held, so no conflict votes are possible and the round
   always prepares — byte-identical to not sharding at all. *)
let prepare t ~txn ~start_ts ~writes ~k =
  let by_shard = partition_writes t writes in
  (match by_shard with
  | [] | [ _ ] -> invalid_arg "Group.prepare: cross-shard write set expected"
  | _ -> ());
  let shards = List.map fst by_shard in
  let round =
    {
      r_txn = txn;
      r_start_ts = start_ts;
      r_shards = shards;
      r_votes = Hashtbl.create 4;
      r_settled = false;
      r_k = k;
    }
  in
  Hashtbl.replace t.rounds txn round;
  if not t.evented then begin
    List.iter
      (fun (shard, ws) ->
        t.n_prepares_sent <- t.n_prepares_sent + 1;
        t.n_votes_delivered <- t.n_votes_delivered + 1;
        ignore
          (Participant.prepare t.chans.(shard).p ~txn ~start_ts ~writes:ws
             ~check_conflicts:false))
      by_shard;
    round.r_settled <- true;
    k Prepared
  end
  else begin
    List.iter
      (fun (shard, ws) -> send_prepare t round ~shard ~writes:ws ~attempt:1)
      by_shard;
    (* Votes lost beyond the retransmit cap must not hang the client:
       the coordinator gives up and decides abort — a definite outcome
       (the engine never committed). *)
    Sim.schedule_after t.sim ~delay:t.cfg.prepare_timeout_ns (fun () ->
        if not round.r_settled then begin
          t.n_prep_timeouts <- t.n_prep_timeouts + 1;
          settle_abort t round
        end)
  end

(* Engine abort of a transaction that had prepared (certification or
   reaper): fan the ABORT decision out and close the round. *)
let decide_abort t ~txn =
  match Hashtbl.find_opt t.rounds txn with
  | None -> ()
  | Some round ->
    Hashtbl.remove t.rounds txn;
    t.n_tpc_aborts <- t.n_tpc_aborts + 1;
    t.dispositions <-
      (Sim.now t.sim, txn, round.r_shards, 'a') :: t.dispositions;
    send_aborts t ~txn round.r_shards

(* Engine commit hook: slice the record by owning shard, append each
   slice to that shard's decision log, ship.  Single-shard (and
   non-2PC) commits take the same fast path with no protocol traffic;
   a 2PC round is closed with a COMMIT disposition. *)
let on_commit t (r : Wal.record) =
  (match Hashtbl.find_opt t.rounds r.Wal.txn with
  | Some round ->
    Hashtbl.remove t.rounds r.Wal.txn;
    t.n_tpc_commits <- t.n_tpc_commits + 1;
    t.dispositions <-
      (Sim.now t.sim, r.Wal.txn, round.r_shards, 'c') :: t.dispositions
  | None ->
    (* single-shard and read-only commits alike bypass the protocol *)
    t.n_fast_commits <- t.n_fast_commits + 1);
  let touched =
    shards_touched t ~cells:(List.map (fun w -> w.Wal.cell) r.Wal.writes)
  in
  List.iter
    (fun shard ->
      let c = t.chans.(shard) in
      push c
        {
          r with
          Wal.writes =
            List.filter (fun w -> owner t w.Wal.cell = shard) r.Wal.writes;
        };
      if not t.evented then apply_now t c else pump t c)
    touched

(* {2 Crash planes} *)

let log_contains c txn =
  let rec scan i = i < c.count && (c.log.(i).Wal.txn = txn || scan (i + 1)) in
  scan 0

(* The [Fractured_commit] lie: on a coordinator crash, the newest
   undelivered cross-shard decision slice on the highest shard is
   spliced out of that shard's log and the sequence renumbered — the
   recovering coordinator's per-shard cursor lost it.  That shard goes
   on to apply every later commit as if this one never happened while
   its sibling shards applied it. *)
let fracture t =
  let victim = ref None in
  Array.iter
    (fun c ->
      for seq = c.acked_through + 1 to c.count do
        let r = entry_at c seq in
        let cross =
          Array.exists
            (fun c2 ->
              c2.p.Participant.id <> c.p.Participant.id
              && log_contains c2 r.Wal.txn)
            t.chans
        in
        if cross then victim := Some (c, seq)
      done)
    t.chans;
  match !victim with
  | None -> ()
  | Some (c, seq) ->
    for i = seq to c.count - 1 do
      c.log.(i - 1) <- c.log.(i)
    done;
    c.count <- c.count - 1;
    t.n_fractured <- t.n_fractured + 1

(* The failover-time variant of the same lie: drop the newest record in
   a rebuilt feed whose transaction also committed on a sibling shard.
   [None] when the feed holds no cross-shard decision to lose. *)
let splice_newest_cross t c records =
  let cross r =
    Array.exists
      (fun c2 ->
        c2.p.Participant.id <> c.p.Participant.id && log_contains c2 r.Wal.txn)
      t.chans
  in
  let victim = ref (-1) in
  List.iteri (fun i r -> if cross r then victim := i) records;
  if !victim < 0 then None
  else Some (List.filteri (fun i _ -> i <> !victim) records)

(* Coordinator crash at a seeded instant.  Prepare-phase state is
   volatile: undecided rounds are orphaned and, honestly, resolved by
   presumed abort (the participant times out, inquires, and the
   recovered coordinator has no record).  Decided rounds live in the
   durable per-shard logs and simply resume shipping under the new
   incarnation.  The [Stale_prepared_read] lie leaves orphaned prepared
   locks unresolved and freezes the serving horizon of every shard
   holding one. *)
let coord_crash t =
  t.n_coord_crashes <- t.n_coord_crashes + 1;
  t.gen <- t.gen + 1;
  let orphaned =
    Hashtbl.fold
      (fun _ r acc -> if r.r_settled then acc else r :: acc)
      t.rounds []
    |> List.sort (fun a b -> Int.compare a.r_txn b.r_txn)
  in
  List.iter
    (fun round ->
      round.r_settled <- true;
      Hashtbl.remove t.rounds round.r_txn;
      t.n_orphans <- t.n_orphans + 1;
      t.dispositions <-
        (Sim.now t.sim, round.r_txn, round.r_shards, '?') :: t.dispositions;
      if lying t Shard_fault.Stale_prepared_read then
        List.iter
          (fun s ->
            let p = t.chans.(s).p in
            if Hashtbl.mem p.Participant.prepared round.r_txn then
              Participant.freeze p)
          round.r_shards
      else begin
        t.n_presumed_aborts <- t.n_presumed_aborts + 1;
        let gen = t.gen in
        List.iter
          (fun s ->
            let c = t.chans.(s) in
            Sim.schedule_after t.sim ~delay:t.cfg.retransmit_ns (fun () ->
                if gen = t.gen then
                  Participant.release c.p ~txn:round.r_txn
                    ~apply_anyway:(lying t Shard_fault.Commit_after_abort)))
          round.r_shards
      end;
      round.r_k Coord_crashed)
    orphaned;
  if lying t Shard_fault.Fractured_commit then fracture t;
  Array.iter
    (fun c ->
      c.inflight <- false;
      pump t c)
    t.chans

(* Recovery trusts only the longest prefix of a record feed that
   matches the coordinator's decision log positionally — modelling the
   per-record checksum + sequence validation a real participant runs at
   replay.  Comparing txn, commit stamp and write-set size catches every
   durability fault: a torn tail shortens the write set, a lost-fsync
   hole or reordered flush shifts later records out of position, and a
   duplicate replay repeats an out-of-place record.  Everything past the
   first mismatch is discarded — damaged records must never reach the
   store (a poisoned slice served at [caught_up] would turn honest
   damage into a false Violation); truncation only lags the shard, and
   the coordinator re-ships the gap. *)
let record_matches (a : Wal.record) (b : Wal.record) =
  a.Wal.txn = b.Wal.txn
  && a.Wal.commit_ts = b.Wal.commit_ts
  && List.length a.Wal.writes = List.length b.Wal.writes

let clean_prefix c records =
  let rec go acc i = function
    | r :: rest when i < c.count && record_matches (entry_at c (i + 1)) r ->
      go (r :: acc) (i + 1) rest
    | _ -> List.rev acc
  in
  go [] 0 records

(* Rebuild one participant from a durable record feed, re-acking only
   the trusted prefix; the coordinator's log backfills the rest.
   [claim_through] is the lying-cluster channel: a replica set that
   elected a lagging or suffix-losing primary claims the rebuild is
   clean through the pre-crash cursor, so the coordinator never
   re-ships the hole — a silent loss the checker must catch as CR.
   [Fractured_commit] is the same overclaim arising inside the shard:
   the just-failed-over primary's log lost one cross-shard decision
   slice yet the shard reports the full prefix. *)
let rebuild_chan t c ~records ~claim_through =
  t.n_rebuilds <- t.n_rebuilds + 1;
  let honest = clean_prefix c records in
  t.n_wal_truncated <-
    t.n_wal_truncated
    + max 0 (c.p.Participant.applied_through - List.length honest);
  let store_records, claimed =
    match claim_through with
    | Some k -> (honest, Some k)
    | None ->
      if lying t Shard_fault.Fractured_commit then (
        match splice_newest_cross t c honest with
        | Some spliced ->
          t.n_fractured <- t.n_fractured + 1;
          (spliced, Some (List.length honest))
        | None -> (honest, None))
      else (honest, None)
  in
  Participant.crash_rebuild c.p
    ~initial:(initial_for t (c.p.Participant.id))
    ~records:store_records;
  Wal.preload c.wal store_records;
  (match claimed with
  | Some k when k > c.p.Participant.applied_through && k <= c.count ->
    c.p.Participant.applied_through <- k;
    c.p.Participant.applied_ts <- (entry_at c k).Wal.commit_ts
  | _ -> ());
  c.acked_through <- c.p.Participant.applied_through;
  c.inflight <- false;
  t.gen <- t.gen + 1;
  Array.iter
    (fun c ->
      c.inflight <- false;
      pump t c)
    t.chans;
  c.acked_through

(* Participant crash/restart: volatile prepared state is lost; the
   store rebuilds from the participant's own WAL through the durability
   fault model (torn tail, lost fsync, reordered flush, duplicate
   replay), truncated to the trusted prefix.  The shard re-acks that
   prefix and the coordinator re-ships anything it lost — honest
   damage costs catch-up lag, never a wrong serve. *)
let restart_participant t ~shard =
  if shard < 0 || shard >= t.cfg.shards then
    invalid_arg "Group.restart_participant: shard out of range";
  t.n_part_restarts <- t.n_part_restarts + 1;
  let c = t.chans.(shard) in
  let survivors, damage = Wal.crash c.wal in
  if not (Wal.no_damage damage) then
    t.n_wal_damage <- t.n_wal_damage + Wal.damaged_records damage;
  ignore (rebuild_chan t c ~records:survivors ~claim_through:None)

(* Rebuild one participant from an externally supplied record feed —
   the survivor prefix its replica set kept across a failover.  Returns
   the re-acked cursor. *)
let rebuild_participant t ~shard ~records ~claim_through =
  if shard < 0 || shard >= t.cfg.shards then
    invalid_arg "Group.rebuild_participant: shard out of range";
  rebuild_chan t t.chans.(shard) ~records ~claim_through

(* {2 Routed reads} *)

(* Serve a write-free snapshot read from the owning participants when
   every touched shard can serve it.  Honest serving requires the
   shard's horizon to have reached the snapshot (then the answer is
   exactly the engine's, by the horizon-exactness of sequential
   application).  [Snapshot_skew] serves lagging shards at their own
   horizon inside the skew bound — one read, several timelines — and a
   horizon frozen by [Stale_prepared_read] keeps answering from the
   freeze instant.  Routing draws no randomness and schedules nothing:
   a [None] falls back to the engine path. *)
let route_read t ~cells ~snapshot =
  let snap = snapshot () in
  let serve_ts shard =
    let c = t.chans.(shard) in
    let p = c.p in
    (* A drained channel ([acked_through >= count]) means every decision
       logged for this shard has been applied: the participant's slice
       is complete through now, so any snapshot is honestly serveable.
       A lying log (spliced or poisoned) drains just the same — the lie
       becomes the answer. *)
    let caught_up = c.acked_through >= c.count in
    match p.Participant.frozen_ts with
    | Some f ->
      if snap <= f then Some snap
      else if snap - f <= t.cfg.skew_bound_ns then begin
        t.n_stale_serves <- t.n_stale_serves + 1;
        Some f
      end
      else None
    | None ->
      if p.Participant.applied_ts >= snap || caught_up then Some snap
      else if
        lying t Shard_fault.Snapshot_skew
        && snap - p.Participant.applied_ts <= t.cfg.skew_bound_ns
      then begin
        t.n_skew_serves <- t.n_skew_serves + 1;
        Some p.Participant.applied_ts
      end
      else None
  in
  let shards = shards_touched t ~cells in
  let plan =
    List.fold_left
      (fun acc shard ->
        match (acc, serve_ts shard) with
        | Some acc, Some ts -> Some ((shard, ts) :: acc)
        | _, _ -> None)
      (Some []) shards
  in
  match plan with
  | None -> None
  | Some plan ->
    t.n_routed_reads <- t.n_routed_reads + 1;
    Some
      (List.map
         (fun cell ->
           let shard = owner t cell in
           let ts = List.assoc shard plan in
           match Participant.read t.chans.(shard).p ~cells:[ cell ] ~ts with
           | [ item ] -> item
           | _ -> { Trace.cell; value = 0 })
         cells)

(* {2 Reporting} *)

let rounds_log t = List.rev t.dispositions

type stats = {
  shards : int;
  prepares_sent : int;
  votes_delivered : int;
  vetoes : int;
  prep_timeouts : int;
  decisions_sent : int;
  acks_delivered : int;
  resends : int;
  fast_path_commits : int;
  tpc_commits : int;
  tpc_aborts : int;
  coord_crashes : int;
  coord_orphans : int;
  presumed_aborts : int;
  fractured : int;
  participant_restarts : int;
  participant_rebuilds : int;
  wal_truncated_records : int;
  wal_damaged_records : int;
  routed_reads : int;
  skew_serves : int;
  stale_serves : int;
  partition_drops : int;
  stale_drops : int;
  log_entries : int;
  min_applied : int;
  link_dropped : int;
  link_duplicated : int;
  link_delayed : int;
  link_reordered : int;
  link_resets : int;
}

let stats t =
  {
    shards = t.cfg.shards;
    prepares_sent = t.n_prepares_sent;
    votes_delivered = t.n_votes_delivered;
    vetoes = t.n_vetoes;
    prep_timeouts = t.n_prep_timeouts;
    decisions_sent = t.n_decisions_sent;
    acks_delivered = t.n_acks_delivered;
    resends = t.n_resends;
    fast_path_commits = t.n_fast_commits;
    tpc_commits = t.n_tpc_commits;
    tpc_aborts = t.n_tpc_aborts;
    coord_crashes = t.n_coord_crashes;
    coord_orphans = t.n_orphans;
    presumed_aborts = t.n_presumed_aborts;
    fractured = t.n_fractured;
    participant_restarts = t.n_part_restarts;
    participant_rebuilds = t.n_rebuilds;
    wal_truncated_records = t.n_wal_truncated;
    wal_damaged_records = t.n_wal_damage;
    routed_reads = t.n_routed_reads;
    skew_serves = t.n_skew_serves;
    stale_serves = t.n_stale_serves;
    partition_drops = t.n_partition_drops;
    stale_drops = t.n_stale_drops;
    log_entries = Array.fold_left (fun acc c -> acc + c.count) 0 t.chans;
    min_applied =
      Array.fold_left
        (fun acc c -> min acc c.p.Participant.applied_through)
        max_int t.chans;
    link_dropped = Faulty_link.dropped t.link;
    link_duplicated = Faulty_link.duplicated t.link;
    link_delayed = Faulty_link.delayed t.link;
    link_reordered = Faulty_link.reordered t.link;
    link_resets = Faulty_link.resets t.link;
  }
