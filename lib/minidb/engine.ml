module Cell = Leopard_trace.Cell
module Trace = Leopard_trace.Trace
open Isolation

type abort_reason =
  | Deadlock_victim
  | Fuw_conflict
  | Certifier_conflict of string
  | User_abort
  | Server_crash

let abort_reason_to_string = function
  | Deadlock_victim -> "deadlock"
  | Fuw_conflict -> "first-updater-wins"
  | Certifier_conflict s -> "certifier:" ^ s
  | User_abort -> "user-abort"
  | Server_crash -> "server-crash"

type request =
  | Read of { cells : Cell.t list; locking : bool; predicate : bool }
  | Write of (Cell.t * Trace.value) list
  | Commit
  | Abort

type result =
  | Ok_read of Trace.item list
  | Ok_write
  | Ok_commit
  | Err of abort_reason

type txn_state = Active | Committed_at of int | Aborted

type txn = {
  id : int;
  client : int;
  epoch : int;  (* server epoch the txn was started in *)
  mutable state : txn_state;
  mutable snapshot_ts : int;  (* -1 until taken *)
  mutable start_ts : int;  (* -1 until first operation *)
  mutable writes : (Trace.value * int) Cell.Tbl.t;  (* cell -> value, op *)
  mutable write_order : Cell.t list;  (* reverse order of first writes *)
  mutable read_seen : (Cell.t * int) list;  (* cell, seen writer (OCC) *)
  mutable in_conflict : bool;  (* SSI: some rw points into this txn *)
  mutable out_conflict : bool;  (* SSI: some rw leaves this txn *)
}

type t = {
  sim : Sim.t;
  mech : Isolation.mechanisms;
  faults : Fault.Set.t;
  mutable store : Version_store.t;  (* swapped wholesale on recovery *)
  wal : Wal.t option;
  locks : Lock_manager.t;
  truth : Ground_truth.t;
  txns : (int, txn) Hashtbl.t;
  active : (int, txn) Hashtbl.t;
  pending : (int * Trace.value * int) list Cell.Tbl.t;
      (* cell -> (txn, value, op) of uncommitted writers, newest first *)
  mutable initial : (Cell.t * Trace.value) list;  (* reverse load order *)
  mutable epoch : int;  (* bumped by every crash or failover *)
  next_txn : int ref;
      (* shared with engines promoted from this one: ids stay unique
         across a failover *)
  last_stamp : int ref;  (* shared likewise: stamps stay globally monotone *)
  mutable on_commit : (Wal.record -> unit) option;
      (* replication hook: fed every commit record at the instant it is
         durably appended, before the acknowledgement leaves *)
  mutable commits : int;
  mutable restarts : int;
  mutable aborts_deadlock : int;
  mutable aborts_fuw : int;
  mutable aborts_certifier : int;
  mutable aborts_user : int;
  mutable aborts_crash : int;
  mutable dup_commit_acks : int;
  mutable ops : int;
}

let fault t f = Fault.Set.mem f t.faults

let create ?wal sim ~profile ~level ~faults =
  if not (Profile.supports profile level) then
    invalid_arg
      (Printf.sprintf "Engine.create: profile %s does not support %s"
         profile.Profile.name
         (Isolation.level_to_string level));
  let mech = Profile.mechanisms profile level in
  {
    sim;
    mech;
    faults;
    store = Version_store.create ();
    wal;
    locks =
      Lock_manager.create sim
        ~s_ignores_x:(Fault.Set.mem Fault.Shared_lock_ignores_exclusive faults);
    truth = Ground_truth.create ();
    txns = Hashtbl.create 4096;
    active = Hashtbl.create 64;
    pending = Cell.Tbl.create 256;
    initial = [];
    epoch = 0;
    next_txn = ref 0;
    last_stamp = ref 0;
    on_commit = None;
    commits = 0;
    restarts = 0;
    aborts_deadlock = 0;
    aborts_fuw = 0;
    aborts_certifier = 0;
    aborts_user = 0;
    aborts_crash = 0;
    dup_commit_acks = 0;
    ops = 0;
  }

let mechanisms t = t.mech

(* Unique, strictly monotone timestamps within the current instant. *)
let stamp t =
  let s = max (Sim.now t.sim) (!(t.last_stamp) + 1) in
  t.last_stamp := s;
  s

let load t items =
  t.initial <- List.rev_append items t.initial;
  List.iter (fun (cell, value) -> Version_store.load t.store cell value) items

let begin_txn t ~client =
  let id = !(t.next_txn) in
  t.next_txn := id + 1;
  let txn =
    {
      id;
      client;
      epoch = t.epoch;
      state = Active;
      snapshot_ts = -1;
      start_ts = -1;
      writes = Cell.Tbl.create 8;
      write_order = [];
      read_seen = [];
      in_conflict = false;
      out_conflict = false;
    }
  in
  Hashtbl.replace t.txns id txn;
  Hashtbl.replace t.active id txn;
  txn

let txn_id txn = txn.id
let txn_alive txn = txn.state = Active

(* A finished transaction is looked up only by state (and [write_order],
   for [txn_has_writes]), so its read set goes and its write table becomes
   [no_writes], which nothing writes: only active transactions write. *)
let no_writes : (Trace.value * int) Cell.Tbl.t = Cell.Tbl.create 1

let settle txn state =
  txn.state <- state;
  txn.writes <- no_writes;
  txn.read_seen <- []

let peek t cell =
  match Version_store.latest t.store cell with
  | Some v -> Some v.Version_store.value
  | None -> None

let ground_truth t = t.truth

let committed t id =
  match Hashtbl.find_opt t.txns id with
  | Some { state = Committed_at _; _ } -> true
  | Some _ | None -> false

let commits t = t.commits

let aborts t =
  t.aborts_deadlock + t.aborts_fuw + t.aborts_certifier + t.aborts_user
  + t.aborts_crash

let aborts_by t = function
  | Deadlock_victim -> t.aborts_deadlock
  | Fuw_conflict -> t.aborts_fuw
  | Certifier_conflict _ -> t.aborts_certifier
  | User_abort -> t.aborts_user
  | Server_crash -> t.aborts_crash

let duplicate_commit_acks t = t.dup_commit_acks
let deadlocks t = Lock_manager.deadlocks t.locks
let ops_executed t = t.ops
let epoch t = t.epoch
let restarts t = t.restarts
let wal_appended t = match t.wal with None -> 0 | Some w -> Wal.appended w
let snapshot_committed t = Version_store.snapshot_committed t.store

(* Simulated server crash + recovery, in place.  Volatile state (active
   transactions, their pending writes, the lock table) evaporates; the
   committed state is rebuilt from the WAL.  Every killed transaction's
   future requests get [Err Server_crash] replies, so clients observe a
   definite abort and may retry in the new epoch. *)
let crash_recover t =
  match t.wal with
  | None -> invalid_arg "Engine.crash_recover: engine created without ?wal"
  | Some wal ->
    (* lint: allow hashtbl-order — marks every active txn aborted and
       bumps a counter; per-txn updates, commutative *)
    Hashtbl.iter
      (fun _ txn ->
        if txn.state = Active then begin
          settle txn Aborted;
          t.aborts_crash <- t.aborts_crash + 1
        end)
      t.active;
    Hashtbl.reset t.active;
    Cell.Tbl.reset t.pending;
    Lock_manager.crash_all t.locks;
    t.epoch <- t.epoch + 1;
    t.restarts <- t.restarts + 1;
    let records, damage = Wal.crash wal in
    let store, summary =
      Recovery.replay ~initial:(List.rev t.initial) ~records
        ~fresh_ts:(fun () -> stamp t) ~damage
    in
    t.store <- store;
    summary

let set_commit_hook t hook = t.on_commit <- hook

(* Promote a replica to primary: a fresh engine whose committed store is
   rebuilt from [records] (the survivor prefix of the replication log,
   oldest first) and whose epoch supersedes the old primary's.
   Transaction ids, stamps, the status table, ground truth and the
   initial image are shared with the old engine, so promoted-node
   timestamps stay globally monotone, ids stay unique, and idempotent
   commit acks keep working across the failover.  Counters restart at
   zero (the harness sums per-engine counters across the run).  The
   caller deposes the old engine separately — keeping it alive for a
   window models split-brain. *)
let promote_from old ?wal ~records () =
  (match wal with None -> () | Some w -> Wal.preload w records);
  let t =
    {
      old with
      store = Version_store.create ();
      wal;
      locks =
        Lock_manager.create old.sim
          ~s_ignores_x:
            (Fault.Set.mem Fault.Shared_lock_ignores_exclusive old.faults);
      active = Hashtbl.create 64;
      pending = Cell.Tbl.create 256;
      epoch = old.epoch + 1;
      on_commit = None;
      commits = 0;
      restarts = 0;
      aborts_deadlock = 0;
      aborts_fuw = 0;
      aborts_certifier = 0;
      aborts_user = 0;
      aborts_crash = 0;
      dup_commit_acks = 0;
      ops = 0;
    }
  in
  let store, summary =
    Recovery.replay ~initial:(List.rev old.initial) ~records
      ~fresh_ts:(fun () -> stamp t)
      ~damage:Wal.zero_damage
  in
  t.store <- store;
  (t, summary)

(* Depose a replaced primary: volatile state dies exactly as in a crash
   (active transactions abort, pending writes and locks evaporate) and
   the epoch jumps to the promoted engine's, so every straggler request
   of the old brain gets a definite [Err Server_crash].  No recovery
   happens — the promoted engine carries the surviving state. *)
let depose t ~epoch =
  (* lint: allow hashtbl-order — marks every active txn aborted and
     bumps a counter; per-txn updates, commutative *)
  Hashtbl.iter
    (fun _ txn ->
      if txn.state = Active then begin
        settle txn Aborted;
        t.aborts_crash <- t.aborts_crash + 1
      end)
    t.active;
  Hashtbl.reset t.active;
  Cell.Tbl.reset t.pending;
  Lock_manager.crash_all t.locks;
  t.on_commit <- None;
  t.epoch <- max t.epoch epoch

let min_active_start t =
  (* lint: allow hashtbl-order — min-fold; commutative and associative *)
  Hashtbl.fold
    (fun _ txn acc ->
      if txn.start_ts >= 0 then min acc txn.start_ts else acc)
    t.active max_int

(* ------------------------------------------------------------------ *)
(* Pending (uncommitted) write index, for dirty-read faults and
   bookkeeping. *)

let pending_add t cell ~txn ~value ~op =
  let entries =
    Option.value ~default:[] (Cell.Tbl.find_opt t.pending cell)
  in
  let entries = List.filter (fun (id, _, _) -> id <> txn) entries in
  Cell.Tbl.replace t.pending cell ((txn, value, op) :: entries)

(* Remove a transaction's pending entries using its own write list, so the
   sweep is O(writes) rather than O(cells). *)
let pending_remove t txn =
  (* lint: allow hashtbl-order — per-cell in-place filter of an
     independent index entry *)
  Cell.Tbl.iter
    (fun cell _ ->
      match Cell.Tbl.find_opt t.pending cell with
      | None -> ()
      | Some entries ->
        let entries = List.filter (fun (id, _, _) -> id <> txn.id) entries in
        if entries = [] then Cell.Tbl.remove t.pending cell
        else Cell.Tbl.replace t.pending cell entries)
    txn.writes

let pending_other t cell ~self =
  match Cell.Tbl.find_opt t.pending cell with
  | None -> None
  | Some entries ->
    List.find_opt (fun (id, _, _) -> id <> self) entries

(* ------------------------------------------------------------------ *)
(* Abort path *)

let finish_abort t txn reason =
  if txn.state <> Active then ()
  else begin
  (match reason with
  | Deadlock_victim -> t.aborts_deadlock <- t.aborts_deadlock + 1
  | Fuw_conflict -> t.aborts_fuw <- t.aborts_fuw + 1
  | Certifier_conflict _ -> t.aborts_certifier <- t.aborts_certifier + 1
  | User_abort -> t.aborts_user <- t.aborts_user + 1
  | Server_crash -> t.aborts_crash <- t.aborts_crash + 1);
  let ts = stamp t in
  (* Retain aborted values so Fault.Read_aborted_version can surface them.
     lint: allow hashtbl-order — one binding per written cell, each
     recorded under its own cell in the version store *)
  Cell.Tbl.iter
    (fun cell (value, op) ->
      Version_store.record_aborted t.store cell
        {
          Version_store.value;
          writer = txn.id;
          writer_ts = txn.start_ts;
          write_op = op;
          commit_ts = ts;
        })
    txn.writes;
  pending_remove t txn;
  settle txn Aborted;
  Hashtbl.remove t.active txn.id;
  Lock_manager.release_all t.locks ~txn:txn.id
  end

(* ------------------------------------------------------------------ *)
(* Snapshots *)

let effective_cr t =
  match t.mech.cr with
  | Some Txn_level when fault t Fault.Stmt_snapshot_under_txn_cr ->
    Some Stmt_level
  | other -> other

let ensure_started t txn =
  if txn.start_ts < 0 then txn.start_ts <- stamp t

let snapshot_for_op t txn =
  ensure_started t txn;
  match effective_cr t with
  | None -> max_int  (* pure locking: read latest committed *)
  | Some Txn_level ->
    if txn.snapshot_ts < 0 then txn.snapshot_ts <- txn.start_ts;
    txn.snapshot_ts
  | Some Stmt_level ->
    let s = stamp t in
    txn.snapshot_ts <- s;
    s

(* The snapshot instant the next operation of [txn] would read at —
   exposed so follower-read routing can serve the same snapshot from a
   replica.  Mutates exactly as the engine's own read path would (starts
   the transaction, pins or advances the snapshot). *)
let op_snapshot t txn = snapshot_for_op t txn

let txn_has_writes txn = txn.write_order <> []

(* ------------------------------------------------------------------ *)
(* Lock acquisition over a row list, CPS style *)

let acquire_rows t (txn : txn) rows mode ~ok ~dead =
  let rec go = function
    | [] -> ok ()
    | row :: rest ->
      Lock_manager.acquire t.locks ~txn:txn.id row mode ~k:(function
        | Lock_manager.Granted ->
          if txn.epoch < t.epoch then
            (* the server crashed while we waited *)
            dead Server_crash
          else if txn.state <> Active then
            (* aborted while waiting (cannot normally happen; guard) *)
            dead Deadlock_victim
          else go rest
        | Lock_manager.Deadlock ->
          if txn.epoch < t.epoch then dead Server_crash
          else dead Deadlock_victim)
  in
  go rows

let dedup_rows cells =
  List.sort_uniq Cell.compare_row_key (List.map Cell.row_key cells)

(* The lock granule: SQLite locks whole tables, everything else rows. *)
let granule t (cell : Cell.t) =
  match t.mech.lock_granularity with
  | Isolation.Row_locks -> Cell.row_key cell
  | Isolation.Table_locks -> (cell.Cell.table, -1)

let dedup_granules t cells =
  List.sort_uniq Cell.compare_row_key (List.map (granule t) cells)

(* ------------------------------------------------------------------ *)
(* SSI bookkeeping *)

let ssi_enabled t = t.mech.sc = Some Ssi && not (fault t Fault.No_ssi)

(* Mark rw(reader -> writer).  Returns [true] if this marking turns an
   already-committed transaction into a pivot — in that case the caller
   (the transaction doing the marking) must abort instead, PostgreSQL's
   retroactive-pivot rule. *)
let mark_rw ~reader ~writer =
  if reader.id = writer.id then false
  else begin
    reader.out_conflict <- true;
    writer.in_conflict <- true;
    let committed_pivot tx =
      (match tx.state with Committed_at _ -> true | Active | Aborted -> false)
      && tx.in_conflict && tx.out_conflict
    in
    committed_pivot reader || committed_pivot writer
  end

(* Readers of a row are pruned once they can no longer be concurrent with
   any active transaction. *)
let prune_readers t (info : Version_store.row_info) =
  if List.length info.readers > 64 then begin
    let horizon = min_active_start t in
    info.readers <-
      List.filter
        (fun (id, _) ->
          match Hashtbl.find_opt t.txns id with
          | Some { state = Active; _ } -> true
          | Some { state = Committed_at c; _ } -> c >= horizon
          | Some { state = Aborted; _ } | None -> false)
        info.readers
  end

(* ------------------------------------------------------------------ *)
(* Read path *)

exception Abort_now of abort_reason

(* CockroachDB-style uncertainty restart: a snapshot read that would skip
   a version committed after the snapshot by a transaction with an older
   timestamp must abort — otherwise the read creates a
   younger-to-older antidependency the MVTO certifier forbids. *)
let mvto_uncertainty_check t txn cell ~snapshot =
  if t.mech.sc = Some Mvto && not (fault t Fault.Mvto_no_check) then
    List.iter
      (fun (v : Version_store.version) ->
        if v.writer_ts <= txn.start_ts && v.writer >= 0 then
          raise (Abort_now (Certifier_conflict "mvto-uncertainty")))
      (Version_store.committed_newer_than t.store cell ~ts:snapshot)

let read_cell_value t txn cell ~snapshot =
  (* Own pending write first (unless faulted away). *)
  let own =
    if fault t Fault.Ignore_own_writes then None
    else
      match Cell.Tbl.find_opt txn.writes cell with
      | Some (v, _) -> Some v
      | None -> None
  in
  match own with
  | Some v -> (v, txn.id, -2 (* own write: no provenance dep *))
  | None ->
    let from_version (v : Version_store.version) =
      (v.value, v.writer, v.write_op)
    in
    let dirty =
      if fault t Fault.Dirty_read then pending_other t cell ~self:txn.id
      else None
    in
    (match dirty with
    | Some (id, v, op) -> (v, id, op)
    | None ->
      let visible = Version_store.visible t.store cell ~ts:snapshot in
      (match visible with
      | None -> (0, -1, -1)  (* absent cell: initial state *)
      | Some v ->
        let v =
          if fault t Fault.Stale_read then
            match
              Version_store.predecessor_of_visible t.store cell ~ts:snapshot
            with
            | Some older -> older
            | None -> v
          else v
        in
        let v =
          if fault t Fault.Read_aborted_version then
            match
              Version_store.latest_aborted_newer_than t.store cell
                ~ts:v.commit_ts
            with
            | Some ab -> ab
            | None -> v
          else v
        in
        from_version v))

let do_read t txn ~op_id ~cells ~locking ~predicate ~k =
  let snapshot = snapshot_for_op t txn in
  let skip_locks = predicate && fault t Fault.Predicate_read_ignores_locks in
  let rows = dedup_granules t cells in
  let lock_mode =
    if skip_locks then None
    else if locking && t.mech.me_locking_reads then Some Lock_manager.X
    else if t.mech.me_reads then Some Lock_manager.S
    else None
  in
  let proceed () =
    let items = ref [] in
    List.iter
      (fun cell ->
        mvto_uncertainty_check t txn cell ~snapshot;
        let value, seen_writer, seen_op = read_cell_value t txn cell ~snapshot in
        items := { Trace.cell; value } :: !items;
        (* Bug-4 fault: also surface a stale version next to an own write. *)
        if
          fault t Fault.Read_two_versions
          && Cell.Tbl.mem txn.writes cell
        then begin
          match Version_store.visible t.store cell ~ts:snapshot with
          | Some old when old.value <> value ->
            items := { Trace.cell; value = old.value } :: !items
          | Some _ | None -> ()
        end;
        (* provenance & read tracking *)
        if seen_op <> -2 then begin
          Ground_truth.record_read t.truth cell ~reader:txn.id ~op:op_id
            ~seen_writer ~seen_op;
          if t.mech.sc = Some Occ_validate then
            txn.read_seen <- (cell, seen_writer) :: txn.read_seen
        end;
        let row = Cell.row_key cell in
        let info = Version_store.row_info t.store row in
        (* MVTO read-timestamp registration *)
        if t.mech.sc = Some Mvto && txn.start_ts > info.max_read_ts then
          info.max_read_ts <- txn.start_ts;
        (* SSI reader registration + read-side rw detection *)
        if ssi_enabled t then begin
          prune_readers t info;
          info.readers <- (txn.id, snapshot) :: info.readers;
          if info.last_commit_ts > snapshot && info.last_writer >= 0 then begin
            match Hashtbl.find_opt t.txns info.last_writer with
            | Some w ->
              if mark_rw ~reader:txn ~writer:w then
                raise (Abort_now (Certifier_conflict "ssi"))
            | None -> ()
          end
        end)
      cells;
    t.ops <- t.ops + 1;
    k (Ok_read (List.rev !items))
  in
  let proceed () =
    try proceed ()
    with Abort_now reason ->
      finish_abort t txn reason;
      k (Err reason)
  in
  match lock_mode with
  | None -> proceed ()
  | Some mode ->
    acquire_rows t txn rows mode ~ok:proceed ~dead:(fun reason ->
        finish_abort t txn reason;
        k (Err reason))

(* ------------------------------------------------------------------ *)
(* Write path *)

let fuw_enabled t = t.mech.fuw && not (fault t Fault.No_fuw)

let fuw_conflict t txn row =
  let info = Version_store.row_info t.store row in
  txn.snapshot_ts >= 0 && info.last_commit_ts > txn.snapshot_ts

let do_write t txn ~op_id ~items ~k =
  ensure_started t txn;
  if fault t Fault.Snapshot_reset_on_write && Cell.Tbl.length txn.writes = 0
  then txn.snapshot_ts <- stamp t;
  if txn.snapshot_ts < 0 then txn.snapshot_ts <- txn.start_ts;
  let rows = dedup_granules t (List.map fst items) in
  (* Bug-1 fault: a granule whose new values all equal the currently
     visible committed values is treated as a no-op and skips locking. *)
  let noop_row row =
    fault t Fault.No_lock_on_noop_update
    && List.for_all
         (fun (cell, value) ->
           granule t cell <> row
           ||
           match Version_store.latest t.store cell with
           | Some v -> v.value = value
           | None -> false)
         items
  in
  let lock_rows =
    if t.mech.me_writes then List.filter (fun r -> not (noop_row r)) rows
    else []
  in
  let data_rows = dedup_rows (List.map fst items) in
  let apply () =
    (* FUW check, after locks are held (row-level regardless of the lock
       granule). *)
    let fuw_hit =
      fuw_enabled t && t.mech.me_writes
      && List.exists (fuw_conflict t txn) data_rows
    in
    if fuw_hit then begin
      finish_abort t txn Fuw_conflict;
      k (Err Fuw_conflict)
    end
    else begin
      (* MVTO write-time check: abort when a younger reader or writer got
         there first. *)
      let mvto_hit =
        t.mech.sc = Some Mvto
        && (not (fault t Fault.Mvto_no_check))
        && List.exists
             (fun row ->
               let info = Version_store.row_info t.store row in
               info.max_read_ts > txn.start_ts
               || info.last_writer_ts > txn.start_ts)
             data_rows
      in
      if mvto_hit then begin
        finish_abort t txn (Certifier_conflict "mvto");
        k (Err (Certifier_conflict "mvto"))
      end
      else begin
        List.iter
          (fun (cell, value) ->
            if not (Cell.Tbl.mem txn.writes cell) then
              txn.write_order <- cell :: txn.write_order;
            Cell.Tbl.replace txn.writes cell (value, op_id);
            pending_add t cell ~txn:txn.id ~value ~op:op_id)
          items;
        if fault t Fault.Early_lock_release then
          List.iter
            (fun row -> Lock_manager.release_row t.locks ~txn:txn.id row)
            lock_rows;
        t.ops <- t.ops + 1;
        k Ok_write
      end
    end
  in
  if lock_rows = [] then apply ()
  else
    acquire_rows t txn lock_rows Lock_manager.X ~ok:apply ~dead:(fun reason ->
        finish_abort t txn reason;
        k (Err reason))

(* ------------------------------------------------------------------ *)
(* Commit path *)

let occ_validate t txn =
  List.for_all
    (fun (cell, seen_writer) ->
      match Version_store.latest t.store cell with
      | None -> seen_writer = -1
      | Some v -> v.writer = seen_writer)
    txn.read_seen

let do_commit t txn ~op_id ~k =
  ensure_started t txn;
  if txn.snapshot_ts < 0 then txn.snapshot_ts <- txn.start_ts;
  let write_cells = List.rev txn.write_order in
  let write_rows = dedup_rows write_cells in
  let fail reason =
    finish_abort t txn reason;
    k (Err reason)
  in
  (* Commit-time FUW for lock-free profiles (Percolator-style). *)
  if
    fuw_enabled t
    && (not t.mech.me_writes)
    && List.exists (fuw_conflict t txn) write_rows
  then fail Fuw_conflict
  else if
    (* MVTO commit-time recheck. *)
    t.mech.sc = Some Mvto
    && (not (fault t Fault.Mvto_no_check))
    && List.exists
         (fun row ->
           let info = Version_store.row_info t.store row in
           info.max_read_ts > txn.start_ts
           || info.last_writer_ts > txn.start_ts)
         write_rows
  then fail (Certifier_conflict "mvto")
  else if
    t.mech.sc = Some Occ_validate
    && not (occ_validate t txn)
  then fail (Certifier_conflict "occ")
  else begin
    (* SSI: mark rw(reader -> me) for registered concurrent readers of the
       rows I am about to install, then apply the pivot rule. *)
    let retroactive = ref false in
    if ssi_enabled t then begin
      List.iter
        (fun row ->
          let info = Version_store.row_info t.store row in
          prune_readers t info;
          List.iter
            (fun (reader_id, _snap) ->
              if reader_id <> txn.id then
                match Hashtbl.find_opt t.txns reader_id with
                | Some reader ->
                  let concurrent =
                    match reader.state with
                    | Active -> true
                    | Committed_at c -> c > txn.start_ts
                    | Aborted -> false
                  in
                  if concurrent && mark_rw ~reader ~writer:txn then
                    retroactive := true
                | None -> ())
            info.readers)
        write_rows
    end;
    if !retroactive then fail (Certifier_conflict "ssi")
    else if ssi_enabled t && txn.in_conflict && txn.out_conflict then
      fail (Certifier_conflict "ssi")
    else begin
      let commit_stamp = stamp t in
      let visible_ts =
        if fault t Fault.Delayed_visibility then commit_stamp + 5_000_000
        else commit_stamp
      in
      (* Partial-commit fault: install only a strict prefix. *)
      let cells_to_install =
        if fault t Fault.Partial_commit && List.length write_cells > 1 then begin
          let n = (List.length write_cells + 1) / 2 in
          List.filteri (fun i _ -> i < n) write_cells
        end
        else write_cells
      in
      let installs =
        List.filter_map
          (fun cell ->
            match Cell.Tbl.find_opt txn.writes cell with
            | None -> None
            | Some (value, wop) ->
              let cts =
                if fault t Fault.Version_order_inversion then
                  (* slot the new version just behind the newest real
                     version, so readers keep seeing the old head *)
                  match Version_store.latest t.store cell with
                  | Some head when head.writer >= 0 ->
                    max 1 (head.commit_ts - 1)
                  | Some _ | None -> visible_ts
                else visible_ts
              in
              Some (cell, value, wop, cts))
          cells_to_install
      in
      List.iter
        (fun (cell, value, wop, cts) ->
          Version_store.install t.store cell
            {
              Version_store.value;
              writer = txn.id;
              writer_ts = txn.start_ts;
              write_op = wop;
              commit_ts = cts;
            };
          Ground_truth.record_cell_install t.truth cell ~txn:txn.id ~op:wop)
        installs;
      (* Durability: one commit record with the installed write set,
         appended before the acknowledgement leaves the server.  The
         replication hook receives the same record; building it draws
         nothing (no stamps, no RNG), so attaching a cluster leaves the
         timestamp stream untouched. *)
      (match (t.wal, t.on_commit) with
      | None, None -> ()
      | wal, hook ->
        let record =
          {
            Wal.txn = txn.id;
            client = txn.client;
            start_ts = txn.start_ts;
            commit_ts = commit_stamp;
            writes =
              List.map
                (fun (cell, value, wop, cts) ->
                  { Wal.cell; value; write_op = wop; commit_ts = cts })
                installs;
          }
        in
        (match wal with None -> () | Some w -> Wal.append w record);
        (match hook with None -> () | Some f -> f record));
      (* Row-level metadata + ground truth, on the real commit stamp. *)
      List.iter
        (fun row ->
          let info = Version_store.row_info t.store row in
          info.last_commit_ts <- commit_stamp;
          info.last_writer <- txn.id;
          info.last_writer_ts <- txn.start_ts;
          let row_op =
            (* op of the last write touching this row *)
            List.fold_left
              (fun acc cell ->
                if Cell.row_key cell = row then
                  match Cell.Tbl.find_opt txn.writes cell with
                  | Some (_, op) -> op
                  | None -> acc
                else acc)
              op_id write_cells
          in
          Ground_truth.record_row_install t.truth row ~txn:txn.id ~op:row_op)
        write_rows;
      pending_remove t txn;
      settle txn (Committed_at commit_stamp);
      Hashtbl.remove t.active txn.id;
      Lock_manager.release_all t.locks ~txn:txn.id;
      t.commits <- t.commits + 1;
      t.ops <- t.ops + 1;
      k Ok_commit
    end
  end

(* ------------------------------------------------------------------ *)

let rec exec t (txn : txn) ~op_id request ~k =
  match (request, txn.state) with
  | Commit, Committed_at _ ->
    (* Idempotent commit token (the transaction id is the token): the
       commit already applied, so a retried or link-duplicated COMMIT is
       re-acknowledged without re-executing.  The transaction-status
       table — persisted alongside the WAL in a real engine — *is* the
       idempotency table.  Checked before the epoch guard: "your commit
       was applied" remains true across a crash; whether it *survived*
       the crash is the WAL's business, and a lossy recovery surfaces as
       a post-crash read violation, never as a flapping ack. *)
    t.dup_commit_acks <- t.dup_commit_acks + 1;
    k Ok_commit
  | (Read _ | Write _ | Commit | Abort), _ -> exec_once t txn ~op_id request ~k

and exec_once t (txn : txn) ~op_id request ~k =
  if txn.epoch < t.epoch then
    (* the txn belongs to a pre-crash epoch: its server-side state is
       gone.  Every request gets a definite crash error — the reply
       always arrives, so no transaction is left indeterminate. *)
    k (Err Server_crash)
  else if txn.state <> Active then k (Err User_abort)
  else
    match request with
    | Read { cells; locking; predicate } ->
      ensure_started t txn;
      do_read t txn ~op_id ~cells ~locking ~predicate ~k
    | Write items -> do_write t txn ~op_id ~items ~k
    | Commit -> do_commit t txn ~op_id ~k
    | Abort ->
      finish_abort t txn User_abort;
      k (Err User_abort)
