module Cell = Leopard_trace.Cell
module Trace = Leopard_trace.Trace
module Version_store = Minidb.Version_store
module Wal = Minidb.Wal
module Recovery = Minidb.Recovery

(* A shard participant is a version store fed exclusively by the
   coordinator's per-shard decision log, in log order.  The coordinator
   appends commit records in commit-stamp order and decisions apply
   strictly in sequence, so [applied_ts] is an exact visibility horizon
   *for this shard's slice of the key space*: the store holds every
   version of an owned cell with commit_ts <= applied_ts and none
   beyond it.  On top of the applier sits the 2PC-side state: prepared
   write sets awaiting a decision (the prepared locks), and an optional
   frozen serving horizon — the [Shard_fault.Stale_prepared_read] lie,
   where an orphaned prepared lock pins what the shard will serve. *)

type prepared = {
  p_start_ts : int;
  p_writes : (Cell.t * Trace.value) list;
  p_vetoed : bool;  (* this shard voted abort for the transaction *)
}

type t = {
  id : int;
  mutable store : Version_store.t;
  mutable applied_through : int;  (* highest contiguously applied seq *)
  mutable applied_ts : int;  (* commit stamp of that entry; 0 if none *)
  prepared : (int, prepared) Hashtbl.t;  (* txn -> prepared entry *)
  mutable frozen_ts : int option;
      (* serving horizon frozen at an orphaned prepare (fault only) *)
}

let install_record store (r : Wal.record) =
  List.iter
    (fun (w : Wal.write) ->
      Version_store.install store w.Wal.cell
        {
          Version_store.value = w.Wal.value;
          writer = r.Wal.txn;
          writer_ts = r.Wal.start_ts;
          write_op = w.Wal.write_op;
          commit_ts = w.Wal.commit_ts;
        })
    r.Wal.writes

let create ~id ~initial =
  let store = Version_store.create () in
  List.iter (fun (cell, value) -> Version_store.load store cell value) initial;
  {
    id;
    store;
    applied_through = 0;
    applied_ts = 0;
    prepared = Hashtbl.create 8;
    frozen_ts = None;
  }

let rows_conflict writes (pe : prepared) =
  List.exists
    (fun (cell, _) ->
      let rk = Cell.row_key cell in
      List.exists
        (fun (c2, _) -> Cell.compare_row_key rk (Cell.row_key c2) = 0)
        pe.p_writes)
    writes

(* Vote on a PREPARE: true = commit, false = veto.  A duplicated
   prepare re-votes identically.  With [check_conflicts], a write set
   overlapping the rows of another (non-vetoed) prepared transaction is
   vetoed — the prepared-lock conflict of a real 2PC participant,
   turned into an abort instead of blocking. *)
let prepare t ~txn ~start_ts ~writes ~check_conflicts =
  match Hashtbl.find_opt t.prepared txn with
  | Some pe -> not pe.p_vetoed
  | None ->
    let conflict =
      check_conflicts
      (* lint: allow hashtbl-order — existence fold; commutative *)
      && Hashtbl.fold
           (fun otxn pe acc ->
             acc
             || (otxn <> txn && (not pe.p_vetoed) && rows_conflict writes pe))
           t.prepared false
    in
    Hashtbl.replace t.prepared txn
      { p_start_ts = start_ts; p_writes = writes; p_vetoed = conflict };
    not conflict

let apply t ~seq record =
  if seq <> t.applied_through + 1 then false
    (* stale retransmit or a gap from reordering: the cumulative ack for
       [applied_through] tells the coordinator what to resend *)
  else begin
    install_record t.store record;
    Hashtbl.remove t.prepared record.Wal.txn;
    t.applied_through <- seq;
    t.applied_ts <- record.Wal.commit_ts;
    true
  end

(* ABORT decision: drop the prepared entry.  [apply_anyway] is the
   [Shard_fault.Commit_after_abort] lie — the participant installs the
   vetoed/aborted writes at its current horizon, so later snapshots on
   this shard observe values the engine never committed. *)
let release t ~txn ~apply_anyway =
  match Hashtbl.find_opt t.prepared txn with
  | None -> ()
  | Some pe ->
    Hashtbl.remove t.prepared txn;
    if apply_anyway then
      List.iter
        (fun (cell, value) ->
          Version_store.install t.store cell
            {
              Version_store.value;
              writer = txn;
              writer_ts = pe.p_start_ts;
              write_op = 0;
              commit_ts = t.applied_ts + 1;
            })
        pe.p_writes

let freeze t =
  match t.frozen_ts with
  | Some _ -> ()
  | None -> t.frozen_ts <- Some t.applied_ts

let read t ~cells ~ts =
  List.map
    (fun cell ->
      let value =
        match Version_store.visible t.store cell ~ts with
        | Some v -> v.Version_store.value
        | None -> 0
      in
      { Trace.cell; value })
    cells

(* Crash/restart: prepared state and any frozen horizon are volatile;
   the store rebuilds from the durable decision log (complete — the
   coordinator logs before shipping), so the participant recovers to
   the full prefix, possibly ahead of what it had applied. *)
let crash_rebuild t ~initial ~records =
  let store, _summary =
    Recovery.replay ~initial ~records
      ~fresh_ts:(fun () -> 0)
      ~damage:Wal.zero_damage
  in
  t.store <- store;
  t.applied_through <- List.length records;
  t.applied_ts <-
    (match List.rev records with
    | last :: _ -> last.Wal.commit_ts
    | [] -> 0);
  Hashtbl.reset t.prepared;
  t.frozen_ts <- None
