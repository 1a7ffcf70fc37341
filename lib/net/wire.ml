module Cell = Leopard_trace.Cell
module Trace = Leopard_trace.Trace

type req_body =
  | Begin
  | Read of { cells : Cell.t list; locking : bool; predicate : bool }
  | Write of (Cell.t * Trace.value) list
  | Commit of { token : int }
  | Abort

type request = {
  session : int;
  seq : int;
  txn : int;
  op : int;
  body : req_body;
}

type resp_body =
  | Began of int
  | Ok_read of Trace.item list
  | Ok_write
  | Ok_commit
  | Refused of Minidb.Engine.abort_reason
  | Rejected

type response = { session : int; seq : int; body : resp_body }

(* Replication traffic rides the same faulty links as client traffic but
   is a separate vocabulary: a replica session never speaks the
   request/response protocol and a client session never sees a
   REPL_APPEND.  Acks are cumulative, so a dropped or reordered ack is
   subsumed by any later one. *)
type repl_msg =
  | Repl_append of { follower : int; index : int; record : Minidb.Wal.record }
  | Repl_ack of { follower : int; through : int }

(* Two-phase-commit traffic between the coordinator and shard
   participants rides the same faulty links (one session per shard), as
   a third vocabulary: PREPARE carries the shard's slice of a pending
   write set, votes answer it, commit decisions ship the durable record
   in per-shard sequence order, aborts are out-of-band, and acks are
   cumulative like replication acks. *)
type tpc_msg =
  | Tpc_prepare of {
      shard : int;
      txn : int;
      start_ts : int;
      writes : (Cell.t * Trace.value) list;
    }
  | Tpc_vote of { shard : int; txn : int; commit : bool }
  | Tpc_decision of { shard : int; seq : int; record : Minidb.Wal.record }
  | Tpc_abort of { shard : int; txn : int }
  | Tpc_ack of { shard : int; through : int }
