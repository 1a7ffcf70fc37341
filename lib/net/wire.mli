(** The wire protocol between client sessions and the server.

    Every message is tagged with the issuing session and a per-session,
    strictly monotone sequence number.  The sequence number is what makes
    retries safe: a response is matched to the {e call} it answers, so a
    duplicated or straggling response for an already-settled call is
    recognised and dropped instead of being misattributed to a later
    request.

    [Commit] additionally carries an idempotency token (the transaction
    id): the server applies a commit with a given token {e exactly once},
    so a retried or link-duplicated COMMIT that reaches the server after
    the original took effect is acknowledged again rather than
    re-executed or refused — see {!Minidb.Engine.exec}. *)

module Cell = Leopard_trace.Cell
module Trace = Leopard_trace.Trace

type req_body =
  | Begin
  | Read of { cells : Cell.t list; locking : bool; predicate : bool }
  | Write of (Cell.t * Trace.value) list
  | Commit of { token : int }
      (** [token] identifies the commit intent; applying the same token
          twice is a no-op acknowledged positively *)
  | Abort

type request = {
  session : int;  (** issuing client session *)
  seq : int;  (** per-session sequence number, monotone *)
  txn : int;  (** transaction the operation belongs to *)
  op : int;  (** harness-level operation id (ground-truth bookkeeping) *)
  body : req_body;
}

type resp_body =
  | Began of int  (** transaction id allocated by the server *)
  | Ok_read of Trace.item list
  | Ok_write
  | Ok_commit
  | Refused of Minidb.Engine.abort_reason
      (** definite engine-side refusal: the transaction is dead *)
  | Rejected
      (** load shed: the session queue was full and the request was
          {e never executed} — a definite negative, unlike a timeout *)

type response = { session : int; seq : int; body : resp_body }

(** {2 Replication messages}

    Log shipping between the primary and its followers travels as
    [repl_msg] values through the same {!Faulty_link} machinery as
    client traffic (each follower is one link session), so partitions,
    delays, duplication and reordering apply to replication for free.
    The vocabulary is deliberately separate from the client
    request/response protocol: a replica session never speaks SQL. *)

type repl_msg =
  | Repl_append of { follower : int; index : int; record : Minidb.Wal.record }
      (** ship log entry [index] (1-based, append order) to [follower] *)
  | Repl_ack of { follower : int; through : int }
      (** cumulative: [follower] has applied every entry [<= through],
          so lost or reordered acks are subsumed by any later one *)

(** {2 Two-phase-commit messages}

    Cross-shard commit protocol traffic between the 2PC coordinator and
    its shard participants travels as [tpc_msg] values through the same
    {!Faulty_link} machinery (each shard is one link session), so every
    seeded wire fault — drop, duplication, delay, reordering, reset,
    partition — applies to PREPARE/COMMIT/ABORT/ACK exactly as it does
    to client and replication traffic.  Like {!repl_msg}, the
    vocabulary is deliberately separate: a shard session never speaks
    the client protocol. *)

type tpc_msg =
  | Tpc_prepare of {
      shard : int;
      txn : int;
      start_ts : int;  (** the transaction's begin stamp *)
      writes : (Cell.t * Trace.value) list;
          (** the shard's slice of the pending write set *)
    }
  | Tpc_vote of { shard : int; txn : int; commit : bool }
      (** [commit = false] is a veto (prepared-lock conflict): the
          coordinator must decide ABORT *)
  | Tpc_decision of { shard : int; seq : int; record : Minidb.Wal.record }
      (** commit decision: apply [record]'s slice as per-shard log entry
          [seq] (1-based, strictly sequential like replication) *)
  | Tpc_abort of { shard : int; txn : int }
      (** abort decision (and presumed-abort after a coordinator crash):
          release [txn]'s prepared locks without applying *)
  | Tpc_ack of { shard : int; through : int }
      (** cumulative: the shard has applied every decision [<= through] *)
