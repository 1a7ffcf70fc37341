(** Pure validators for command-line numeric options.

    Fault-plane flags (probabilities, crash schedules, timeouts, queue
    bounds) are validated on their raw values before any configuration
    object is built — and before any "all rates are zero, plane
    disabled" short-circuit, so a nonsense value is a usage error even
    when it would have had no effect.  Each validator returns
    [Some error] on the first problem it finds, [None] when the value is
    acceptable; the driver prints {!error_to_string} on stderr and exits
    2 (reserved for usage errors; verdicts use 0/1/3). *)

type error = { flag : string; msg : string }

val error_to_string : error -> string
(** ["invalid <flag>: <msg>"] — the one-line stderr message. *)

val prob : flag:string -> float -> error option
(** Probabilities must lie in [[0, 1]]; NaN is rejected too. *)

val positive : flag:string -> int -> error option
(** Timeouts, queue capacities, retry budgets, windows: must be [> 0]. *)

val non_negative : flag:string -> int -> error option
(** Delay bounds and skew magnitudes: must be [>= 0]. *)

val crash_schedule : flag:string -> int list -> error option
(** A [--crash-at] schedule must be strictly ascending positive
    instants: duplicates and out-of-order entries are rejected rather
    than silently sorted or deduplicated. *)

val window : flag:string -> int * int -> error option
(** A half-open [(from_ns, until_ns)] window (e.g. [--repl-partition])
    must have a non-negative start and a strictly later end. *)

val shard_count : flag:string -> int -> error option
(** A [--shards] count is either [0] (plane disabled) or at least [2] —
    a one-shard "group" would silently skip every cross-shard path. *)

type planes = {
  net : bool;  (** [--net]: the client wire plane *)
  repl : bool;  (** [--repl]: engine-level primary/follower replication *)
  shards : bool;  (** [--shards]: the 2PC shard plane *)
  repl_per_shard : int;  (** [--repl-per-shard]: replicas per shard *)
  shard_failovers : bool;  (** any [--shard-failover-at] given *)
  shard_repl_drop : bool;
      (** [--shard-repl-drop] given (per-shard replication-link drop
          override) *)
}

val composition : planes -> error option
(** The fault-plane composition matrix, unit-testable and separate from
    the CLI driver.  Exclusive pairs: [--net]/[--repl] (one wire plane),
    [--net]/[--shards] (the 2PC protocol already rides the shard wire),
    [--repl]/[--shards] (one engine-level topology — replicate each
    shard with [--repl-per-shard] instead).  Compositions:
    [--shards]+[--wal] (participant WALs), [--shards]+[--repl-per-shard]
    (a replica set per shard), and both at once; [--shard-failover-at]
    and [--shard-repl-drop] require [--repl-per-shard]. *)

type checkpointing = {
  gc_watermark : int;  (** [--gc-watermark]: truncation cadence, 0 = off *)
  check_checkpoint : bool;  (** [--check-checkpoint FILE] given *)
  resume_check : bool;  (** [--resume-check] given *)
  kill_after : int;  (** [--check-kill-after]: SIGKILL drill point, 0 = off *)
  check_mode : bool;  (** [--check FILE] given (offline trace-file mode) *)
}

val checkpointing : checkpointing -> error option
(** The bounded-memory / resume flag chain: [--check-checkpoint] needs a
    truncating checker ([--gc-watermark N]); [--resume-check] and
    [--check-kill-after] need the checkpoint file {e and} [--check]
    (only the offline pass can re-read its input from a cursor); the
    kill drill additionally needs the progress it destroys to have been
    checkpointed.  A flag that would be silently inert is a usage error
    instead.  [--gc-watermark] and [--check-checkpoint] work in every
    mode: [--check], a workload run, and a chaos run. *)

val recording : record:bool -> chaos_rates:float list -> error option
(** [--record] with any nonzero [--chaos-*] rate is rejected: the trace
    format has no line for lost traces or indeterminate transactions,
    so the file would re-check as a different history. *)

val choice : flag:string -> known:string list -> string -> error option
(** A name-valued flag ([--cell], [--fault], [--repl-ack], the plane
    fault names) must be one of [known]; the error lists them. *)

val jobs : flag:string -> int -> error option
(** A [--jobs] count is non-negative; [0] means "pick the recommended
    domain count". *)

val first_error : error option list -> error option
(** The first [Some] in flag order, so the reported error matches the
    leftmost offending option. *)
