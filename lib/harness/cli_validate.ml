(* Pure validation of numeric command-line options.

   Every fault plane takes probabilities, schedules and timeouts from the
   CLI; a typo there ("--chaos-drop 1.5", an unsorted --crash-at list)
   must die with a one-line usage error (exit 2), never silently clamp or
   surface later as a confusing Invalid_argument from deep inside a
   config constructor.  The checks live here, separate from cmdliner, so
   they are unit-testable and run on the raw flag values BEFORE any
   is-disabled short-circuit — a nonsense probability is rejected even
   when the plane it configures would have been off. *)

type error = { flag : string; msg : string }

let error_to_string e = Printf.sprintf "invalid %s: %s" e.flag e.msg

let prob ~flag v =
  if Float.is_nan v || v < 0.0 || v > 1.0 then
    Some { flag; msg = Printf.sprintf "probability %g is not in [0, 1]" v }
  else None

let positive ~flag v =
  if v <= 0 then Some { flag; msg = Printf.sprintf "%d is not positive" v }
  else None

let non_negative ~flag v =
  if v < 0 then Some { flag; msg = Printf.sprintf "%d is negative" v }
  else None

(* A crash schedule must be strictly ascending positive instants: a
   duplicate would crash the server twice at the same simulated instant,
   and an out-of-order list almost always means the operator dropped a
   digit.  Rejecting beats silently sorting. *)
let crash_schedule ~flag instants =
  let rec check prev = function
    | [] -> None
    | at :: _ when at <= 0 ->
      Some { flag; msg = Printf.sprintf "instant %d is not positive" at }
    | at :: _ when at = prev ->
      Some { flag; msg = Printf.sprintf "duplicate instant %d" at }
    | at :: _ when at < prev ->
      Some
        {
          flag;
          msg =
            Printf.sprintf "instants must be ascending (%d after %d)" at prev;
        }
    | at :: rest -> check at rest
  in
  check 0 instants

(* A partition window is a half-open interval of simulated time: a
   negative start or an empty/backwards window is a typo, not a no-op. *)
let window ~flag (from_ns, until_ns) =
  if from_ns < 0 then
    Some { flag; msg = Printf.sprintf "window start %d is negative" from_ns }
  else if until_ns <= from_ns then
    Some
      {
        flag;
        msg = Printf.sprintf "window [%d, %d) is empty or backwards" from_ns
            until_ns;
      }
  else None

(* A shard count is either 0 (plane off) or at least 2: a "group" of one
   shard would silently skip every cross-shard code path the flag exists
   to exercise. *)
let shard_count ~flag v =
  if v = 0 || v >= 2 then None
  else
    Some
      {
        flag;
        msg = Printf.sprintf "%d is not 0 (off) or a shard count >= 2" v;
      }

(* {2 Plane composition}

   Which fault planes may run together moved from three ad-hoc
   "mutually exclusive" checks in the CLI driver into one table here,
   where it is unit-testable.  The client wire ([--net]) still owns the
   request/response seam exclusively; the engine-level replication
   plane ([--repl]) and the shard plane ([--shards]) still exclude each
   other — but sharding now composes with durability ([--wal],
   participant WALs) and with replication *per shard*
   ([--repl-per-shard]), and seeded shard failovers require those
   replica sets to exist. *)

type planes = {
  net : bool;
  repl : bool;
  shards : bool;
  repl_per_shard : int;
  shard_failovers : bool;
  shard_repl_drop : bool;
}

let composition p =
  if p.net && p.repl then
    Some
      {
        flag = "--net/--repl";
        msg = "one wire plane per run: the client wire and the replication \
               wire cannot both claim the transport seam";
      }
  else if p.net && p.shards then
    Some
      {
        flag = "--net/--shards";
        msg = "the 2PC protocol already rides the shard wire; run the \
               client wire separately";
      }
  else if p.repl && p.shards then
    Some
      {
        flag = "--repl/--shards";
        msg = "one engine-level topology per run; replicate each shard \
               with --repl-per-shard instead";
      }
  else if p.repl_per_shard < 0 then
    Some
      {
        flag = "--repl-per-shard";
        msg =
          Printf.sprintf "%d is negative (0 disables per-shard replicas)"
            p.repl_per_shard;
      }
  else if p.repl_per_shard > 0 && not p.shards then
    Some
      {
        flag = "--repl-per-shard";
        msg = "per-shard replica sets need a shard group (--shards N)";
      }
  else if p.shard_failovers && p.repl_per_shard = 0 then
    Some
      {
        flag = "--shard-failover-at";
        msg = "shard failovers need per-shard replicas (--repl-per-shard M)";
      }
  else if p.shard_repl_drop && p.repl_per_shard = 0 then
    Some
      {
        flag = "--shard-repl-drop";
        msg =
          "the per-shard replication link needs replica sets to carry \
           (--repl-per-shard M)";
      }
  else None

(* {2 Names}

   Cell classes, engine and plane fault names and ack modes are checked
   on the raw strings before anything is built — an unknown name must be
   a one-line usage error naming the known ones, not a silent empty
   grid or an ignored fault. *)

let choice ~flag ~known v =
  if List.exists (String.equal v) known then None
  else
    Some
      {
        flag;
        msg =
          Printf.sprintf "unknown name %S (known: %s)" v
            (String.concat ", " known);
      }

(* {2 Checker checkpointing grammar}

   The bounded-memory / resume flags form a little dependency chain:
   checkpoints only make sense on a truncating checker (a frame is
   written per truncation), resume only makes sense with a checkpoint
   file to read, and the kill-after drill only makes sense when the
   progress it destroys was being checkpointed.  Truncation and
   checkpoints work in every mode; resume and the drill need --check. *)

type checkpointing = {
  gc_watermark : int;
  check_checkpoint : bool;
  resume_check : bool;
  kill_after : int;
  check_mode : bool;
}

let checkpointing c =
  if c.gc_watermark < 0 then
    Some
      {
        flag = "--gc-watermark";
        msg =
          Printf.sprintf "%d is negative (0 disables truncation)"
            c.gc_watermark;
      }
  else if c.check_checkpoint && c.gc_watermark = 0 then
    Some
      {
        flag = "--check-checkpoint";
        msg =
          "checkpoint frames are written per truncation; enable truncation \
           with --gc-watermark N";
      }
  else if c.resume_check && not c.check_checkpoint then
    Some
      {
        flag = "--resume-check";
        msg = "nothing to resume from; name the file with --check-checkpoint";
      }
  else if c.resume_check && not c.check_mode then
    Some
      {
        flag = "--resume-check";
        msg =
          "resume re-reads a recorded trace file from the checkpointed \
           cursor; it needs --check FILE";
      }
  else if c.kill_after < 0 then
    Some
      {
        flag = "--check-kill-after";
        msg = Printf.sprintf "%d is negative (0 disables the drill)" c.kill_after;
      }
  else if c.kill_after > 0 && not c.check_checkpoint then
    Some
      {
        flag = "--check-kill-after";
        msg =
          "the kill drill destroys progress on purpose; checkpoint it first \
           (--check-checkpoint FILE)";
      }
  else if c.kill_after > 0 && not c.check_mode then
    Some
      {
        flag = "--check-kill-after";
        msg = "the kill drill is part of the --check resume path";
      }
  else None

(* The trace format has no line for lost traces or indeterminate
   transactions, so a recorded chaos run would re-check as a different,
   seemingly complete history. *)
let recording ~record ~chaos_rates =
  if record && List.exists (fun p -> p > 0.0) chaos_rates then
    Some
      {
        flag = "--record";
        msg =
          "the trace format cannot carry the losses of a --chaos-* run; \
           record without chaos";
      }
  else None

let mode ~check_mode ~record ~lenient =
  if record && check_mode then
    Some { flag = "--record"; msg = "--check runs no workload to record" }
  else if lenient && not check_mode then
    Some { flag = "--lenient"; msg = "it applies only to --check FILE" }
  else None

let jobs ~flag v =
  (* 0 means "let the orchestrator pick the recommended domain count";
     anything negative is a typo. *)
  if v < 0 then
    Some { flag; msg = Printf.sprintf "%d is negative (0 = auto)" v }
  else None

let first_error checks = List.find_map Fun.id checks
