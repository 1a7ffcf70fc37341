(** One campaign cell, executed to a recorded outcome.

    [run] never lets an exception escape: whatever the cell body raises
    is caught and recorded as [Crashed] (with its backtrace), and a cell
    that exceeds its step budget is recorded as [Timeout] — the sweep
    continues either way.  The budget counts transaction-program
    generations, a simulated-time notion, so the cut point is the same
    on every replay (no wall-clock watchdog).

    A cell runs what its reproducer line says: {!Grid.args} parsed by
    {!Leopard_harness.Flags}, the CLI's own mapping, with only the
    workload spec (step budget; a planted crash for a [crash] class) and
    a [stall] class's stop condition overridden.  Its outcome is a pure
    function of the cell value: every stream derives from the cell's
    seed, and the runner itself touches no clock and no global RNG.
    That purity is what lets the orchestrator execute cells on any
    domain in any order and still produce byte-identical results; only
    the parse is pinned to the main domain (see {!prepare}). *)

type degradation = {
  restarts : int;
  recovery_lost : int;
  ambiguous : int;
  lost_suffix : int;
  failovers : int;
  coord_ambiguous : int;
  crashed_clients : int;
  indeterminate : int;
}
(** The checker's degradation counters, flattened for aggregation. *)

type completed = {
  verdict : Leopard.Checker.verdict;
  degradation_line : string;
  bugs : int;
  commits : int;
  aborts : int;
  deg : degradation;
  p50_ns : float;
  p99_ns : float;
  sim_ns : int;
}

type outcome =
  | Completed of completed
  | Crashed of { exn_text : string; backtrace : string }
  | Timeout of { budget : int }

type result = { cell : Grid.cell; outcome : outcome }

type prepared
(** A cell with its reproducer line parsed. *)

val prepare : Grid.cell -> prepared
(** Parse the cell's line with {!Leopard_harness.Flags.parse}; call it
    on the main domain, as that function requires, and hand the result
    to pool workers.  A parse error is kept and recorded as [Crashed]
    by {!execute}. *)

val execute : ?step_budget:int -> prepared -> result
(** Execute and verify one prepared cell through one offline
    {!Leopard_harness.Session.of_outcome}, whatever its plane.  Safe on
    any domain.  [step_budget] defaults to [(64 * txns) + 4096] program
    generations: generous for any honest cell, deterministic for a
    wedged one. *)

val run : ?step_budget:int -> Grid.cell -> result
(** [execute (prepare cell)], on the main domain. *)

type kind = K_verified | K_violation | K_inconclusive | K_crashed | K_timeout

val kind_of : outcome -> kind
val kind_to_string : kind -> string

val expected : Grid.expect -> outcome -> bool
(** The expectation matrix: [Pass] admits verified/inconclusive, [Fail]
    demands conviction, [Any] admits any completed verdict, [Crash] and
    [Stall] demand the matching self-test outcome. *)

val is_expected : result -> bool
