(** One campaign cell, executed to a recorded outcome.

    [run] never lets an exception escape: whatever the cell body raises
    is caught and recorded as [Crashed] (with its backtrace), and a cell
    that exceeds its step budget is recorded as [Timeout] — the sweep
    continues either way.  The budget counts transaction-program
    generations, a simulated-time notion, so the cut point is the same
    on every replay (no wall-clock watchdog).

    A cell's outcome is a pure function of the cell value: the workload
    stream draws from the cell's derived seed, every fault-plane stream
    from {!Grid.sub_seed}, and the runner itself touches no clock and no
    global RNG.  That purity is what lets the orchestrator run cells on
    any domain in any order and still produce byte-identical results. *)

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

val default_budget : txns:int -> int
(** [(64 * txns) + 4096] program generations — generous for any honest
    cell, deterministic for a wedged one. *)

val run : ?step_budget:int -> Grid.cell -> result
(** Execute and verify one cell through one offline
    {!Leopard_harness.Session.of_outcome}, whatever its plane. *)

type kind = K_verified | K_violation | K_inconclusive | K_crashed | K_timeout

val kind_of : outcome -> kind
val kind_to_string : kind -> string

val expected : Grid.expect -> outcome -> bool
(** The expectation matrix: [Pass] admits verified/inconclusive, [Fail]
    demands conviction, [Any] admits any completed verdict, [Crash] and
    [Stall] demand the matching self-test outcome. *)

val is_expected : result -> bool
