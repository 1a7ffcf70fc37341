(** Delta-debugging shrinker for unexpected campaign cells.

    When a cell contradicts its class expectation, [shrink] re-runs
    progressively smaller variants — fewer transactions, fewer clients,
    then one fewer occurrence of a repeated flag (never the last one) —
    keeping a candidate exactly when it reproduces the same outcome
    kind, and returns the smallest failing cell as a {e reproducer
    bundle}.  Because a cell's outcome is a pure
    function of the cell value, the bundle's promise is strong:
    [replay] re-runs the shrunk cell and checks the verdict and the
    degradation line match byte-for-byte (exception text for crashes,
    budget for timeouts). *)

type bundle = {
  original : Grid.cell;
  shrunk : Grid.cell;
  outcome : Runner.outcome;
      (** outcome of [shrunk]; same kind as the original's *)
  attempts : int;  (** cell executions the descent spent *)
}

val same_signature : Runner.outcome -> Runner.outcome -> bool
(** The byte-level identity a reproducer promises (verdict + degradation
    line / exception text / budget; backtraces excluded). *)

val shrink :
  ?max_attempts:int ->
  run:(Grid.cell -> Runner.outcome) ->
  Runner.result ->
  bundle
(** Greedy monotone descent, at most [max_attempts] (default 48) cell
    executions.  [run] is typically [fun c -> (Runner.run c).outcome]
    with the campaign's step budget. *)

val replay : run:(Grid.cell -> Runner.outcome) -> bundle -> bool
(** Re-run the shrunk cell; true iff the outcome signature matches. *)

val render : bundle -> string
(** The human repro report: what was expected, what happened, the shrink
    trajectory, the class parameters, and the exact CLI line (with the
    cell's derived seed) that replays the failure standalone. *)
