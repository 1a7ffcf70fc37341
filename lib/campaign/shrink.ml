(* Delta-debugging for unexpected cells.

   When a cell's outcome contradicts its class expectation (an honest
   cell convicted, a planted fault missed, a crash, a stall), the raw
   cell is usually far bigger than the bug: hundreds of transactions,
   several schedules of injected faults.  The shrinker greedily descends
   on every axis that is monotone-shrinkable — transaction count,
   client count, and every repeated flag of the class's line (crash and
   failover instants, planted faults) — accepting a candidate
   exactly when re-running it reproduces the same outcome *kind* as the
   original.  Kind-stability (not byte-equality) is the ddmin invariant:
   a smaller cell with the same verdict class is the same failure,
   even though its counters differ.

   The final bundle is the reproducer contract: re-running the shrunk
   cell yields the same verdict and the same degradation line
   byte-for-byte, every time, because a cell's outcome is a pure
   function of the cell value.  [replay] checks exactly that. *)

type bundle = {
  original : Grid.cell;
  shrunk : Grid.cell;
  outcome : Runner.outcome;  (** outcome of [shrunk]; same kind as original *)
  attempts : int;  (** cell executions the descent spent *)
}

(* The byte-level identity a reproducer promises: verdict and
   degradation line for completed cells, the exception text for crashes,
   the budget for timeouts.  (Backtraces are excluded: they are stable
   in practice but depend on inlining decisions, which is not a promise
   this module should make.) *)
let verdict_equal a b =
  match (a, b) with
  | Leopard.Checker.Verified, Leopard.Checker.Verified -> true
  | Leopard.Checker.Violation, Leopard.Checker.Violation -> true
  | Leopard.Checker.Inconclusive x, Leopard.Checker.Inconclusive y ->
    String.equal x y
  | Leopard.Checker.Verified, (Leopard.Checker.Violation | Leopard.Checker.Inconclusive _)
  | Leopard.Checker.Violation, (Leopard.Checker.Verified | Leopard.Checker.Inconclusive _)
  | Leopard.Checker.Inconclusive _, (Leopard.Checker.Verified | Leopard.Checker.Violation)
    -> false

let same_signature a b =
  match (a, b) with
  | Runner.Completed x, Runner.Completed y ->
    verdict_equal x.Runner.verdict y.Runner.verdict
    && String.equal x.Runner.degradation_line y.Runner.degradation_line
  | ( Runner.Crashed { exn_text = a; _ },
      Runner.Crashed { exn_text = b; _ } ) ->
    String.equal a b
  | Runner.Timeout { budget = a }, Runner.Timeout { budget = b } -> a = b
  | Runner.Completed _, (Runner.Crashed _ | Runner.Timeout _)
  | Runner.Crashed _, (Runner.Completed _ | Runner.Timeout _)
  | Runner.Timeout _, (Runner.Completed _ | Runner.Crashed _) -> false

let kind_equal a b =
  String.equal (Runner.kind_to_string a) (Runner.kind_to_string b)

(* A class's flags as groups: each word that starts with '-' opens one,
   the words up to the next such word are its value (negative numbers
   are written [--flag=-1]). *)
let flag_groups flags =
  List.fold_left
    (fun groups word ->
      match groups with
      | g :: rest when not (String.starts_with ~prefix:"-" word) ->
        (word :: g) :: rest
      | _ -> [ word ] :: groups)
    [] flags
  |> List.rev_map List.rev

let flag_name group =
  let flag = List.hd group in
  match String.index_opt flag '=' with
  | Some i -> String.sub flag 0 i
  | None -> flag

let shrink ?(max_attempts = 48) ~run (r : Runner.result) =
  let target = Runner.kind_of r.Runner.outcome in
  let attempts = ref 0 in
  let best = ref r.Runner.cell in
  let best_outcome = ref r.Runner.outcome in
  (* Re-run a candidate; accept (and record) it when the outcome kind
     survives the shrink. *)
  let try_cell (cell : Grid.cell) =
    if !attempts >= max_attempts then false
    else begin
      incr attempts;
      let o = run cell in
      if kind_equal (Runner.kind_of o) target then begin
        best := cell;
        best_outcome := o;
        true
      end
      else false
    end
  in
  let with_clazz clazz = { !best with Grid.clazz } in
  (* Greedy monotone descent on a size axis: halve while the failure
     survives, fall back to smaller bites, stop at 1. *)
  let rec descend ~get ~set =
    let v = get (!best).Grid.clazz in
    if v > 1 && !attempts < max_attempts then begin
      let candidates =
        List.sort_uniq Int.compare
          (List.filter (fun x -> x >= 1 && x < v) [ v / 2; (3 * v) / 4; v - 1 ])
      in
      if
        List.exists
          (fun x -> try_cell (with_clazz (set (!best).Grid.clazz x)))
          candidates
      then descend ~get ~set
    end
  in
  descend
    ~get:(fun c -> c.Grid.txns)
    ~set:(fun c txns -> { c with Grid.txns });
  descend
    ~get:(fun c -> c.Grid.clients)
    ~set:(fun c clients -> { c with Grid.clients });
  (* Drop one occurrence of a repeated flag at a time (a crash instant, a
     failover, a planted fault); the last occurrence of each flag stays,
     so the shrunk line keeps every plane and every planted fault. *)
  let rec drop_repeated kept = function
    | [] -> ()
    | g :: rest ->
      let others = List.rev_append kept rest in
      if
        List.exists (fun h -> String.equal (flag_name h) (flag_name g)) others
        && try_cell
             (with_clazz
                { (!best).Grid.clazz with Grid.flags = List.concat others })
      then drop_repeated kept rest
      else drop_repeated (g :: kept) rest
  in
  drop_repeated [] (flag_groups (!best).Grid.clazz.Grid.flags);
  {
    original = r.Runner.cell;
    shrunk = !best;
    outcome = !best_outcome;
    attempts = !attempts;
  }

let replay ~run bundle = same_signature bundle.outcome (run bundle.shrunk)

let render bundle =
  let b = Buffer.create 512 in
  let cell = bundle.shrunk in
  let c = cell.Grid.clazz in
  let oc = bundle.original.Grid.clazz in
  Buffer.add_string b
    (Printf.sprintf
       "unexpected cell %d (class %s, derived seed %d): got %s, expected %s\n"
       cell.Grid.index c.Grid.cname cell.Grid.seed
       (Runner.kind_to_string (Runner.kind_of bundle.outcome))
       (Grid.expect_to_string c.Grid.expect));
  Buffer.add_string b
    (Printf.sprintf
       "shrunk    : txns %d -> %d, clients %d -> %d (%d replays)\n"
       oc.Grid.txns c.Grid.txns oc.Grid.clients c.Grid.clients
       bundle.attempts);
  (match bundle.outcome with
  | Runner.Completed comp ->
    Buffer.add_string b
      (Printf.sprintf "verdict   : %s, %d bug(s), %d/%d commit/abort\n"
         (Runner.kind_to_string (Runner.kind_of bundle.outcome))
         comp.Runner.bugs comp.Runner.commits comp.Runner.aborts);
    if comp.Runner.degradation_line <> "" then
      Buffer.add_string b comp.Runner.degradation_line
  | Runner.Crashed { exn_text; backtrace } ->
    Buffer.add_string b (Printf.sprintf "crash     : %s\n" exn_text);
    if backtrace <> "" then Buffer.add_string b backtrace
  | Runner.Timeout { budget } ->
    Buffer.add_string b
      (Printf.sprintf "timeout   : step budget %d exhausted\n" budget));
  Buffer.add_string b
    (Printf.sprintf "class     : %s\n" (Grid.describe c));
  Buffer.add_string b
    (Printf.sprintf "reproduce : %s\n" (Grid.cli_line cell));
  Buffer.contents b
