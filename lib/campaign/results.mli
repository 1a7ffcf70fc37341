(** The campaign results DB — one deterministic JSON document — and the
    per-class summary it and the CLI both read.

    Derived exclusively from the grid and the index-ordered result
    array: no wall clock, no completion order, no domain count.  Serial
    and parallel sweeps of the same grid therefore emit byte-identical
    documents, and a checkpoint-resumed sweep emits the same bytes as an
    uninterrupted one.

    The document carries a per-class aggregate (verdict mix, sum/max
    distribution of every degradation counter, p50/p99 simulated-latency
    profile) and the full per-cell record list, each cell citing its
    derived seed and the standalone CLI line that replays it. *)

type verdicts = {
  verified : int;
  violation : int;
  inconclusive : int;
  crashed : int;
  timeout : int;
}

type summary = {
  clazz : Grid.clazz;
  cells : int;
  unexpected : int;  (** cells contradicting the class's expectation *)
  verdicts : verdicts;
  bugs : int;  (** summed over the completed cells, like the next two *)
  commits : int;
  aborts : int;
  degradation : (string * int * int) list;
      (** every degradation counter: its JSON name, sum and max over the
          completed cells *)
  latency : (float * float) option;
      (** the median of the cells' p50s and the worst p99, simulated ns;
          [None] when no cell completed *)
}

val summarize : grid:Grid.t -> Runner.result array -> summary list
(** One summary per class, in grid order. *)

val to_json : grid:Grid.t -> Runner.result array -> string

val unexpected : Runner.result array -> Runner.result list
(** Cells whose outcome contradicts their class expectation, in index
    order — the shrinker's work list. *)
