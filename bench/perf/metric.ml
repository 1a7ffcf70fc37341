(* The metric catalogue.  BENCHMARK.json lists the same names and units
   and carries the regression bounds; [deterministic] metrics repeat
   exactly for a given seed and code, so [compare] requires equality
   instead of a bound. *)

type better = Lower | Higher

type t = {
  name : string;
  unit_ : string;
  better : better;
  deterministic : bool;
  best : bool;
      (** summarized by the best repetition instead of the median: the
          per-repetition times, because interference from other work on
          the machine only ever makes a repetition slower *)
}

let m ?(deterministic = false) ?(best = false) ?(better = Lower) name unit_ =
  { name; unit_; better; deterministic; best }

let count ?better name unit_ = m ~deterministic:true ?better name unit_

let end_to_end =
  [
    m "setup_s" "s";
    m ~best:true "wall_s" "s";
    m ~best:true "cpu_s" "s";
    m ~best:true ~better:Higher "traces_per_s" "traces/s";
    m "peak_rss_mb" "MB";
    count "peak_live" "entries";
    m ~deterministic:true ~better:Higher "runs_ok" "fraction";
  ]

let per_layer =
  [
    m "codec.load_s" "s";
    count "codec.words_per_trace" "words/trace";
    count "codec.bytes_per_trace" "bytes/trace";
    m "sort.s" "s";
    m "checker.feed_s" "s";
    count "checker.words_per_trace" "words/trace";
    m "checker.base_s" "s";
    count ~better:Higher "checker.reads_checked" "count";
    count ~better:Higher "checker.deps_deduced" "count";
    count "checker.final_live" "entries";
    m "checker.cr.marginal_s" "s";
    m "checker.me.marginal_s" "s";
    m "checker.fuw.marginal_s" "s";
    m "checker.sc.marginal_s" "s";
    m "truncate.s" "s";
    count "truncate.cuts" "count";
    count ~better:Higher "truncate.folded_deps" "count";
    m "ckpt.encode_s" "s";
    m "ckpt.append_s" "s";
    count "ckpt.bytes_per_trace" "bytes/trace";
    count "ckpt.frames" "count";
    m "pipeline.drain_s" "s";
    count "pipeline.peak_buffered" "traces";
    m "run.execute_s" "s";
    m "online.monitor_s" "s";
    count "online.rounds" "count";
    count "online.max_lag" "traces";
    count "online.late_dropped" "traces";
    count "online.lost_traces" "traces";
    count "online.unterminated_txns" "count";
    count "online.peak_live" "entries";
    count "online.truncations" "count";
    m "gc.major_collections" "count";
    m "gc.top_heap_mb" "MB";
    m "trace.overhead_frac" "fraction";
  ]

(* First quartile, median and third quartile, interpolated exactly as
   Python's [statistics.quantiles(samples, n=4)] (the exclusive method),
   so spreads read the same here and in any external check. *)
let quartiles samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median samples =
  let _, m, _ = quartiles samples in
  m

(* The value a run reports for [t]. *)
let value t samples =
  match (t.best, t.better, samples) with
  | false, _, _ | true, _, [] -> median samples
  | true, Lower, x :: xs -> List.fold_left Float.min x xs
  | true, Higher, x :: xs -> List.fold_left Float.max x xs
