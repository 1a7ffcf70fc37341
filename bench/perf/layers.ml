(* The traced run: times each layer from outside, by calling its public
   functions on the workload's input with the monotonic clock and
   [Gc.counters] deltas.  Nothing inside lib/ or bin/ is instrumented.

   The check pass repeats [leopard --check]'s call sequence —
   [Codec.load_all], [List.sort Trace.compare_by_bef], [Checker.feed]
   with a truncation every [gc_watermark] traces at the trace's [ts_bef],
   [finalize] — and its report must match the CLI's.

   Every layer is timed on every workload, so no time reads a constant
   0: checkpoint frames are encoded at every cut even where the command
   writes none, and the pipeline drains the history into a no-op sink
   although [--check] bypasses it.  [trace.path_s] adds up only the
   layers the workload's own command runs; the parent compares it with
   the untraced wall time to report the tracing overhead. *)

module C = Leopard.Checker
module Ckpt = Leopard_trace.Ckpt
module W = Workload

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let timed f =
  let t0 = Proc.now_s () in
  let r = f () in
  (r, Proc.now_s () -. t0)

type pass = {
  report : C.report;
  total_s : float;  (** feed, truncate, encode, append and finalize *)
  truncate_s : float;
  encode_s : float;
  append_s : float;
  frames : int;
  feed_words : float;  (** words allocated outside truncate/encode/append *)
}

let pass ?ckpt il traces =
  let checker = C.create il in
  let writer =
    Option.map
      (fun path ->
        Ckpt.writer ~path
          ~fingerprint:
            (Ckpt.fingerprint
               [ "check"; il.Leopard.Il_profile.name;
                 string_of_int W.gc_watermark ]))
      ckpt
  in
  let truncate_s = ref 0. and encode_s = ref 0. and append_s = ref 0. in
  let frames = ref 0 and side_words = ref 0. and consumed = ref 0 in
  let words0 = allocated () in
  let t0 = Proc.now_s () in
  List.iter
    (fun (trace : Leopard_trace.Trace.t) ->
      C.feed checker trace;
      incr consumed;
      if !consumed mod W.gc_watermark = 0 then begin
        let w = allocated () in
        let (), dt = timed (fun () -> C.truncate checker ~watermark:trace.ts_bef) in
        truncate_s := !truncate_s +. dt;
        Option.iter
          (fun wr ->
            let lines, dt =
              timed (fun () ->
                  Printf.sprintf "cursor\t%d" !consumed :: C.encode checker)
            in
            encode_s := !encode_s +. dt;
            let (), dt = timed (fun () -> Ckpt.append wr lines) in
            append_s := !append_s +. dt;
            incr frames)
          writer;
        side_words := !side_words +. (allocated () -. w)
      end)
    traces;
  C.finalize checker;
  let feed_words = allocated () -. words0 -. !side_words in
  let (), dt = timed (fun () -> Option.iter Ckpt.close writer) in
  {
    report = C.report checker;
    total_s = Proc.now_s () -. t0;
    truncate_s = !truncate_s;
    encode_s = !encode_s;
    append_s = !append_s +. dt;
    frames = !frames;
    feed_words;
  }

let without_checkpoint p = p.total_s -. p.encode_s -. p.append_s

(* Leave-one-out profiles: the full profile with one mechanism off. *)
let leave_one_out (il : Leopard.Il_profile.t) =
  [
    ("cr", { il with check_cr = None });
    ("me", { il with check_me = false });
    ("fuw", { il with check_fuw = false });
    ("sc", { il with check_sc = None });
  ]

let per_client traces =
  let n =
    1 + List.fold_left (fun m (t : Leopard_trace.Trace.t) -> max m t.client) 0 traces
  in
  let streams = Array.make n [] in
  List.iter
    (fun (t : Leopard_trace.Trace.t) ->
      streams.(t.client) <- t :: streams.(t.client))
    (List.rev traces);
  streams

let file_bytes path = float_of_int (Unix.stat path).Unix.st_size

let run (w : W.t) ~seed ~input ~ckpt =
  let metric name v =
    Printf.printf "metric\t%s\t%s\n" name (Json.num_to_string v)
  in
  let count name n = metric name (float_of_int n) in
  let gc0 = Gc.quick_stat () in
  let words0 = allocated () in
  let contents, load_s = timed (fun () -> Leopard_trace.Codec.load_all ~path:input) in
  let load_words = allocated () -. words0 in
  let contents =
    match contents with
    | Ok c -> c
    | Error e -> failwith ("cannot load " ^ input ^ ": " ^ e)
  in
  (* Generated histories are fault-free, so [--check] feeds no marks
     before the traces and the pass below needs none either. *)
  (match contents with
  | { c_epochs = []; c_ambiguous = []; c_leaders = []; c_shards = [];
      c_prepares = []; _ } -> ()
  | _ -> failwith "input carries markers");
  let traces = contents.c_traces in
  let n = float_of_int (List.length traces) in
  let sorted, sort_s =
    timed (fun () -> List.sort Leopard_trace.Trace.compare_by_bef traces)
  in
  let full = pass ~ckpt W.il sorted in
  let core_s = without_checkpoint full in
  let base =
    pass
      { W.il with check_cr = None; check_me = false; check_fuw = false;
        check_sc = None }
      sorted
  in
  let marginals =
    List.map
      (fun (m, il) -> (m, core_s -. (pass il sorted).total_s))
      (leave_one_out W.il)
  in
  let pipe = Leopard.Pipeline.of_lists (per_client sorted) in
  let drained, drain_s = timed (fun () -> Leopard.Pipeline.drain pipe ~f:ignore) in
  if float_of_int drained <> n then failwith "pipeline lost traces";
  let _, execute_s =
    timed (fun () -> Leopard_harness.Run.execute (W.monitored w ~seed))
  in
  let online, online_s = timed (fun () -> W.online w ~seed) in
  let gc1 = Gc.quick_stat () in
  let r = full.report and o = online.report in
  metric "codec.load_s" load_s;
  metric "codec.words_per_trace" (load_words /. n);
  metric "codec.bytes_per_trace" (file_bytes input /. n);
  metric "sort.s" sort_s;
  metric "checker.feed_s" (core_s -. full.truncate_s);
  metric "checker.words_per_trace" (full.feed_words /. n);
  metric "checker.base_s" base.total_s;
  count "checker.reads_checked" r.reads_checked;
  count "checker.deps_deduced" r.deps_deduced;
  count "checker.final_live" r.final_live;
  List.iter (fun (m, s) -> metric ("checker." ^ m ^ ".marginal_s") s) marginals;
  metric "truncate.s" full.truncate_s;
  count "truncate.cuts" r.truncations;
  count "truncate.folded_deps" r.truncated_deps;
  metric "ckpt.encode_s" full.encode_s;
  metric "ckpt.append_s" full.append_s;
  metric "ckpt.bytes_per_trace" (file_bytes ckpt /. n);
  count "ckpt.frames" full.frames;
  metric "pipeline.drain_s" drain_s;
  count "pipeline.peak_buffered" (Leopard.Pipeline.peak_memory pipe);
  metric "run.execute_s" execute_s;
  metric "online.monitor_s" (online_s -. execute_s);
  count "online.rounds" online.rounds;
  count "online.max_lag" online.max_lag;
  count "online.late_dropped" o.degradation.late_traces_dropped;
  count "online.lost_traces" o.degradation.lost_traces;
  count "online.unterminated_txns" o.degradation.unterminated_txns;
  count "online.peak_live" o.peak_live;
  count "online.truncations" o.truncations;
  count "gc.major_collections" (gc1.major_collections - gc0.major_collections);
  metric "gc.top_heap_mb"
    (float_of_int gc1.top_heap_words *. float_of_int (Sys.word_size / 8)
    /. 1048576.);
  metric "trace.path_s"
    (match w.kind with
    | W.Check -> load_s +. sort_s +. core_s
    | W.Check_ckpt -> load_s +. sort_s +. full.total_s
    | W.Online -> online_s);
  Report.print ~tag:"offline" (Report.of_checker r);
  Report.print ~tag:"path"
    (match w.kind with
    | W.Check | W.Check_ckpt -> Report.of_checker r
    | W.Online -> Report.of_online online)
