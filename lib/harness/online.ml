module Trace = Leopard_trace.Trace

type result = {
  outcome : Run.outcome;
  report : Leopard.Checker.report;
  verify_wall_s : float;
  rounds : int;
  max_lag : int;
  final_lag : int;
  stranded : int;
}

let run ?(batch_window_ns = 500_000) ?(gc_every = 512) ?max_stall_ns
    ?gc_watermark ?checkpoint ~il (cfg : Run.config) =
  if Option.is_some cfg.Run.repl || Option.is_some cfg.Run.shard then
    invalid_arg
      "Online.run: replication and shard failovers can name commits already \
       dispatched; verify those runs offline (Session.of_outcome)";
  (match (checkpoint, gc_watermark) with
  | Some _, None ->
    (* A checkpoint frame is written after each truncation; without a
       truncation cadence the file would stay empty forever. *)
    invalid_arg "Online.run: checkpoint requires gc_watermark"
  | _ -> ());
  let queues = Array.init cfg.Run.clients (fun _ -> Queue.create ()) in
  let workload_done = ref false in
  let produced = ref 0 in
  let rounds = ref 0 in
  let chaos = cfg.Run.chaos in
  let sources =
    Array.mapi
      (fun client queue () ->
        match Queue.take_opt queue with
        | Some trace -> Leopard.Pipeline.Item trace
        | None ->
          if !workload_done then Leopard.Pipeline.Closed
          else begin
            match chaos with
            | Some ch when Chaos.is_crashed ch ~client ->
              (* the client is dead: its stream has definitively ended,
                 so release the watermark instead of pinning it *)
              Leopard.Pipeline.Closed_crashed
            | Some _ | None -> Leopard.Pipeline.Pending
          end)
      queues
  in
  (* Deterministic monitor clock for the stall bound: batch window k of
     the tick runs at simulated instant k * batch_window_ns. *)
  let now () = !rounds * batch_window_ns in
  let pipeline = Leopard.Pipeline.create ?max_stall_ns ~now ~sources () in
  let session = Session.create ~gc_every ?gc_watermark ?checkpoint il in
  let verify_wall = ref 0.0 in
  let max_lag = ref 0 in
  let timed f =
    let t0 = Leopard_util.Clock.wall () in
    let r = f () in
    verify_wall := !verify_wall +. (Leopard_util.Clock.wall () -. t0);
    r
  in
  (* Each round first marks what the run revealed so far: a crash at
     tick k is marked at tick k+1, ahead of any dispatch of post-crash
     timestamps, and losses are known before the reads they may explain
     are checked. *)
  let verify_round () =
    timed (fun () ->
        Session.mark session
          {
            Marks.empty with
            indeterminate =
              (match chaos with
              | Some ch -> Chaos.indeterminate_txns ch
              | None -> []);
            ambiguous =
              (match cfg.Run.net with
              | Some rt -> List.map (fun (_, txn, _) -> txn) (Run.net_ambiguous rt)
              | None -> []);
            lost_traces =
              (match chaos with Some ch -> Chaos.dropped ch | None -> 0);
          };
        Session.round session pipeline)
  in
  let tick () =
    incr rounds;
    max_lag := max !max_lag (!produced - Leopard.Pipeline.dispatched pipeline);
    verify_round ()
  in
  let observer trace =
    incr produced;
    Queue.push trace queues.(trace.Trace.client)
  in
  let outcome =
    Run.execute
      { cfg with Run.observer = Some observer; tick = Some (batch_window_ns, tick) }
  in
  (* the workload stopped: everything left is dispatchable *)
  workload_done := true;
  verify_round ();
  (* Anything still queued belongs to a source the pipeline closed as
     crashed before the trace straggled in — lost to the verifier.  So
     every produced trace is dispatched, dropped late or stranded, and
     [final_lag] is exactly what the verifier never saw. *)
  let stranded = Array.fold_left (fun n q -> n + Queue.length q) 0 queues in
  let final_lag = !produced - Leopard.Pipeline.dispatched pipeline in
  let report =
    timed (fun () ->
        let marks = Marks.of_outcome outcome in
        Session.mark session
          { marks with lost_traces = marks.Marks.lost_traces + stranded };
        Session.finish session)
  in
  {
    outcome;
    report;
    verify_wall_s = !verify_wall;
    rounds = !rounds;
    max_lag = !max_lag;
    final_lag;
    stranded;
  }
