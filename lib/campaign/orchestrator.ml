(* The campaign orchestrator: checkpoint load -> domain-pool sweep ->
   results DB -> shrink the unexpected.

   Determinism contract: the results array is keyed by cell index, every
   cell is a pure function of its cell value, and the JSON is derived
   from the array alone — so the number of worker domains, the order
   cells finish in, and whether the sweep was interrupted and resumed
   are all invisible in the output.

   The checkpoint writer is shared by all workers; appends take a
   mutex.  The file is rewritten from its trusted prefix before the
   sweep starts, which both heals a corrupt tail and keeps the file in
   lockstep with what the resume actually believed. *)

type opts = {
  jobs : int;  (** worker domains; 0 = [Domain.recommended_domain_count] *)
  step_budget : int option;  (** per-cell override; None = auto from txns *)
  checkpoint : string option;
  limit : int option;
      (** run at most this many incomplete cells, then stop (the
          interruption hook the resume tests use) *)
  shrink : bool;
  max_shrink_attempts : int;
  log : string -> unit;
}

let default_opts =
  {
    jobs = 1;
    step_budget = None;
    checkpoint = None;
    limit = None;
    shrink = true;
    max_shrink_attempts = 48;
    log = ignore;
  }

type repro = { result : Runner.result; bundle : Shrink.bundle }

type outcome = {
  results : Runner.result array;
      (** completed cells in index order; all of them iff [complete] *)
  complete : bool;
  fresh : int;  (** cells actually executed this sweep *)
  resumed : int;  (** cells restored from the checkpoint *)
  json : string option;  (** the results DB; [Some] iff [complete] *)
  repros : repro list;  (** shrunk reproducers for unexpected cells *)
  checkpoint_warning : string option;
}

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let run ?(opts = default_opts) (grid : Grid.t) =
  let cells = Grid.cells grid in
  let n = Array.length cells in
  let fingerprint = Grid.fingerprint grid in
  let slots : Runner.result option array = Array.make n None in
  let checkpoint_warning = ref None in
  (match opts.checkpoint with
  | Some path ->
    let entries, warning = Checkpoint.load ~path grid in
    checkpoint_warning := warning;
    (match warning with Some msg -> opts.log msg | None -> ());
    List.iter
      (fun (i, outcome) ->
        slots.(i) <- Some { Runner.cell = cells.(i); outcome })
      entries
  | None -> ());
  let resumed = Array.fold_left
      (fun acc s -> if Option.is_some s then acc + 1 else acc) 0 slots
  in
  (* Rewrite the checkpoint from its trusted prefix: heals corrupt tails
     and stamps the header for a fresh file. *)
  let ckpt =
    match opts.checkpoint with
    | None -> None
    | Some path ->
      let w = Checkpoint.writer ~path grid in
      Array.iteri
        (fun i slot ->
          match slot with
          | Some (r : Runner.result) ->
            Checkpoint.append w ~index:i r.Runner.outcome
          | None -> ())
        slots;
      Some (w, Mutex.create ())
  in
  let todo =
    Array.to_list cells
    |> List.filter (fun (c : Grid.cell) -> Option.is_none slots.(c.Grid.index))
  in
  let todo =
    match opts.limit with Some k -> take k todo | None -> todo
  in
  let todo = Array.of_list todo in
  let jobs =
    if opts.jobs <= 0 then Domain.recommended_domain_count () else opts.jobs
  in
  if Array.length todo > 0 then
    opts.log
      (Printf.sprintf
         "campaign %s: %d cell(s) (%d checkpointed, %d to run), %d job(s)"
         fingerprint n resumed (Array.length todo) jobs);
  (* lines are parsed here, on the main domain; workers only execute *)
  let executed =
    Pool.map ~jobs (Array.map Runner.prepare todo) (fun cell ->
        let r = Runner.execute ?step_budget:opts.step_budget cell in
        (match ckpt with
        | Some (w, mu) ->
          Mutex.protect mu (fun () ->
              Checkpoint.append w ~index:r.Runner.cell.Grid.index
                r.Runner.outcome)
        | None -> ());
        r)
  in
  Option.iter (fun (w, _) -> Leopard_trace.Ckpt.close w) ckpt;
  Array.iter
    (fun (r : Runner.result) -> slots.(r.Runner.cell.Grid.index) <- Some r)
    executed;
  let complete = Array.for_all Option.is_some slots in
  let results =
    Array.of_list (List.filter_map Fun.id (Array.to_list slots))
  in
  let json = if complete then Some (Results.to_json ~grid results) else None in
  let repros =
    if not opts.shrink then []
    else begin
      let rerun cell =
        (Runner.run ?step_budget:opts.step_budget cell).Runner.outcome
      in
      List.map
        (fun (r : Runner.result) ->
          opts.log
            (Printf.sprintf
               "shrinking unexpected cell %d (class %s, got %s, expected %s)"
               r.Runner.cell.Grid.index r.Runner.cell.Grid.clazz.Grid.cname
               (Runner.kind_to_string (Runner.kind_of r.Runner.outcome))
               (Grid.expect_to_string r.Runner.cell.Grid.clazz.Grid.expect));
          {
            result = r;
            bundle =
              Shrink.shrink ~max_attempts:opts.max_shrink_attempts ~run:rerun
                r;
          })
        (Results.unexpected results)
    end
  in
  {
    results;
    complete;
    fresh = Array.length executed;
    resumed;
    json;
    repros;
    checkpoint_warning = !checkpoint_warning;
  }
