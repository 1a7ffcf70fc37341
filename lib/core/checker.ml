module Cell = Leopard_trace.Cell
module Trace = Leopard_trace.Trace
module Interval = Leopard_util.Interval

type status = Active | Committed | Aborted | Indeterminate

type vtxn = {
  vid : int;
  mutable first_iv : Interval.t option;
  mutable terminal_iv : Interval.t option;
  mutable vstatus : status;
  writes : (Trace.value * Interval.t) Cell.Tbl.t;  (* last write per cell *)
  mutable write_cells : Cell.t list;  (* first-write order, reversed *)
  mutable pending_deps : Dep.t list;
      (* deps waiting for this endpoint's terminal *)
}

type pending_read = {
  reader : int;
  read_iv : Interval.t;
  snapshot_iv : Interval.t;
  items : (Cell.t * Trace.value) list;
}

(* One read item whose observed value matches an unresolved indeterminate
   write, parked until the reader terminates: a *committed* reader proves
   the writer's commit took effect (outcome resolution), any other fate
   leaves the item inconclusive. *)
type await_entry = {
  a_cell : Cell.t;
  a_value : Trace.value;
  a_writer : int;
  a_read_iv : Interval.t;
  a_snapshot_iv : Interval.t;
}

(* Readers of one cell's untraced initial state.  [order] (newest first)
   fixes the rw emission order and the checkpoint's [ir] record;
   [members] answers membership without walking it. *)
type initial_readers = {
  mutable order : int list;
  members : (int, unit) Hashtbl.t;
}

let initial_readers_of order =
  let members = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace members id ()) order;
  { order; members }

type cause = Crashed | Wire | Coord

(* Why one transaction's commit outcome is unknown.  [crashed] sits
   beside the claim rather than competing with it, so a crash and a
   give-up or a loss on one transaction are both counted.  [claim] is
   the give-up ([Wire] or [Coord], never [Crashed]) that got there
   first; [resolved] records that a committed read proved it; [lost]
   records a failover's loss, which clears the claim for good. *)
type outcome = {
  crashed : bool;
  claim : cause option;
  resolved : bool;
  lost : bool;
}

let unmarked = { crashed = false; claim = None; resolved = false; lost = false }
let open_claim o = if o.resolved then None else o.claim
let uncertain o = o.crashed || o.lost || open_claim o <> None

type degradation = {
  crashed_clients : int;
  indeterminate_txns : int;
  dup_traces_dropped : int;
  late_traces_dropped : int;
  lost_traces : int;
  inconclusive_reads : int;
  unterminated_txns : int;
  restarts : int;
  recovery_lost_records : int;
  ambiguous_commits : int;
  failovers : int;
  lost_suffix_commits : int;
  coord_ambiguous_commits : int;
}

(* Every counter that degrades the verdict, with the reason's singular
   and plural, in the reason's order.  [restarts] and [failovers] are
   deliberately absent: a clean crash–recovery epoch loses nothing, and
   a failover whose survivor prefix covers the whole log loses nothing
   either, so multi-epoch traces with zero damage still earn a full
   [Verified].  Only actual losses degrade the verdict. *)
let degrading d =
  [
    (d.crashed_clients, "client crashed", "clients crashed");
    ( d.indeterminate_txns,
      "transaction with indeterminate outcome",
      "transactions with indeterminate outcome" );
    ( d.ambiguous_commits,
      "commit with ambiguous outcome",
      "commits with ambiguous outcome" );
    (d.lost_traces, "trace lost in collection", "traces lost in collection");
    (d.late_traces_dropped, "late trace dropped", "late traces dropped");
    (d.dup_traces_dropped, "duplicate dropped", "duplicates dropped");
    (d.inconclusive_reads, "read inconclusive", "reads inconclusive");
    ( d.unterminated_txns,
      "transaction unterminated",
      "transactions unterminated" );
    ( d.recovery_lost_records,
      "wal record lost in recovery",
      "wal records lost in recovery" );
    ( d.lost_suffix_commits,
      "commit lost at failover",
      "commits lost at failover" );
    ( d.coord_ambiguous_commits,
      "commit orphaned by a coordinator crash",
      "commits orphaned by a coordinator crash" );
  ]

let degradation_free d = List.for_all (fun (n, _, _) -> n = 0) (degrading d)

let degradation_reason d =
  List.filter_map
    (fun (n, singular, plural) ->
      if n = 0 then None
      else Some (Printf.sprintf "%d %s" n (if n = 1 then singular else plural)))
    (degrading d)
  |> String.concat ", "

type report = {
  traces : int;
  committed : int;
  aborted : int;
  bugs_total : int;
  bugs : Bug.t list;
  bugs_by_mechanism : (Bug.mechanism * int) list;
  deps_deduced : int;
  deduced_by_source : (Dep.source * int) list;
  reads_checked : int;
  peak_live : int;
  final_live : int;
  pruned_versions : int;
  pruned_locks : int;
  pruned_fuw : int;
  pruned_graph : int;
  truncations : int;
  truncated_deps : int;
  resolved_ambiguous : int;
  degradation : degradation;
}

type verdict = Verified | Violation | Inconclusive of string

type t = {
  profile : Il_profile.t;
  gc_every : int;
  narrow_candidates : bool;
  relaxed_reads : bool;
  versions : Version_order.t;
  me : Me_verifier.t;
  fuw : Fuw_verifier.t;
  sc : Sc_verifier.t;
  log : Dep.Log.t;
  txns : (int, vtxn) Hashtbl.t;
  deferred : pending_read Leopard_util.Min_heap.t;
  initial_readers : initial_readers Cell.Tbl.t;
      (* readers that observed a cell's untraced initial state before any
         version was known; resolved into rw edges when the cell's first
         version installs *)
  aborted_values : (Trace.value * int * int) list ref Cell.Tbl.t;
      (* (value, txn, terminal_aft) of aborted writes, kept only to
         classify violations as G1a aborted reads *)
  outcomes : (int, outcome) Hashtbl.t;
      (* every marked transaction; never pruned, because a marked
         transaction can still be promoted (outcome resolution) or
         re-queried *)
  indeterminate_values : (Trace.value * int) list ref Cell.Tbl.t;
      (* (value, txn) of indeterminate writes; never pruned — a crashed
         commit may have installed them at any later point *)
  awaiting : (int, await_entry list ref) Hashtbl.t;
      (* reader txn -> read items parked on an unresolved writer *)
  dedup_seen : (int * int * int, Trace.t) Hashtbl.t;
      (* (client, txn, ts_bef) of traces at the current frontier, for
         dropping chaos-duplicated deliveries *)
  mutable dedup_ts : int;
  client_txn : (int, int) Hashtbl.t;
      (* client -> the transaction of its latest fed trace *)
  superseded : (int, unit) Hashtbl.t;
      (* transactions whose client moved on while they were active: they
         have no future statements, so [horizon] skips them.  The mark
         outlives the transaction's activity only when it resumed after a
         prune passed its start (see [resume]). *)
  mutable pruned_to : int;  (* the highest horizon any prune has used *)
  mutable frontier : int;
  mutable traces : int;
  mutable committed : int;
  mutable aborted : int;
  mutable bugs_total : int;
  mutable bugs : Bug.t list;  (* reversed; capped *)
  mutable reads_checked : int;
  mutable peak_live : int;
  mutable pruned_versions : int;
  mutable pruned_locks : int;
  mutable pruned_fuw : int;
  mutable pruned_graph : int;
  mutable dup_dropped : int;
  mutable inconclusive_reads : int;
  mutable ext_crashed_clients : int;
  mutable ext_late_dropped : int;
  mutable ext_lost : int;
  mutable ext_restarts : int;
  mutable ext_recovery_lost : int;
  mutable ext_failovers : int;
  mutable ext_lost_commits : int;
  mutable finalized : bool;
  mutable dep_hook : (Dep.t -> unit) option;
  mech_counts : (Bug.mechanism, int) Hashtbl.t;
  mutable truncations : int;
  mutable truncated_deps : int;
  forgotten_by_source : int array;
      (* Dep.source_rank-indexed tallies of log entries folded away by
         [truncate]; merged back into the report so folding never
         changes deps_deduced *)
}

let max_stored_bugs = 10_000

let create ?(gc_every = 512) ?(narrow_candidates = true)
    ?(relaxed_reads = false) profile =
  {
    profile;
    gc_every;
    narrow_candidates;
    relaxed_reads;
    versions = Version_order.create ();
    me = Me_verifier.create ();
    fuw = Fuw_verifier.create ();
    sc = Sc_verifier.create profile.Il_profile.check_sc;
    log = Dep.Log.create ();
    txns = Hashtbl.create 4096;
    initial_readers = Cell.Tbl.create 64;
    aborted_values = Cell.Tbl.create 64;
    outcomes = Hashtbl.create 8;
    indeterminate_values = Cell.Tbl.create 8;
    awaiting = Hashtbl.create 8;
    dedup_seen = Hashtbl.create 64;
    dedup_ts = min_int;
    client_txn = Hashtbl.create 16;
    superseded = Hashtbl.create 16;
    pruned_to = min_int;
    deferred =
      Leopard_util.Min_heap.create ~compare:(fun a b ->
          Int.compare (Interval.aft a.read_iv) (Interval.aft b.read_iv));
    frontier = min_int;
    traces = 0;
    committed = 0;
    aborted = 0;
    bugs_total = 0;
    bugs = [];
    reads_checked = 0;
    peak_live = 0;
    pruned_versions = 0;
    pruned_locks = 0;
    pruned_fuw = 0;
    pruned_graph = 0;
    dup_dropped = 0;
    inconclusive_reads = 0;
    ext_crashed_clients = 0;
    ext_late_dropped = 0;
    ext_lost = 0;
    ext_restarts = 0;
    ext_recovery_lost = 0;
    ext_failovers = 0;
    ext_lost_commits = 0;
    finalized = false;
    dep_hook = None;
    mech_counts = Hashtbl.create 4;
    truncations = 0;
    truncated_deps = 0;
    forgotten_by_source = Array.make (List.length Dep.all_sources) 0;
  }

let set_dep_hook t f = t.dep_hook <- Some f

let outcome t txn =
  Option.value (Hashtbl.find_opt t.outcomes txn) ~default:unmarked

let outcome_ids t p =
  (* lint: allow hashtbl-order — callers count or sort the ids *)
  Hashtbl.fold (fun id o acc -> if p o then id :: acc else acc) t.outcomes []

let vtxn t id =
  match Hashtbl.find_opt t.txns id with
  | Some v -> v
  | None ->
    let v =
      {
        vid = id;
        first_iv = None;
        terminal_iv = None;
        vstatus = (if uncertain (outcome t id) then Indeterminate else Active);
        writes = Cell.Tbl.create 8;
        write_cells = [];
        pending_deps = [];
      }
    in
    Hashtbl.replace t.txns id v;
    v

let status_of t id =
  match Hashtbl.find_opt t.txns id with
  | Some v -> v.vstatus
  | None -> Committed (* pruned transactions were terminal; treat as done *)

let report_bug t (bug : Bug.t) =
  t.bugs_total <- t.bugs_total + 1;
  Hashtbl.replace t.mech_counts bug.mechanism
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.mech_counts bug.mechanism));
  if t.bugs_total <= max_stored_bugs then t.bugs <- bug :: t.bugs

let live_size t =
  Version_order.live_versions t.versions
  + Me_verifier.live_entries t.me
  + Fuw_verifier.live_entries t.fuw
  + Sc_verifier.nodes t.sc + Sc_verifier.edges t.sc
  + Leopard_util.Min_heap.length t.deferred
  + Hashtbl.length t.txns
  + Dep.Log.count t.log

(* ------------------------------------------------------------------ *)
(* Dependency plumbing: log every deduction; forward to the certifier
   once both endpoints are committed. *)

let rec emit_dep t (d : Dep.t) =
  if d.from_txn <> d.to_txn then begin
    let fresh = Dep.Log.add t.log d in
    if fresh then begin
      (match t.dep_hook with Some f -> f d | None -> ());
      forward_dep t d
    end
  end

and forward_dep t (d : Dep.t) =
  match (status_of t d.from_txn, status_of t d.to_txn) with
  | Committed, Committed ->
    List.iter (report_bug t) (Sc_verifier.add_dep t.sc d)
  | Aborted, _ | _, Aborted -> ()
  | Indeterminate, _ | _, Indeterminate -> ()
  | Active, _ ->
    let v = vtxn t d.from_txn in
    v.pending_deps <- d :: v.pending_deps
  | _, Active ->
    let v = vtxn t d.to_txn in
    v.pending_deps <- d :: v.pending_deps

and flush_pending t v =
  let deps = v.pending_deps in
  v.pending_deps <- [];
  List.iter (forward_dep t) deps

(* ------------------------------------------------------------------ *)
(* Indeterminate transactions: a crashed client's in-flight transaction
   may or may not have committed server-side, and the trace stream cannot
   tell.  Treating it as either outcome risks false alarms, so it carries
   no obligations: its ME locks are discarded unchecked (release instant
   unknown), it joins no FUW/SC state (never registered without a commit
   trace), pending deps touching it are dropped, and reads observing one
   of its written values are inconclusive rather than violations. *)

let register_indeterminate_value t cell value vid =
  let entries =
    match Cell.Tbl.find_opt t.indeterminate_values cell with
    | Some r -> r
    | None ->
      let r = ref [] in
      Cell.Tbl.add t.indeterminate_values cell r;
      r
  in
  if not (List.mem (value, vid) !entries) then
    entries := (value, vid) :: !entries

let make_indeterminate t (v : vtxn) =
  v.vstatus <- Indeterminate;
  v.pending_deps <- [];
  Me_verifier.discard t.me ~txn:v.vid;
  (* lint: allow hashtbl-order — one binding per cell and the cells are
     registered independently; visit order cannot be observed *)
  Cell.Tbl.iter
    (fun cell (value, _) -> register_indeterminate_value t cell value v.vid)
    v.writes

(* The one insert rule: [update] gives [txn]'s new outcome, and a mark
   that changes it withdraws an active transaction's obligations. *)
let insert t ~txn update =
  let o = outcome t txn in
  let o' = update o in
  if o' <> o then begin
    Hashtbl.replace t.outcomes txn o';
    match Hashtbl.find_opt t.txns txn with
    | Some v when v.vstatus = Active -> make_indeterminate t v
    | Some _ | None -> ()
  end

(* A crash mark lands once.  A give-up ([Wire] or [Coord]) carries the
   same exclusions but is resolvable (see [defer_or_resolve]).  The
   first give-up claims the transaction, so the wire and coordinator
   channels partition exactly, and none lands after a loss. *)
let mark t ~txn cause =
  insert t ~txn (fun o ->
      match cause with
      | Crashed -> { o with crashed = true }
      | Wire | Coord when o.claim = None && not o.lost ->
        { o with claim = Some cause }
      | Wire | Coord -> o)

(* A commit on the truncated suffix of a failover.  It shares the
   exclusions of a give-up but is permanently unresolvable: the
   surviving timeline provably does not contain it, so a later read
   observing its value proves nothing about *this* timeline (the read
   may predate the promotion).  The loss clears any claim, and no claim
   lands after it — otherwise a pre-failover read could "resolve" it and
   post-failover reads missing it would become false violations. *)
let lose t ~txn =
  insert t ~txn (fun o ->
      { o with lost = true; claim = None; resolved = false })

let indeterminate_writer t cell value =
  match Cell.Tbl.find_opt t.indeterminate_values cell with
  | Some entries ->
    Option.map snd (List.find_opt (fun (v, _) -> v = value) !entries)
  | None -> None

let resolvable t writer = open_claim (outcome t writer) <> None

(* ------------------------------------------------------------------ *)
(* CR verification of one deferred read (Algorithm 2, ConsistentRead) *)

(* The §V-A cooperation optimization: among candidates certainly installed
   before the snapshot (the pivot and its overlaps), a version with a
   deduced ww successor in the same group was certainly overwritten before
   the snapshot and cannot be visible. *)
let narrow t ~snapshot candidates =
  if not t.narrow_candidates then candidates
  else begin
    let before_snapshot (v : Version_order.version) =
      Interval.certainly_before v.commit_iv snapshot
    in
    let group = List.filter before_snapshot candidates in
    List.filter
      (fun (v : Version_order.version) ->
        (not (before_snapshot v))
        || not
             (List.exists
                (fun (w : Version_order.version) ->
                  w.vtxn <> v.vtxn && Dep.Log.mem t.log Dep.Ww v.vtxn w.vtxn)
                group))
      candidates
  end

let install_versions t (v : vtxn) ~commit_iv =
  List.iter
    (fun cell ->
      match Cell.Tbl.find_opt v.writes cell with
      | None -> ()
      | Some (value, write_iv) ->
        let version =
          {
            Version_order.value;
            vtxn = v.vid;
            write_iv;
            commit_iv;
            readers = [];
          }
        in
        let is_first = ref false in
        Version_order.install t.versions cell version
          ~predecessor:(fun pred ->
            match pred with
            | None -> is_first := true
            | Some (p : Version_order.version) ->
              if
                Interval.certainly_before p.commit_iv commit_iv
                && p.vtxn <> v.vid
              then
                emit_dep t
                  {
                    Dep.kind = Dep.Ww;
                    from_txn = p.vtxn;
                    to_txn = v.vid;
                    source = Dep.From_version_order;
                  };
              (* Fig. 9: readers matched to the predecessor antidepend on
                 the new direct successor. *)
              List.iter
                (fun reader ->
                  if reader <> v.vid then
                    emit_dep t
                      {
                        Dep.kind = Dep.Rw;
                        from_txn = reader;
                        to_txn = v.vid;
                        source = Dep.Derived_rw;
                      })
                p.readers)
          ~successor:(fun succ ->
            match succ with
            | None ->
              (* Appended at the tail.  If it is also the very first
                 version of the cell, readers of the untraced initial
                 state antidepend on it. *)
              if !is_first then begin
                match Cell.Tbl.find_opt t.initial_readers cell with
                | Some readers ->
                  List.iter
                    (fun reader ->
                      if reader <> v.vid then
                        emit_dep t
                          {
                            Dep.kind = Dep.Rw;
                            from_txn = reader;
                            to_txn = v.vid;
                            source = Dep.Derived_rw;
                          })
                    readers.order;
                  Cell.Tbl.remove t.initial_readers cell
                | None -> ()
              end
            | Some (s : Version_order.version) ->
              if
                Interval.certainly_before commit_iv s.commit_iv
                && s.vtxn <> v.vid
              then
                emit_dep t
                  {
                    Dep.kind = Dep.Ww;
                    from_txn = v.vid;
                    to_txn = s.vtxn;
                    source = Dep.From_version_order;
                  }))
    (List.rev v.write_cells)

let rec check_read t (pr : pending_read) =
  t.reads_checked <- t.reads_checked + 1;
  List.iter (fun (cell, value) -> check_item t pr cell value) pr.items

and check_item t (pr : pending_read) cell value =
  let chain = Version_order.chain t.versions cell in
  match chain with
  | [] -> (
    match indeterminate_writer t cell value with
    | Some writer when resolvable t writer ->
      (* no committed version, but the value matches an unacknowledged
         commit's write: resolvable once the reader's fate is known *)
      defer_or_resolve t pr cell value writer
    | Some _ ->
      (* no committed version, but the value matches an indeterminate
         write: the crashed transaction may have committed it *)
      t.inconclusive_reads <- t.inconclusive_reads + 1
    | None ->
      (* Untraced cell so far: the read observed the initial state.  If
         a first version installs later, the reader antidepends on it. *)
      let readers =
        match Cell.Tbl.find_opt t.initial_readers cell with
        | Some r -> r
        | None ->
          let r = initial_readers_of [] in
          Cell.Tbl.add t.initial_readers cell r;
          r
      in
      if not (Hashtbl.mem readers.members pr.reader) then begin
        Hashtbl.replace readers.members pr.reader ();
        readers.order <- pr.reader :: readers.order
      end)
  | _ -> (
    let candidates =
      narrow t ~snapshot:pr.snapshot_iv
        (Candidate.candidates ~snapshot:pr.snapshot_iv chain)
    in
    let matches =
      List.filter
        (fun (v : Version_order.version) -> v.value = value)
        candidates
    in
    match matches with
    | [] -> (
      match indeterminate_writer t cell value with
      | Some writer when resolvable t writer ->
        defer_or_resolve t pr cell value writer
      | Some _ ->
        (* the value may stem from a crashed client's transaction
           whose commit outcome is unknown: neither a violation nor a
           pass can be concluded *)
        t.inconclusive_reads <- t.inconclusive_reads + 1
      | None ->
        if t.ext_lost > 0 || t.ext_late_dropped > 0 then
          (* the collection is known lossy: the observed value may stem
             from a write whose trace never reached the verifier, so a
             missing match is not evidence of a violation *)
          t.inconclusive_reads <- t.inconclusive_reads + 1
        else if Candidate.has_pivot ~snapshot:pr.snapshot_iv chain then begin
          (* classify: where did the impossible value come from? *)
          let classified =
            Candidate.classify ~snapshot:pr.snapshot_iv chain
          in
          let from_chain =
            List.find_opt
              (fun ((v : Version_order.version), _) -> v.value = value)
              classified
          in
          let anomaly =
            match from_chain with
            | Some (_, Candidate.Garbage) -> Anomaly.Stale_read
            | Some (_, Candidate.Future) -> Anomaly.Future_read
            | Some (_, (Candidate.Overlap | Candidate.Pivot
                       | Candidate.Pivot_overlap)) ->
              (* in the candidate region but excluded by ww narrowing *)
              Anomaly.Stale_read
            | None -> (
              match Cell.Tbl.find_opt t.aborted_values cell with
              | Some entries
                when List.exists (fun (v, _, _) -> v = value) !entries ->
                Anomaly.Aborted_read
              | Some _ | None -> Anomaly.Dirty_read)
          in
          report_bug t
            (Bug.make ~mechanism:Bug.Cr ~anomaly ~txns:[ pr.reader ] ~cell
               (Printf.sprintf
                  "read by txn %d observed value %d on %s, which matches \
                   no possibly-visible version (%d candidates, %d known \
                   versions)"
                  pr.reader value (Cell.to_string cell)
                  (List.length candidates) (List.length chain)))
        end
        else begin
          (* No pivot: the read observed the untraced initial state.
             When the oldest known version is certainly the first, it
             is the initial state's direct successor, so the read
             antidepends on its writer (Fig. 9 applied to the initial
             version).  No pivot also implies nothing was pruned for
             this cell, so the chain head is the genuine first
             version. *)
          match chain with
          | first :: rest
            when first.Version_order.vtxn <> pr.reader
                 && (match rest with
                    | [] -> true
                    | second :: _ ->
                      Interval.certainly_before first.Version_order.commit_iv
                        second.Version_order.commit_iv) ->
            emit_dep t
              {
                Dep.kind = Dep.Rw;
                from_txn = pr.reader;
                to_txn = first.Version_order.vtxn;
                source = Dep.Derived_rw;
              }
          | _ -> ()
        end)
    | [ v ] ->
      if v.vtxn <> pr.reader then begin
        emit_dep t
          {
            Dep.kind = Dep.Wr;
            from_txn = v.vtxn;
            to_txn = pr.reader;
            source = Dep.From_cr;
          };
        (* register for future rw derivation *)
        Version_order.add_reader t.versions cell v pr.reader;
        (* rw to an already-known direct successor *)
        let rec successor = function
          | a :: b :: rest ->
            if a == v then Some b else successor (b :: rest)
          | [ _ ] | [] -> None
        in
        match successor chain with
        | Some (s : Version_order.version) when s.vtxn <> pr.reader ->
          emit_dep t
            {
              Dep.kind = Dep.Rw;
              from_txn = pr.reader;
              to_txn = s.vtxn;
              source = Dep.Derived_rw;
            }
        | Some _ | None -> ()
      end
    | _ :: _ :: _ -> ()  (* ambiguous match: uncertain, no deduction *))

(* Outcome resolution (the wire layer's counterpart to Algorithm 2): a
   read item matching an unresolved ambiguous commit is settled by the
   {e reader's} fate.  A committed reader is proof the writer's commit
   took effect — the engine served the value to a transaction that went
   on to commit, which no engine at read-committed or above does for an
   unapplied write — so the writer is promoted and the item re-checked
   against the now-installed version.  Any other fate for the reader
   (aborted, itself indeterminate, never terminated) leaves the item
   inconclusive, exactly as PR 1's blanket exclusion would have. *)
and defer_or_resolve t (pr : pending_read) cell value writer =
  match status_of t pr.reader with
  | Committed ->
    if promote_ambiguous t writer ~observed_aft:(Interval.aft pr.read_iv) then
      check_item t pr cell value
    else t.inconclusive_reads <- t.inconclusive_reads + 1
  | Active ->
    let entries =
      match Hashtbl.find_opt t.awaiting pr.reader with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.replace t.awaiting pr.reader r;
        r
    in
    entries :=
      {
        a_cell = cell;
        a_value = value;
        a_writer = writer;
        a_read_iv = pr.read_iv;
        a_snapshot_iv = pr.snapshot_iv;
      }
      :: !entries
  | Aborted | Indeterminate ->
    t.inconclusive_reads <- t.inconclusive_reads + 1

(* Promote an ambiguous commit to definitely-committed.  The commit
   interval is deliberately wide — from the writer's first operation to
   the observing read's end — which only ever {e adds} visibility
   candidates downstream, so the promotion cannot manufacture a
   violation out of uncertainty.  ME and FUW obligations stay waived
   (their release/registration instants are unknowable), matching the
   conservative treatment of indeterminate transactions. *)
and promote_ambiguous t writer ~observed_aft =
  match Hashtbl.find_opt t.txns writer with
  | Some w when w.vstatus = Indeterminate && resolvable t writer ->
    (* lint: allow hashtbl-order — in-place per-key filter; no state
       crosses from one binding to the next *)
    Cell.Tbl.iter
      (fun _cell entries ->
        entries := List.filter (fun (_, id) -> id <> writer) !entries)
      t.indeterminate_values;
    Hashtbl.replace t.outcomes writer
      { (outcome t writer) with resolved = true };
    w.vstatus <- Committed;
    t.committed <- t.committed + 1;
    let bef =
      match w.first_iv with
      | Some f -> min (Interval.bef f) (observed_aft - 1)
      | None -> observed_aft - 1
    in
    let commit_iv = Interval.make ~bef ~aft:observed_aft in
    w.terminal_iv <- Some commit_iv;
    let first_iv = match w.first_iv with Some f -> f | None -> commit_iv in
    if t.profile.Il_profile.check_sc <> None then
      Sc_verifier.note_commit t.sc ~txn:w.vid ~first_iv ~terminal_iv:commit_iv;
    if t.profile.Il_profile.check_cr <> None then
      install_versions t w ~commit_iv;
    flush_pending t w;
    true
  | Some _ | None -> false

(* Settle the read items parked on ambiguous writers once their reader
   terminates.  Called from the terminal-trace handlers and finalize. *)
and resolve_awaiting t (v : vtxn) ~committed =
  match Hashtbl.find_opt t.awaiting v.vid with
  | None -> ()
  | Some entries ->
    Hashtbl.remove t.awaiting v.vid;
    List.iter
      (fun e ->
        if committed then begin
          let pr =
            {
              reader = v.vid;
              read_iv = e.a_read_iv;
              snapshot_iv = e.a_snapshot_iv;
              items = [];
            }
          in
          if resolvable t e.a_writer then begin
            if
              promote_ambiguous t e.a_writer
                ~observed_aft:(Interval.aft e.a_read_iv)
            then check_item t pr e.a_cell e.a_value
            else t.inconclusive_reads <- t.inconclusive_reads + 1
          end
          else
            (* already promoted by another reader: re-check against the
               installed version *)
            check_item t pr e.a_cell e.a_value
        end
        else if resolvable t e.a_writer then
          t.inconclusive_reads <- t.inconclusive_reads + 1)
      (List.rev !entries)

let flush_deferred t ~upto =
  let ready =
    Leopard_util.Min_heap.drain_while t.deferred (fun pr ->
        Interval.aft pr.read_iv <= upto)
  in
  List.iter (check_read t) ready

(* ------------------------------------------------------------------ *)
(* GC *)

(* The earliest snapshot any future statement can take: the frontier for
   transactions not yet seen, the first operation for active ones that
   may still issue statements.  A superseded transaction issues none
   ([follow_client]), so it does not pin the horizon. *)
let horizon t =
  let h =
    (* lint: allow hashtbl-order — min-fold; commutative and associative *)
    Hashtbl.fold
      (fun _ v acc ->
        match (v.vstatus, v.first_iv) with
        | Active, Some iv when not (Hashtbl.mem t.superseded v.vid) ->
          min acc (Interval.bef iv)
        | _ -> acc)
      t.txns t.frontier
  in
  (* Defensive: a deferred read normally belongs to an active transaction
     (its terminal trace cannot start before the read ends at a sequential
     client), but hostile histories can violate that; never prune past a
     queued read's snapshot. *)
  Leopard_util.Min_heap.fold
    (fun acc pr -> min acc (Interval.bef pr.snapshot_iv))
    h t.deferred

let prune_to t h =
  if h > t.pruned_to then t.pruned_to <- h;
  t.pruned_versions <-
    t.pruned_versions + Version_order.prune t.versions ~horizon:h;
  t.pruned_locks <- t.pruned_locks + Me_verifier.prune t.me ~horizon:h;
  t.pruned_fuw <- t.pruned_fuw + Fuw_verifier.prune t.fuw ~horizon:h;
  t.pruned_graph <- t.pruned_graph + Sc_verifier.gc t.sc ~frontier:h;
  (* lint: allow hashtbl-order — in-place per-key prune, keys independent;
     an emptied cell leaves the table, which the G1a classification reads
     as no aborted write *)
  Cell.Tbl.filter_map_inplace
    (fun _cell entries ->
      match List.filter (fun (_, _, aft) -> aft > h) !entries with
      | [] -> None
      | kept ->
        entries := kept;
        Some entries)
    t.aborted_values;
  (* prune terminated transaction records behind the horizon *)
  let victims =
    (* lint: allow hashtbl-order — collects a removal set; every victim is
       removed whatever the fold order *)
    Hashtbl.fold
      (fun id v acc ->
        match (v.vstatus, v.terminal_iv) with
        | (Committed | Aborted), Some iv when Interval.aft iv <= h ->
          id :: acc
        | _ -> acc)
      t.txns []
  in
  List.iter
    (fun id ->
      Hashtbl.remove t.txns id;
      Hashtbl.remove t.superseded id)
    victims

let run_gc t = prune_to t (horizon t)

(* ------------------------------------------------------------------ *)
(* Truncation: fold the verified prefix into the compact summary.

   [prune_to] already bounds the four mechanism mirrors, the deferred
   heap and the transaction table.  The deduction log is not pruned with
   them: [emit_dep] uses it to deduplicate re-deductions and [narrow]
   looks ww edges up in it.  A cut keeps what those two can still ask
   for, and folds the rest into accumulated tallies, so the report keeps
   the counts while the memory is reclaimed.

   - Every [emit_dep] names a transaction the checker tracks: the
     installing one in [install_versions] (also via [promote_ambiguous]),
     the reader in [check_item] and [resolve_awaiting], the releasing
     one in [Me_verifier.release], the registering one in
     [Fuw_verifier.register].  Tracked means in [txns], the reader of a
     deferred or parked read, or marked in [outcomes]; a transaction
     that is none of these has settled and installs, reads, releases and
     registers nothing more.  So an entry with neither endpoint tracked
     is never deduced again.
   - [narrow] asks for ww edges between the writers of two versions on
     one chain, which is then in [Version_order]'s [multi] index.  A
     settled writer joins no chain again, so a ww edge whose endpoints
     are not both writers on such chains is never looked up.

   A cut therefore visits the tracked transactions, the multi-version
   chains and the log, never a single-version chain or a reader list:
   its cost follows the live state, not the cells the history wrote. *)

let truncate t ~watermark =
  let h = min watermark (horizon t) in
  prune_to t h;
  let reading = Hashtbl.create 64 in
  Leopard_util.Min_heap.fold
    (fun () pr -> Hashtbl.replace reading pr.reader ())
    () t.deferred;
  (* lint: allow hashtbl-order — building a membership set; commutative *)
  Hashtbl.iter (fun reader _ -> Hashtbl.replace reading reader ()) t.awaiting;
  let tracked id =
    Hashtbl.mem t.txns id || Hashtbl.mem reading id || Hashtbl.mem t.outcomes id
  in
  let shared = Hashtbl.create 64 in
  Version_order.iter_multi_writers t.versions (fun id ->
      Hashtbl.replace shared id ());
  Dep.Log.sweep t.log
    ~keep:(fun kind a b ->
      tracked a || tracked b
      || (kind = Dep.Ww && Hashtbl.mem shared a && Hashtbl.mem shared b))
    (fun source ->
      t.truncated_deps <- t.truncated_deps + 1;
      let r = Dep.source_rank source in
      t.forgotten_by_source.(r) <- t.forgotten_by_source.(r) + 1);
  t.truncations <- t.truncations + 1

(* ------------------------------------------------------------------ *)
(* Trace handlers *)

let me_granule t (cell : Cell.t) =
  match t.profile.Il_profile.lock_granularity with
  | Il_profile.Row_locks -> Cell.row_key cell
  | Il_profile.Table_locks -> (cell.Cell.table, -1)

let me_on_pair t ~row ~(mine : Me_verifier.entry) ~(other : Me_verifier.entry)
    verdict =
  match verdict with
  | Me_verifier.Violation ->
    let anomaly =
      if mine.mode = Me_verifier.X && other.mode = Me_verifier.X then
        Anomaly.Dirty_write
      else Anomaly.Read_lock_violation
    in
    report_bug t
      (Bug.make ~mechanism:Bug.Me ~anomaly ~txns:[ mine.etxn; other.etxn ] ~row
         (Printf.sprintf
            "incompatible locks on row (t%d,r%d): transactions %d and %d \
             certainly held conflicting locks simultaneously"
            (fst row) (snd row) mine.etxn other.etxn))
  | Me_verifier.Ww (first, second) ->
    if status_of t first = Committed && status_of t second = Committed then
      emit_dep t
        {
          Dep.kind = Dep.Ww;
          from_txn = first;
          to_txn = second;
          source = Dep.From_me;
        }
  | Me_verifier.Unordered -> ()

let handle_read t (v : vtxn) trace items locking =
  let iv = Trace.interval trace in
  (* mutual exclusion entries *)
  let p = t.profile in
  let rows =
    List.sort_uniq Cell.compare_row_key
      (List.map (fun (i : Trace.item) -> me_granule t i.cell) items)
  in
  if p.Il_profile.check_me && v.vstatus <> Indeterminate then begin
    if locking && p.Il_profile.me_locking_reads then
      List.iter
        (fun row -> Me_verifier.acquire t.me ~row ~txn:v.vid Me_verifier.X ~iv)
        rows
    else if (not locking) && p.Il_profile.me_reads then
      List.iter
        (fun row -> Me_verifier.acquire t.me ~row ~txn:v.vid Me_verifier.S ~iv)
        rows
  end;
  match p.Il_profile.check_cr with
  | None -> ()
  | Some granularity ->
    let snapshot_iv =
      match granularity with
      | Il_profile.Stmt_snapshot ->
        if t.relaxed_reads then
          (* claim compatibility: any snapshot between transaction begin
             and this statement may have served the read *)
          match v.first_iv with
          | Some f -> Interval.make ~bef:(Interval.bef f) ~aft:(Interval.aft iv)
          | None -> iv
        else iv
      | Il_profile.Txn_snapshot -> (
        match v.first_iv with Some f -> f | None -> iv)
    in
    (* Case 1 of CR: an operation must see the transaction's own earlier
       writes.  Items on cells this transaction wrote must return the
       latest own value; other items go through candidate matching once
       the frontier passes the read. *)
    let deferred_items =
      List.filter_map
        (fun (i : Trace.item) ->
          match Cell.Tbl.find_opt v.writes i.cell with
          | Some (own_value, _) ->
            if i.value <> own_value then
              report_bug t
                (Bug.make ~mechanism:Bug.Cr ~anomaly:Anomaly.Intermediate_read
                   ~txns:[ v.vid ] ~cell:i.cell
                   (Printf.sprintf
                      "read by txn %d observed value %d on %s although the \
                       transaction's own latest write installed %d"
                      v.vid i.value (Cell.to_string i.cell) own_value));
            None
          | None -> Some (i.cell, i.value))
        items
    in
    if Hashtbl.mem t.superseded v.vid then
      (* resumed after a prune passed its snapshot ([resume]): the
         versions it could see may be gone *)
      t.inconclusive_reads <-
        t.inconclusive_reads + List.length deferred_items
    else if deferred_items <> [] then
      Leopard_util.Min_heap.push t.deferred
        {
          reader = v.vid;
          read_iv = iv;
          snapshot_iv;
          items = deferred_items;
        }

let handle_write t (v : vtxn) trace items =
  let iv = Trace.interval trace in
  let p = t.profile in
  List.iter
    (fun (i : Trace.item) ->
      if not (Cell.Tbl.mem v.writes i.cell) then
        v.write_cells <- i.cell :: v.write_cells;
      Cell.Tbl.replace v.writes i.cell (i.value, iv);
      if v.vstatus = Indeterminate then
        register_indeterminate_value t i.cell i.value v.vid)
    items;
  if p.Il_profile.check_me && v.vstatus <> Indeterminate then begin
    let rows =
      List.sort_uniq Cell.compare_row_key
        (List.map (fun (i : Trace.item) -> me_granule t i.cell) items)
    in
    List.iter
      (fun row -> Me_verifier.acquire t.me ~row ~txn:v.vid Me_verifier.X ~iv)
      rows
  end

let handle_commit t (v : vtxn) trace =
  let commit_iv = Trace.interval trace in
  v.terminal_iv <- Some commit_iv;
  v.vstatus <- Committed;
  t.committed <- t.committed + 1;
  let first_iv =
    match v.first_iv with Some f -> f | None -> commit_iv
  in
  if t.profile.Il_profile.check_sc <> None then
    Sc_verifier.note_commit t.sc ~txn:v.vid ~first_iv ~terminal_iv:commit_iv;
  (* lock releases + pair checks *)
  if t.profile.Il_profile.check_me then
    Me_verifier.release t.me ~txn:v.vid ~iv:commit_iv ~on_pair:(me_on_pair t);
  (* version installation (CR mirror) *)
  if t.profile.Il_profile.check_cr <> None then
    install_versions t v ~commit_iv;
  (* FUW registration and pair checks *)
  if t.profile.Il_profile.check_fuw && v.write_cells <> [] then begin
    let rows =
      List.sort_uniq Cell.compare_row_key (List.map Cell.row_key v.write_cells)
    in
    let entry =
      { Fuw_verifier.ftxn = v.vid; snapshot_iv = first_iv; commit_iv }
    in
    List.iter
      (fun row ->
        Fuw_verifier.register t.fuw ~row entry ~on_pair:(fun ~row ~other verdict ->
            match verdict with
            | Fuw_verifier.Violation ->
              report_bug t
                (Bug.make ~mechanism:Bug.Fuw ~anomaly:Anomaly.Lost_update
                   ~txns:[ other.ftxn; v.vid ] ~row
                   (Printf.sprintf
                      "first-updater-wins violated on row (t%d,r%d): \
                       concurrent transactions %d and %d both committed \
                       updates"
                      (fst row) (snd row) other.ftxn v.vid))
            | Fuw_verifier.Ww (first, second) ->
              if
                status_of t first = Committed
                && status_of t second = Committed
              then
                emit_dep t
                  {
                    Dep.kind = Dep.Ww;
                    from_txn = first;
                    to_txn = second;
                    source = Dep.From_fuw;
                  }
            | Fuw_verifier.Unordered -> ()))
      rows
  end;
  flush_pending t v;
  resolve_awaiting t v ~committed:true

let handle_abort t (v : vtxn) trace =
  let iv = Trace.interval trace in
  v.terminal_iv <- Some iv;
  v.vstatus <- Aborted;
  t.aborted <- t.aborted + 1;
  v.pending_deps <- [];
  (* lint: allow hashtbl-order — one binding per written cell, each moved
     to its own aborted-values entry; bindings never interact *)
  Cell.Tbl.iter
    (fun cell (value, _) ->
      let entries =
        match Cell.Tbl.find_opt t.aborted_values cell with
        | Some r -> r
        | None ->
          let r = ref [] in
          Cell.Tbl.add t.aborted_values cell r;
          r
      in
      entries := (value, v.vid, Interval.aft iv) :: !entries)
    v.writes;
  if t.profile.Il_profile.check_me then
    Me_verifier.release t.me ~txn:v.vid ~iv ~on_pair:(me_on_pair t);
  resolve_awaiting t v ~committed:false

(* ------------------------------------------------------------------ *)

(* Duplicate deliveries (chaos / retrying shippers) are deduped by
   (client, txn, ts_bef): a client issues at most one op at a given
   instant, so two structurally equal traces under that key are one
   delivery seen twice.  Keys are only retained while the frontier sits
   at their ts_bef — sorted dispatch guarantees any duplicate that was
   not dropped as late arrives within that window. *)
let duplicate_delivery t trace =
  if trace.Trace.ts_bef > t.dedup_ts then begin
    Hashtbl.reset t.dedup_seen;
    t.dedup_ts <- trace.Trace.ts_bef
  end;
  let key = (trace.Trace.client, trace.Trace.txn, trace.Trace.ts_bef) in
  match Hashtbl.find_opt t.dedup_seen key with
  | Some prev when prev = trace -> true
  | Some _ -> false (* same key, different op: not a duplicate *)
  | None ->
    Hashtbl.replace t.dedup_seen key trace;
    false

(* The horizon premise: clients are sequential, so once a client's trace
   names another transaction, its previous one has returned and every
   trace it still has carries a [ts_bef] below the frontier — [feed]
   refuses such a trace and the pipeline drops it as late.  A previous
   transaction still active (its terminal trace was lost) is therefore
   superseded.  It stays [Active], so a later mark still applies and
   [finalize] still counts it unterminated, but it stops pinning
   [horizon]: one lost terminal costs one transaction, not every prune
   after it. *)
(* A client interleaving transactions breaks the premise.  If no prune
   passed the superseded transaction's first [ts_bef], nothing it could
   need is gone: the mark is cleared and checking goes on exactly as
   without it.  Otherwise the transaction becomes indeterminate (like a
   terminal meeting an earlier declaration) and keeps the mark, which
   makes its reads inconclusive: the verdict degrades, it never turns
   into a false violation. *)
let resume t (v : vtxn) =
  match v.first_iv with
  | Some f when Interval.bef f < t.pruned_to ->
    if v.vstatus = Active then mark t ~txn:v.vid Crashed
  | Some _ | None -> Hashtbl.remove t.superseded v.vid

(* Only a trace that switches its client's transaction can supersede
   one or resume one, so the common case costs a single lookup. *)
let follow_client t client (v : vtxn) =
  match Hashtbl.find_opt t.client_txn client with
  | Some prev when prev = v.vid -> ()
  | prev ->
    (match Option.bind prev (Hashtbl.find_opt t.txns) with
    | Some p when p.vstatus = Active -> Hashtbl.replace t.superseded p.vid ()
    | Some _ | None -> ());
    Hashtbl.replace t.client_txn client v.vid;
    if Hashtbl.mem t.superseded v.vid then resume t v

let rec feed t trace =
  if trace.Trace.ts_bef < t.frontier then
    invalid_arg
      (Printf.sprintf
         "Checker.feed: trace ts_bef %d is behind the frontier %d (traces \
          must be dispatched in sorted order)"
         trace.Trace.ts_bef t.frontier);
  if duplicate_delivery t trace then
    t.dup_dropped <- t.dup_dropped + 1
  else feed_fresh t trace

and feed_fresh t trace =
  t.frontier <- trace.Trace.ts_bef;
  t.traces <- t.traces + 1;
  (* Safe point: every version visible to these reads is installed. *)
  flush_deferred t ~upto:t.frontier;
  let v = vtxn t trace.Trace.txn in
  if v.first_iv = None then v.first_iv <- Some (Trace.interval trace);
  follow_client t trace.Trace.client v;
  (match trace.Trace.payload with
  | Trace.Read { items; locking } -> handle_read t v trace items locking
  | Trace.Write items -> handle_write t v trace items
  | (Trace.Commit | Trace.Abort)
    when v.vstatus = Indeterminate || (outcome t v.vid).resolved ->
    (* defensive: a terminal for a transaction already declared
       indeterminate (e.g. a late mark racing a delivered terminal) or
       already promoted by outcome resolution adds no obligations — the
       declaration wins *)
    ()
  | Trace.Commit -> handle_commit t v trace
  | Trace.Abort -> handle_abort t v trace);
  let live = live_size t in
  if live > t.peak_live then t.peak_live <- live;
  if t.gc_every > 0 && t.traces mod t.gc_every = 0 then run_gc t

let finalize t =
  flush_deferred t ~upto:max_int;
  t.frontier <- max_int;
  (* read items still parked on an ambiguous writer: their reader never
     terminated, so the writer stays unresolved and the items are
     inconclusive *)
  (* lint: allow hashtbl-order — counting into a counter; commutative *)
  Hashtbl.iter
    (fun _reader entries ->
      List.iter
        (fun e ->
          if resolvable t e.a_writer then
            t.inconclusive_reads <- t.inconclusive_reads + 1)
        !entries)
    t.awaiting;
  Hashtbl.reset t.awaiting;
  t.finalized <- true;
  if t.gc_every > 0 then run_gc t

let deduced t kind from_txn to_txn = Dep.Log.mem t.log kind from_txn to_txn

let note_crashed_clients t n =
  t.ext_crashed_clients <- t.ext_crashed_clients + n

let note_late_dropped t n = t.ext_late_dropped <- t.ext_late_dropped + n
let note_lost_traces t n = t.ext_lost <- t.ext_lost + n

(* Recovery damage is deliberately NOT funnelled into [note_lost_traces]:
   a lost trace weakens what the verifier may claim about unmatched reads
   (the missing write may simply be the lost trace), but a damaged WAL
   record is the server's own confession — real recoveries detect torn
   and missing records by CRC scan.  The traces themselves are all
   present, so a post-crash read contradicting them is a {e provable}
   violation, exactly what the durability faults plant. *)
let note_restart t ~at ~replayed ~damaged =
  if at < 0 || replayed < 0 || damaged < 0 then
    invalid_arg "Checker.note_restart: negative count";
  t.ext_restarts <- t.ext_restarts + 1;
  t.ext_recovery_lost <- t.ext_recovery_lost + damaged

(* The failover channel mirrors [note_restart]: the harness (or an [L]
   trace-file marker) declares a leader change and the log suffix the
   promotion truncated.  Call it {e before} feeding traces, so lost
   transactions enter the checker already indeterminate — their commit
   traces are then inert declarations rather than obligations.  An
   honest lossy failover degrades the verdict (Inconclusive, never a
   false Violation); a failover that {e hides} its lost suffix leaves
   the checker free to prove the disappearance as a definite CR
   violation. *)
let note_failover t ~at ~epoch ~lost =
  if at < 0 then invalid_arg "Checker.note_failover: negative timestamp";
  if epoch < 1 then invalid_arg "Checker.note_failover: epoch must be >= 1";
  t.ext_failovers <- t.ext_failovers + 1;
  t.ext_lost_commits <- t.ext_lost_commits + List.length lost;
  List.iter (fun txn -> lose t ~txn) lost

let count t p = List.length (outcome_ids t p)

let degradation t =
  {
    crashed_clients = t.ext_crashed_clients;
    indeterminate_txns = count t (fun o -> o.crashed);
    dup_traces_dropped = t.dup_dropped;
    late_traces_dropped = t.ext_late_dropped;
    lost_traces = t.ext_lost;
    inconclusive_reads = t.inconclusive_reads;
    unterminated_txns =
      (* only meaningful once the stream ended: mid-run every in-flight
         transaction is legitimately unterminated *)
      (if not t.finalized then 0
       else
         (* lint: allow hashtbl-order — count-fold; commutative *)
         Hashtbl.fold
           (fun _ v acc -> if v.vstatus = Active then acc + 1 else acc)
           t.txns 0);
    restarts = t.ext_restarts;
    recovery_lost_records = t.ext_recovery_lost;
    failovers = t.ext_failovers;
    lost_suffix_commits = t.ext_lost_commits;
    ambiguous_commits = count t (fun o -> open_claim o = Some Wire);
    coord_ambiguous_commits = count t (fun o -> open_claim o = Some Coord);
  }

let report t =
  let live = live_size t in
  {
    traces = t.traces;
    committed = t.committed;
    aborted = t.aborted;
    bugs_total = t.bugs_total;
    bugs = List.rev t.bugs;
    bugs_by_mechanism =
      List.sort
        (fun (ma, _) (mb, _) -> Bug.compare_mechanism ma mb)
        (Hashtbl.fold (fun m n acc -> (m, n) :: acc) t.mech_counts []);
    deps_deduced = Dep.Log.count t.log + t.truncated_deps;
    deduced_by_source =
      (let live = Dep.Log.by_source t.log in
       List.filter_map
         (fun s ->
           let l = Option.value ~default:0 (List.assoc_opt s live) in
           let n = l + t.forgotten_by_source.(Dep.source_rank s) in
           if n = 0 then None else Some (s, n))
         Dep.all_sources);
    reads_checked = t.reads_checked;
    (* [feed] samples the peak after each trace; [finalize]'s flush
       comes after the last sample *)
    peak_live = max t.peak_live live;
    final_live = live;
    pruned_versions = t.pruned_versions;
    pruned_locks = t.pruned_locks;
    pruned_fuw = t.pruned_fuw;
    pruned_graph = t.pruned_graph;
    truncations = t.truncations;
    truncated_deps = t.truncated_deps;
    resolved_ambiguous = count t (fun o -> o.resolved);
    degradation = degradation t;
  }

let verdict (r : report) =
  if r.bugs_total > 0 then Violation
  else if degradation_free r.degradation then Verified
  else Inconclusive (degradation_reason r.degradation)

(* ------------------------------------------------------------------ *)
(* Checkpoint codec: serialize the full live state (compact after
   [truncate]) as one record per line, deterministically — every
   hashtable is dumped in a sorted order, every semantically ordered
   list (chain order, lock-entry order, pending deps, deferred heap,
   reader lists) keeps its exact order, so a decoded checker replays the
   remaining stream byte-identically to an uninterrupted run.  How a
   record is spelled is [Leopard_trace.Fields]'s job; the surrounding
   container (framing, checksums, fingerprint) is [Leopard_trace.Ckpt]'s. *)

module F = Leopard_trace.Fields
module R = F.Cursor

(* The [s] record: every scalar counter, in this order. *)
let scalars =
  [
    ((fun t -> t.frontier), fun t v -> t.frontier <- v);
    ((fun t -> t.dedup_ts), fun t v -> t.dedup_ts <- v);
    ((fun t -> t.traces), fun t v -> t.traces <- v);
    ((fun t -> t.committed), fun t v -> t.committed <- v);
    ((fun t -> t.aborted), fun t v -> t.aborted <- v);
    ((fun t -> t.bugs_total), fun t v -> t.bugs_total <- v);
    ((fun t -> t.reads_checked), fun t v -> t.reads_checked <- v);
    ((fun t -> t.peak_live), fun t v -> t.peak_live <- v);
    ((fun t -> t.pruned_versions), fun t v -> t.pruned_versions <- v);
    ((fun t -> t.pruned_locks), fun t v -> t.pruned_locks <- v);
    ((fun t -> t.pruned_fuw), fun t v -> t.pruned_fuw <- v);
    ((fun t -> t.pruned_graph), fun t v -> t.pruned_graph <- v);
    ((fun t -> t.dup_dropped), fun t v -> t.dup_dropped <- v);
    ((fun t -> t.inconclusive_reads), fun t v -> t.inconclusive_reads <- v);
    ((fun t -> t.ext_crashed_clients), fun t v -> t.ext_crashed_clients <- v);
    ((fun t -> t.ext_late_dropped), fun t v -> t.ext_late_dropped <- v);
    ((fun t -> t.ext_lost), fun t v -> t.ext_lost <- v);
    ((fun t -> t.ext_restarts), fun t v -> t.ext_restarts <- v);
    ((fun t -> t.ext_recovery_lost), fun t v -> t.ext_recovery_lost <- v);
    ((fun t -> t.ext_failovers), fun t v -> t.ext_failovers <- v);
    ((fun t -> t.ext_lost_commits), fun t v -> t.ext_lost_commits <- v);
    ((fun t -> Bool.to_int t.finalized), fun t v -> t.finalized <- v <> 0);
    ((fun t -> t.truncations), fun t v -> t.truncations <- v);
    ((fun t -> t.truncated_deps), fun t v -> t.truncated_deps <- v);
  ]

(* The outcome table as [id] records, in checkpoint order: each names
   the transactions whose outcome [holds] one fact, and [restore]s it.
   The [superseded] set follows them. *)
let outcome_sets =
  [
    ("indeterminate", (fun o -> o.crashed), fun o -> { o with crashed = true });
    ( "ambiguous",
      (fun o -> o.claim <> None),
      fun o -> { o with claim = Some (Option.value o.claim ~default:Wire) } );
    ("resolved", (fun o -> o.resolved), fun o -> { o with resolved = true });
    ("lost", (fun o -> o.lost), fun o -> { o with lost = true });
    ( "coord",
      (fun o -> o.claim = Some Coord),
      fun o -> { o with claim = Some Coord } );
  ]

let status_code = function
  | Active -> "active"
  | Committed -> "committed"
  | Aborted -> "aborted"
  | Indeterminate -> "indeterminate"

let read_status r =
  R.choice r status_code [ Active; Committed; Aborted; Indeterminate ]

let read_mechanism r =
  R.choice r Bug.mechanism_to_string Bug.[ Cr; Me; Fuw; Sc ]

let read_anomaly r = R.choice r Anomaly.to_string Anomaly.all

let dep_fields (d : Dep.t) =
  F.
    [
      name (Dep.kind_to_string d.kind); int d.from_txn; int d.to_txn;
      name (Dep.source_to_string d.source);
    ]

let read_dep r =
  let kind = R.choice r Dep.kind_to_string Dep.[ Ww; Wr; Rw ] in
  let from_txn = R.int r in
  let to_txn = R.int r in
  let source = R.choice r Dep.source_to_string Dep.all_sources in
  { Dep.kind; from_txn; to_txn; source }

let read_pair r =
  let a = R.int r in
  (a, R.int r)

let encode t =
  let buf = ref [] in
  let record tag values = buf := F.record tag values :: !buf in
  let mirror tag lines = List.iter (fun l -> record tag [ F.name l ]) lines in
  record "h"
    F.
      [
        name t.profile.Il_profile.name; int t.gc_every;
        bool t.narrow_candidates; bool t.relaxed_reads;
      ];
  record "s" (List.map (fun (get, _) -> F.int (get t)) scalars);
  record "fs" (List.map F.int (Array.to_list t.forgotten_by_source));
  Hashtbl.fold (fun m n acc -> (m, n) :: acc) t.mech_counts []
  |> List.sort (fun (a, _) (b, _) -> Bug.compare_mechanism a b)
  |> List.iter (fun (m, n) ->
         record "mc" F.[ name (Bug.mechanism_to_string m); int n ]);
  List.iter
    (fun (b : Bug.t) ->
      record "b"
        F.
          [
            name (Bug.mechanism_to_string b.mechanism);
            opt (fun a -> [ name (Anomaly.to_string a) ]) b.anomaly;
            ints b.txns;
            opt (fun c -> [ cell c ]) b.cell;
            opt (fun (table, row) -> [ int table; int row ]) b.row;
            text b.detail;
          ])
    (List.rev t.bugs);
  Hashtbl.fold (fun _ v acc -> v :: acc) t.txns []
  |> List.sort (fun a b -> Int.compare a.vid b.vid)
  |> List.iter (fun v ->
         record "x"
           F.
             [
               int v.vid; name (status_code v.vstatus); opt_iv v.first_iv;
               opt_iv v.terminal_iv;
             ];
         List.iter
           (fun c ->
             match Cell.Tbl.find_opt v.writes c with
             | Some (value, at) ->
               record "xw" F.[ int v.vid; cell c; int value; iv at ]
             | None -> ())
           (List.rev v.write_cells);
         List.iter
           (fun d -> record "xd" (F.int v.vid :: dep_fields d))
           v.pending_deps);
  List.iter
    (fun pr ->
      record "df"
        F.
          [
            int pr.reader; iv pr.read_iv; iv pr.snapshot_iv;
            entries (fun (c, value) -> [ cell c; int value ]) pr.items;
          ])
    (Leopard_util.Min_heap.to_sorted_list t.deferred);
  Cell.Tbl.fold (fun c r acc -> (c, r.order) :: acc) t.initial_readers []
  |> List.sort (fun (a, _) (b, _) -> Cell.compare a b)
  |> List.iter (fun (c, readers) -> record "ir" F.[ cell c; ints readers ]);
  Cell.Tbl.fold (fun c r acc -> (c, !r) :: acc) t.aborted_values []
  |> List.sort (fun (a, _) (b, _) -> Cell.compare a b)
  |> List.iter (fun (c, values) ->
         record "av"
           F.
             [
               cell c;
               entries
                 (fun (value, txn, aft) -> [ int value; int txn; int aft ])
                 values;
             ]);
  Cell.Tbl.fold (fun c r acc -> (c, !r) :: acc) t.indeterminate_values []
  |> List.sort (fun (a, _) (b, _) -> Cell.compare a b)
  |> List.iter (fun (c, values) ->
         record "nv"
           F.
             [
               cell c;
               entries (fun (value, txn) -> [ int value; int txn ]) values;
             ]);
  let id_record set ids = record "id" F.[ name set; ints ids ] in
  List.iter
    (fun (set, holds, _) ->
      outcome_ids t holds |> List.sort Int.compare |> id_record set)
    outcome_sets;
  Hashtbl.fold (fun id () acc -> id :: acc) t.superseded []
  |> List.sort Int.compare |> id_record "superseded";
  record "cl"
    F.
      [
        int t.pruned_to;
        entries
          (fun (client, txn) -> [ int client; int txn ])
          (Hashtbl.fold (fun client txn acc -> (client, txn) :: acc)
             t.client_txn []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b));
      ];
  Hashtbl.fold (fun reader parked acc -> (reader, !parked) :: acc) t.awaiting []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (reader, parked) ->
         record "aw"
           F.
             [
               int reader;
               entries
                 (fun e ->
                   [
                     cell e.a_cell; int e.a_value; int e.a_writer;
                     iv e.a_read_iv; iv e.a_snapshot_iv;
                   ])
                 parked;
             ]);
  Hashtbl.fold
    (fun _ tr acc -> Leopard_trace.Codec.to_line tr :: acc)
    t.dedup_seen []
  |> List.sort String.compare
  |> List.iter (fun l -> record "du" [ F.name l ]);
  mirror "vo" (Version_order.dump t.versions);
  mirror "me" (Me_verifier.dump t.me);
  mirror "fw" (Fuw_verifier.dump t.fuw);
  mirror "sc" (Sc_verifier.dump t.sc);
  List.iter (fun d -> record "dl" (dep_fields d)) (Dep.Log.entries t.log);
  List.rev !buf

let known_txn t vid =
  match Hashtbl.find_opt t.txns vid with
  | Some v -> v
  | None -> failwith "record references unknown transaction"

(* Apply one record to [t], which starts out as [create] left it; the
   result is the record's tag. *)
let load t r =
  (match R.tag r with
  | "h" ->
    let name = R.name r in
    if not (String.equal name t.profile.Il_profile.name) then
      failwith
        (Printf.sprintf "checkpoint was written for profile %s, not %s" name
           t.profile.Il_profile.name);
    let gc_every = R.int r in
    let narrow = R.bool r in
    if
      gc_every <> t.gc_every
      || narrow <> t.narrow_candidates
      || R.bool r <> t.relaxed_reads
    then failwith "checkpoint was written under different checker flags"
  | "s" -> List.iter (fun (_, set) -> set t (R.int r)) scalars
  | "fs" ->
    for i = 0 to Array.length t.forgotten_by_source - 1 do
      t.forgotten_by_source.(i) <- R.int r
    done
  | "mc" ->
    let m = read_mechanism r in
    Hashtbl.replace t.mech_counts m (R.int r)
  | "b" ->
    let mechanism = read_mechanism r in
    let anomaly = R.opt r read_anomaly in
    let txns = R.ints r in
    let cell = R.opt r R.cell in
    let row = R.opt r read_pair in
    let bug = { Bug.mechanism; anomaly; txns; cell; row; detail = R.text r } in
    t.bugs <- bug :: t.bugs
  | "x" ->
    let v = vtxn t (R.int r) in
    v.vstatus <- read_status r;
    v.first_iv <- R.opt_iv r;
    v.terminal_iv <- R.opt_iv r
  | "xw" ->
    let v = known_txn t (R.int r) in
    let cell = R.cell r in
    let value = R.int r in
    if not (Cell.Tbl.mem v.writes cell) then
      v.write_cells <- cell :: v.write_cells;
    Cell.Tbl.replace v.writes cell (value, R.iv r)
  | "xd" ->
    let v = known_txn t (R.int r) in
    v.pending_deps <- read_dep r :: v.pending_deps
  | "df" ->
    let reader = R.int r in
    let read_iv = R.iv r in
    let snapshot_iv = R.iv r in
    let items =
      R.entries r (fun r ->
          let cell = R.cell r in
          (cell, R.int r))
    in
    Leopard_util.Min_heap.push t.deferred
      { reader; read_iv; snapshot_iv; items }
  | "ir" ->
    let cell = R.cell r in
    Cell.Tbl.replace t.initial_readers cell (initial_readers_of (R.ints r))
  | "av" ->
    let cell = R.cell r in
    let entry r =
      let value = R.int r in
      let txn = R.int r in
      (value, txn, R.int r)
    in
    Cell.Tbl.replace t.aborted_values cell (ref (R.entries r entry))
  | "nv" ->
    let cell = R.cell r in
    Cell.Tbl.replace t.indeterminate_values cell (ref (R.entries r read_pair))
  | "id" -> (
    let set = R.name r in
    let ids = R.ints r in
    match List.find_opt (fun (s, _, _) -> String.equal s set) outcome_sets with
    | Some (_, _, restore) ->
      List.iter
        (fun id -> Hashtbl.replace t.outcomes id (restore (outcome t id)))
        ids
    | None when String.equal set "superseded" ->
      List.iter (fun id -> Hashtbl.replace t.superseded id ()) ids
    | None -> R.fail r)
  | "cl" ->
    t.pruned_to <- R.int r;
    List.iter
      (fun (client, txn) -> Hashtbl.replace t.client_txn client txn)
      (R.entries r read_pair)
  | "aw" ->
    let reader = R.int r in
    let entry r =
      let a_cell = R.cell r in
      let a_value = R.int r in
      let a_writer = R.int r in
      let a_read_iv = R.iv r in
      { a_cell; a_value; a_writer; a_read_iv; a_snapshot_iv = R.iv r }
    in
    Hashtbl.replace t.awaiting reader (ref (R.entries r entry))
  | "du" -> (
    match Leopard_trace.Codec.of_line (R.name r) with
    | Ok (Some tr) ->
      Hashtbl.replace t.dedup_seen (tr.client, tr.txn, tr.ts_bef) tr
    | Ok None | Error _ -> R.fail r)
  | "vo" -> Version_order.load t.versions r
  | "me" -> Me_verifier.load t.me r
  | "fw" -> Fuw_verifier.load t.fuw r
  | "sc" -> Sc_verifier.load t.sc r
  | "dl" -> ignore (Dep.Log.add t.log (read_dep r))
  | tag -> failwith ("unknown record tag " ^ tag));
  R.tag r

let decode ?gc_every ?narrow_candidates ?relaxed_reads profile lines =
  let t = create ?gc_every ?narrow_candidates ?relaxed_reads profile in
  let missing = ref [ "h"; "s"; "fs" ] in
  match
    List.iter
      (fun line ->
        let tag = R.read line (load t) in
        missing := List.filter (fun m -> not (String.equal m tag)) !missing)
      lines;
    (* lint: allow hashtbl-order — each list is reversed in place *)
    Hashtbl.iter (fun _ v -> v.pending_deps <- List.rev v.pending_deps) t.txns;
    Version_order.seal t.versions;
    Me_verifier.seal t.me;
    Fuw_verifier.seal t.fuw;
    Sc_verifier.seal t.sc
  with
  | () -> (
    match !missing with
    | [] -> Ok t
    | tag :: _ -> Error (Printf.sprintf "missing %s record" tag))
  | exception (Failure msg | Invalid_argument msg) -> Error msg
