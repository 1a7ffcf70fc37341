type group = Determinism | Fault_plane | Exhaustiveness | Parallelism | Hygiene

let group_to_string = function
  | Determinism -> "determinism"
  | Fault_plane -> "fault-plane"
  | Exhaustiveness -> "exhaustiveness"
  | Parallelism -> "parallelism"
  | Hygiene -> "hygiene"

type t = {
  code : string;
  slug : string;
  group : group;
  summary : string;
  rationale : string;
}

let d001 =
  {
    code = "D001";
    slug = "random-global";
    group = Determinism;
    summary = "global Random module referenced outside lib/util";
    rationale =
      "every run must replay byte-identically from its seed; all \
       randomness flows through the splittable seeded Rng";
  }

let d002 =
  {
    code = "D002";
    slug = "wall-clock";
    group = Determinism;
    summary = "wall-clock read outside the declared clock module";
    rationale =
      "Unix.time/gettimeofday/Sys.time in the data path would leak \
       host timing into traces and verdicts; reporting-only timing \
       goes through Util.Clock";
  }

let d003 =
  {
    code = "D003";
    slug = "hashtbl-order";
    group = Determinism;
    summary = "Hashtbl iteration whose order may escape";
    rationale =
      "Hashtbl.iter/fold/filter_map_inplace/to_seq* order depends on \
       insertion history; results reaching traces, verdicts or reports \
       must be sorted (the call is absolved when it sits directly under \
       a sort)";
  }

let d004 =
  {
    code = "D004";
    slug = "poly-compare";
    group = Determinism;
    summary = "polymorphic compare or Hashtbl.hash";
    rationale =
      "polymorphic compare on types that grow functions, maps or \
       cyclic parts raises or diverges at runtime; use the type's own \
       compare (Int.compare, String.compare, Cell.compare, ...)";
  }

let f001 =
  {
    code = "F001";
    slug = "fault-plane";
    group = Fault_plane;
    summary = "verdict path references fault machinery";
    rationale =
      "lib/core and lib/trace decide verdicts; if they can even name \
       Chaos/Faulty_link/Fault/Wal, a refactor could route injection \
       through the checker and silently bias the verdict";
  }

let f002 =
  {
    code = "F002";
    slug = "fault-construct";
    group = Fault_plane;
    summary = "fault constructor built outside harness/test code";
    rationale =
      "engine hot paths may consult the injected fault set (membership \
       tests are absolved) but never construct fault values: injection \
       decisions belong to the harness";
  }

let f003 =
  {
    code = "F003";
    slug = "exit-in-lib";
    group = Fault_plane;
    summary = "exit called from library code";
    rationale =
      "the verdict-to-exit-code mapping (0 verified / 1 violation / 3 \
       inconclusive / 2 usage) lives in bin; a library exit could die \
       with the wrong soundness class";
  }

let e001 =
  {
    code = "E001";
    slug = "verdict-wildcard";
    group = Exhaustiveness;
    summary = "wildcard in a match over Checker.verdict";
    rationale =
      "a catch-all arm would absorb a future verdict variant and could \
       silently downgrade a Violation";
  }

let e002 =
  {
    code = "E002";
    slug = "abort-wildcard";
    group = Exhaustiveness;
    summary = "wildcard in a match over abort reasons";
    rationale =
      "retry/ambiguity policy is per abort reason; a catch-all would \
       silently misclassify a future reason (e.g. retrying a \
       non-retryable abort)";
  }

let e003 =
  {
    code = "E003";
    slug = "tag-wildcard";
    group = Exhaustiveness;
    summary = "wildcard in a match over codec/operation tags";
    rationale =
      "codec entries and operation tags gate what reaches the checker; \
       a catch-all would silently drop a future marker kind instead of \
       failing the build";
  }

let p001 =
  {
    code = "P001";
    slug = "spawn-capture";
    group = Parallelism;
    summary =
      "shared mutable state written from a spawned closure without a guard";
    rationale =
      "a ref/array/Hashtbl captured by a closure handed to Domain.spawn \
       (or passed at a parameter the call graph proves spawned, like \
       Pool.map's f) and written without Atomic/Mutex is a data race; \
       the interprocedural summaries follow the capture through helper \
       calls across modules";
  }

let p002 =
  {
    code = "P002";
    slug = "nonatomic-global";
    group = Parallelism;
    summary = "cross-domain communication through a non-atomic global";
    rationale =
      "a module-level ref/Hashtbl written from a spawned closure is \
       shared between domains by construction; cross-domain state must \
       be an Atomic.t or every write must sit under Mutex.protect";
  }

let p003 =
  {
    code = "P003";
    slug = "underived-seed";
    group = Parallelism;
    summary = "RNG constructed from a value that does not derive from the seed";
    rationale =
      "campaign and compose cells must be pure functions of their cell \
       seed or serial and parallel sweeps stop being byte-identical; \
       every generator in those zones derives via Rng.derive from the \
       campaign seed, never from a fresh constant";
  }

let s001 =
  {
    code = "S001";
    slug = "stale-allow";
    group = Hygiene;
    summary = "a suppression annotation that suppresses nothing";
    rationale =
      "a suppression that no finding matches is a justification that \
       rotted — the code it excused was fixed or moved — and leaving it \
       in place would silently excuse a future regression at that line";
  }

let all =
  [ d001; d002; d003; d004; f001; f002; f003; e001; e002; e003; p001; p002; p003; s001 ]

let find_slug slug = List.find_opt (fun r -> String.equal r.slug slug) all

type raw = { rule : t; line : int; col : int; msg : string }

(* ------------------------------------------------------------------ *)
(* Rule applicability by zone                                          *)
(* ------------------------------------------------------------------ *)

let lib_zones : Zone.t list =
  [
    Core;
    Trace_lib;
    Minidb;
    Harness;
    Net;
    Replication;
    Shard;
    Compose;
    Campaign;
    Util;
    Workload;
    Baselines;
    Analysis;
  ]

let mem_zone (z : Zone.t) zs = List.exists (fun z' -> z' = z) zs

let applies rule (zone : Zone.t) ~basename =
  match rule.code with
  | "D001" -> zone <> Zone.Util
  | "D002" -> not (zone = Zone.Util && String.equal basename "clock.ml")
  | "D003" ->
    mem_zone zone
      [
        Core; Trace_lib; Minidb; Harness; Net; Replication; Shard; Compose;
        Campaign; Analysis;
      ]
  | "D004" -> mem_zone zone lib_zones
  | "F001" -> mem_zone zone [ Core; Trace_lib ]
  (* Core is covered by F001 (it may not reference fault modules at
     all); its own anomaly taxonomy reuses names like Dirty_read, so
     matching bare constructor names there would misfire. *)
  | "F002" ->
    mem_zone zone
      [ Trace_lib; Minidb; Net; Replication; Shard; Compose; Analysis ]
    && not
         (List.mem basename
            [ "fault.ml"; "wal.ml"; "repl_fault.ml"; "shard_fault.ml" ])
  | "F003" -> mem_zone zone lib_zones
  | "E001" | "E002" | "E003" -> zone <> Zone.Test
  (* The race rules run wherever domains can be spawned: all library
     zones plus executables and the bench driver.  Examples are demo
     code but still ship spawnable patterns, so they are held too. *)
  | "P001" | "P002" ->
    mem_zone zone lib_zones || mem_zone zone [ Bin; Bench; Examples ]
  (* Seed-taint applies only where cell purity is the contract. *)
  | "P003" -> mem_zone zone [ Campaign; Compose ]
  | "S001" -> true
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Longident helpers                                                   *)
(* ------------------------------------------------------------------ *)

let rec lid_parts (lid : Longident.t) =
  match lid with
  | Lident s -> [ s ]
  | Ldot (l, s) -> lid_parts l @ [ s ]
  | Lapply (a, b) -> lid_parts a @ lid_parts b

let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

let last_part parts =
  match List.rev parts with [] -> "" | x :: _ -> x

(* ------------------------------------------------------------------ *)
(* Variant families for the E rules                                    *)
(* ------------------------------------------------------------------ *)

type family = { fam_name : string; fam_rule : t; members : string list }

let verdict_family =
  {
    fam_name = "Checker.verdict";
    fam_rule = e001;
    members = [ "Verified"; "Violation"; "Inconclusive" ];
  }

let abort_family =
  {
    fam_name = "Engine.abort_reason";
    fam_rule = e002;
    members =
      [
        "Deadlock_victim";
        "Fuw_conflict";
        "Certifier_conflict";
        "User_abort";
        "Server_crash";
      ];
  }

let entry_family =
  {
    fam_name = "Codec.entry";
    fam_rule = e003;
    members = [ "Trace"; "Epoch"; "Ambiguous"; "Leader"; "Shard"; "Prepare" ];
  }

let tag_family =
  {
    fam_name = "operation tag";
    fam_rule = e003;
    members = [ "Read"; "Write"; "Commit"; "Abort"; "Begin" ];
  }

let repl_family =
  {
    fam_name = "Wire.repl_msg";
    fam_rule = e003;
    members = [ "Repl_append"; "Repl_ack" ];
  }

(* The 2PC commit protocol: a wildcard over its messages would let a
   future message kind (say, a read-only vote optimization) silently
   fall into a drop-it arm instead of failing the build. *)
let tpc_family =
  {
    fam_name = "Wire.tpc_msg";
    fam_rule = e003;
    members =
      [ "Tpc_prepare"; "Tpc_vote"; "Tpc_decision"; "Tpc_abort"; "Tpc_ack" ];
  }

(* A campaign cell's terminal state: crash isolation and step budgets
   added Crashed and Timeout next to Completed, and a wildcard here
   would silently misfile a future terminal state (say, Cancelled)
   instead of failing the build. *)
let outcome_family =
  {
    fam_name = "Runner.outcome";
    fam_rule = e001;
    members = [ "Completed"; "Crashed"; "Timeout" ];
  }

let families =
  [
    verdict_family;
    outcome_family;
    abort_family;
    entry_family;
    tag_family;
    repl_family;
    tpc_family;
  ]

(* Constructors whose argument is itself a registered family: a
   wildcard argument of [Err]/[Refused] absorbs every abort reason. *)
let arg_families = [ ("Err", abort_family); ("Refused", abort_family) ]

(* Fault constructors (Minidb.Fault.t and Minidb.Wal.fault): building
   one of these outside the harness is an F002 finding. *)
let fault_ctors =
  [
    "No_lock_on_noop_update";
    "Stale_read";
    "Predicate_read_ignores_locks";
    "Read_two_versions";
    "No_fuw";
    "No_ssi";
    "Dirty_read";
    "Stmt_snapshot_under_txn_cr";
    "Early_lock_release";
    "Snapshot_reset_on_write";
    "Mvto_no_check";
    "Ignore_own_writes";
    "Version_order_inversion";
    "Read_aborted_version";
    "Partial_commit";
    "Delayed_visibility";
    "Shared_lock_ignores_exclusive";
    "Torn_tail";
    "Lost_fsync";
    "Reordered_flush";
    "Dup_replay";
    (* Repl_fault.t: the replication fault plane *)
    "Promote_lagging";
    "Lose_acked_window";
    "Stale_follower_read";
    "Split_brain";
    (* Shard_fault.t: the sharding/2PC fault plane *)
    "Fractured_commit";
    "Commit_after_abort";
    "Snapshot_skew";
    "Stale_prepared_read";
  ]

let fault_modules =
  [
    "Chaos";
    "Faulty_link";
    "Fault";
    "Wal";
    "Recovery";
    "Minidb";
    "Leopard_harness";
    "Leopard_net";
    "Repl_fault";
    "Cluster";
    "Follower";
    "Leopard_replication";
    "Shard_fault";
    "Group";
    "Participant";
    "Leopard_shard";
    (* the stacked-plane composition orchestrator *)
    "Stack";
    "Leopard_compose";
  ]

(* ------------------------------------------------------------------ *)
(* The checker proper                                                  *)
(* ------------------------------------------------------------------ *)

open Parsetree

type state = {
  zone : Zone.t;
  basename : string;
  mutable found : raw list;
  (* positions (pos_cnum of the ident/constructor) absolved by an
     enclosing sort or fault-set membership test *)
  absolved : (int, unit) Hashtbl.t;
}

let loc_line_col (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let report st rule (loc : Location.t) msg =
  if applies rule st.zone ~basename:st.basename then begin
    let line, col = loc_line_col loc in
    st.found <- { rule; line; col; msg } :: st.found
  end

let absolve st (loc : Location.t) = Hashtbl.replace st.absolved loc.loc_start.pos_cnum ()

let is_absolved st (loc : Location.t) = Hashtbl.mem st.absolved loc.loc_start.pos_cnum

(* --- D/F ident and constructor classification --------------------- *)

let is_hashtbl_iteration parts =
  match List.rev parts with
  | ( "iter" | "fold" | "filter_map_inplace" | "to_seq" | "to_seq_keys"
    | "to_seq_values" )
    :: prev :: _ ->
    prev = "Hashtbl" || prev = "Tbl"
  | _ -> false

let is_sort_head parts =
  match last_part parts with
  | "sort" | "sort_uniq" | "stable_sort" | "fast_sort" -> true
  | _ -> false

(* [lying] is the shard group's membership test over its planted-fault
   list, like [has_fault] for the other planes. *)
let is_membership_head parts =
  match last_part parts with
  | "mem" | "fault" | "has_fault" | "lying" -> true
  | _ -> false

let check_ident st (loc : Location.t) parts =
  let parts = strip_stdlib parts in
  (match parts with
  | "Random" :: _ ->
    report st d001 loc
      (Printf.sprintf "reference to global Random (%s); use the seeded Rng"
         (String.concat "." parts))
  | _ -> ());
  (match parts with
  | [ "Unix"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Sys"; "time" ] ->
    report st d002 loc
      (Printf.sprintf "wall-clock read %s; use Util.Clock"
         (String.concat "." parts))
  (* In the campaign zone even the sanctioned reporting clock is out:
     a cell's outcome must be a pure function of the cell, or serial
     and parallel sweeps stop being byte-identical. *)
  | [ "Clock"; "cpu" ]
  | [ "Util"; "Clock"; "cpu" ]
  | [ "Leopard_util"; "Clock"; "cpu" ]
    when st.zone = Zone.Campaign ->
    report st d002 loc
      "wall-clock read inside a campaign cell body; cell outcomes must be \
       pure functions of the cell"
  | _ -> ());
  if is_hashtbl_iteration parts && not (is_absolved st loc) then
    report st d003 loc
      (Printf.sprintf
         "%s iterates in hash order; sort the bindings (or justify with a \
          suppression)"
         (String.concat "." parts));
  (match parts with
  | [ "compare" ] ->
    report st d004 loc
      "polymorphic compare; use the element type's compare"
  | [ "Hashtbl"; "hash" ] ->
    report st d004 loc
      "polymorphic Hashtbl.hash; derive a structural hash from typed fields"
  | _ -> ());
  (match parts with
  | [ "exit" ] ->
    report st f003 loc "exit from library code; return a result and let bin decide"
  | _ -> ());
  match parts with
  | m :: _ when List.mem m fault_modules ->
    report st f001 loc
      (Printf.sprintf "verdict path references fault machinery (%s)"
         (String.concat "." parts))
  | _ -> ()

let check_construct st (loc : Location.t) parts =
  let name = last_part parts in
  (match parts with
  | m :: _ :: _ when List.mem m fault_modules ->
    report st f001 loc
      (Printf.sprintf "verdict path references fault machinery (%s)"
         (String.concat "." parts))
  | _ -> ());
  if List.mem name fault_ctors && not (is_absolved st loc) then
    report st f002 loc
      (Printf.sprintf
         "fault constructor %s built here; fault injection belongs to the \
          harness (membership tests are absolved)"
         name)

(* --- absolution pre-passes ---------------------------------------- *)

(* Mark Hashtbl.iter/fold idents appearing anywhere under [e]: they are
   arguments of a sort, so their order cannot escape. *)
let rec absolve_hashtbl_under st e =
  match e.pexp_desc with
  | Pexp_ident { txt; loc } ->
    if is_hashtbl_iteration (strip_stdlib (lid_parts txt)) then absolve st loc
  | Pexp_apply (f, args) ->
    absolve_hashtbl_under st f;
    List.iter (fun (_, a) -> absolve_hashtbl_under st a) args
  | Pexp_fun (_, _, _, body) -> absolve_hashtbl_under st body
  | _ -> ()

(* Mark fault constructors appearing directly under a membership test
   ([Fault.Set.mem], [fault t C], [has_fault t C]). *)
let rec absolve_faults_under st e =
  match e.pexp_desc with
  | Pexp_construct ({ loc; txt }, arg) ->
    if List.mem (last_part (lid_parts txt)) fault_ctors then absolve st loc;
    Option.iter (absolve_faults_under st) arg
  | Pexp_apply (f, args) ->
    absolve_faults_under st f;
    List.iter (fun (_, a) -> absolve_faults_under st a) args
  | _ -> ()

(* --- E rules: wildcard coverage of variant families ---------------- *)

(* A path is the chain of constructor names / tuple slots / record
   fields from the scrutinee down to a pattern node; a wildcard at path
   [p] can absorb family constructors observed at any path extending
   [p]. *)
type wild = { w_path : string list; w_any : bool; w_loc : Location.t }

let rec walk_pattern ~path pat ~obs ~wilds =
  match pat.ppat_desc with
  | Ppat_any -> wilds := { w_path = path; w_any = true; w_loc = pat.ppat_loc } :: !wilds
  | Ppat_var _ ->
    wilds := { w_path = path; w_any = false; w_loc = pat.ppat_loc } :: !wilds
  | Ppat_alias (p, _) | Ppat_constraint (p, _) | Ppat_open (_, p) ->
    walk_pattern ~path p ~obs ~wilds
  | Ppat_or (a, b) ->
    walk_pattern ~path a ~obs ~wilds;
    walk_pattern ~path b ~obs ~wilds
  | Ppat_construct ({ txt; _ }, arg) ->
    let name = last_part (lid_parts txt) in
    List.iter
      (fun fam -> if List.mem name fam.members then obs := (fam, path) :: !obs)
      families;
    (match List.assoc_opt name arg_families with
    | Some fam -> obs := (fam, path @ [ name ]) :: !obs
    | None -> ());
    (match arg with
    | None -> ()
    | Some (_, p) -> walk_pattern ~path:(path @ [ name ]) p ~obs ~wilds)
  | Ppat_tuple ps ->
    List.iteri
      (fun i p -> walk_pattern ~path:(path @ [ "#" ^ string_of_int i ]) p ~obs ~wilds)
      ps
  | Ppat_record (fields, _) ->
    List.iter
      (fun (lid, p) ->
        let f = last_part (lid_parts lid.Location.txt) in
        walk_pattern ~path:(path @ [ "." ^ f ]) p ~obs ~wilds)
      fields
  | Ppat_array ps -> List.iter (fun p -> walk_pattern ~path p ~obs ~wilds) ps
  | Ppat_lazy p -> walk_pattern ~path p ~obs ~wilds
  | Ppat_exception _ -> ()
  | _ -> ()

let rec is_prefix short long =
  match (short, long) with
  | [], _ -> true
  | s :: ss, l :: ls when String.equal s l -> is_prefix ss ls
  | _ -> false

let check_cases st (cases : case list) =
  let obs = ref [] and wilds = ref [] in
  List.iter (fun c -> walk_pattern ~path:[] c.pc_lhs ~obs ~wilds) cases;
  (* A var pattern is only a catch-all at the scrutinee root; deeper
     down it is an ordinary argument binder ([Err reason] forwards the
     reason, [Inconclusive why] binds a string). An [_] absorbs at its
     own path and below. *)
  let covering w (_, p) =
    if w.w_any then is_prefix w.w_path p else w.w_path = [] in
  let seen = ref [] in
  List.iter
    (fun w ->
      List.iter
        (fun ((fam, _) as o) ->
          if covering w o then begin
            let key = (fam.fam_rule.code, w.w_loc.loc_start.pos_cnum) in
            if not (List.mem key !seen) then begin
              seen := key :: !seen;
              report st fam.fam_rule w.w_loc
                (Printf.sprintf
                   "catch-all pattern can absorb a future %s variant; spell \
                    the arms out"
                   fam.fam_name)
            end
          end)
        !obs)
    (List.rev !wilds)

(* ------------------------------------------------------------------ *)
(* Iterator assembly                                                   *)
(* ------------------------------------------------------------------ *)

let is_sort_expr e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> is_sort_head (strip_stdlib (lid_parts txt))
  | Pexp_apply (f, _) -> (
    match f.pexp_desc with
    | Pexp_ident { txt; _ } -> is_sort_head (strip_stdlib (lid_parts txt))
    | _ -> false)
  | _ -> false

let check ~zone ~basename (str : structure) =
  let st = { zone; basename; found = []; absolved = Hashtbl.create 64 } in
  let expr (it : Ast_iterator.iterator) e =
    (match e.pexp_desc with
    | Pexp_apply (f, args) -> (
      match f.pexp_desc with
      | Pexp_ident { txt; _ } -> (
        let parts = strip_stdlib (lid_parts txt) in
        if is_sort_head parts then
          List.iter (fun (_, a) -> absolve_hashtbl_under st a) args;
        if is_membership_head parts then
          List.iter (fun (_, a) -> absolve_faults_under st a) args;
        (* pipelined sorts: [fold ... |> List.sort f] and
           [List.sort f @@ fold ...] are sorted all the same *)
        match (last_part parts, args) with
        | "|>", [ (_, lhs); (_, rhs) ] when is_sort_expr rhs ->
          absolve_hashtbl_under st lhs
        | "@@", [ (_, lhs); (_, rhs) ] when is_sort_expr lhs ->
          absolve_hashtbl_under st rhs
        | _ -> ())
      | _ -> ())
    | _ -> ());
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident st loc (lid_parts txt)
    | Pexp_construct ({ txt; loc }, _) -> check_construct st loc (lid_parts txt)
    | Pexp_match (_, cases) | Pexp_function cases -> check_cases st cases
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str;
  List.sort
    (fun a b ->
      let c = Int.compare a.line b.line in
      if c <> 0 then c
      else
        let c = Int.compare a.col b.col in
        if c <> 0 then c else String.compare a.rule.code b.rule.code)
    st.found
