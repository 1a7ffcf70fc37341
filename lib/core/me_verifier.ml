module Interval = Leopard_util.Interval
module Fields = Leopard_trace.Fields
module R = Fields.Cursor

type mode = S | X

type entry = {
  etxn : int;
  mode : mode;
  acquire_iv : Interval.t;
  mutable release_iv : Interval.t option;
}

type verdict = Violation | Ww of int * int | Unordered

let conflicting a b =
  match (a, b) with S, S -> false | S, X | X, S | X, X -> true

let judge ~mine ~other =
  match (mine.release_iv, other.release_iv) with
  | Some r_mine, Some r_other ->
    (* "mine before other" is feasible iff my release can precede the
       other's acquisition. *)
    let mine_first = Interval.possibly_before r_mine other.acquire_iv in
    let other_first = Interval.possibly_before r_other mine.acquire_iv in
    (match (mine_first, other_first) with
    | false, false -> Violation
    | true, false -> Ww (mine.etxn, other.etxn)
    | false, true -> Ww (other.etxn, mine.etxn)
    | true, true -> Unordered)
  | None, _ | _, None ->
    invalid_arg "Me_verifier.judge: both entries must be released"

type t = {
  rows : (int * int, entry list ref) Hashtbl.t;
  by_txn : (int, (int * int) list) Hashtbl.t;
  mutable live : int;
}

let create () = { rows = Hashtbl.create 1024; by_txn = Hashtbl.create 256; live = 0 }

let row_entries t row =
  match Hashtbl.find_opt t.rows row with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace t.rows row r;
    r

(* A transaction keeps at most one entry per mode on a row.  Crucially, an
   S-to-X upgrade adds a *separate* X entry dated at the upgrading
   operation: the exclusive hold only starts at the upgrade, and dating it
   back to the S acquisition would falsely conflict with concurrent S
   readers the engine legitimately admitted. *)
let acquire t ~row ~txn mode ~iv =
  let entries = row_entries t row in
  let has m = List.exists (fun e -> e.etxn = txn && e.mode = m) !entries in
  let covered = match mode with X -> has X | S -> has S || has X in
  if not covered then begin
    entries :=
      { etxn = txn; mode; acquire_iv = iv; release_iv = None } :: !entries;
    t.live <- t.live + 1;
    let rows = Option.value ~default:[] (Hashtbl.find_opt t.by_txn txn) in
    if not (List.mem row rows) then Hashtbl.replace t.by_txn txn (row :: rows)
  end

let release t ~txn ~iv ~on_pair =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> ()
  | Some rows ->
    Hashtbl.remove t.by_txn txn;
    List.iter
      (fun row ->
        match Hashtbl.find_opt t.rows row with
        | None -> ()
        | Some entries ->
          let mine_entries =
            List.filter (fun e -> e.etxn = txn && e.release_iv = None) !entries
          in
          List.iter
            (fun mine ->
              mine.release_iv <- Some iv;
              List.iter
                (fun other ->
                  if
                    other.etxn <> txn
                    && conflicting mine.mode other.mode
                    && other.release_iv <> None
                  then on_pair ~row ~mine ~other (judge ~mine ~other))
                !entries)
            mine_entries)
      rows

let discard t ~txn =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> ()
  | Some rows ->
    Hashtbl.remove t.by_txn txn;
    List.iter
      (fun row ->
        match Hashtbl.find_opt t.rows row with
        | None -> ()
        | Some entries ->
          let keep, drop =
            List.partition (fun e -> e.etxn <> txn) !entries
          in
          t.live <- t.live - List.length drop;
          entries := keep)
      rows

let live_entries t = t.live

(* Checkpoint codec.  Two kinds of line: [e] rows (one per lock entry,
   row-major sorted, entries in list order — [release] evaluates pairs in
   that order, so it pins bug-detection order) and [t] rows (one per
   transaction's by_txn binding, txn-sorted, row-list order preserved —
   [release] walks rows in that order). *)
let dump t =
  let entry_lines =
    Hashtbl.fold (fun row entries acc -> (row, !entries) :: acc) t.rows []
    |> List.sort (fun ((ta, ra), _) ((tb, rb), _) ->
           let c = Int.compare ta tb in
           if c <> 0 then c else Int.compare ra rb)
    |> List.concat_map (fun ((table, row), entries) ->
           List.map
             (fun e ->
               Fields.(
                 record "e"
                   [
                     int table; int row; int e.etxn;
                     name (match e.mode with S -> "S" | X -> "X");
                     iv e.acquire_iv; opt_iv e.release_iv;
                   ]))
             entries)
  in
  let txn_lines =
    Hashtbl.fold (fun txn rows acc -> (txn, rows) :: acc) t.by_txn []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (txn, rows) ->
           Fields.(
             record "t"
               [ int txn; entries (fun (tb, r) -> [ int tb; int r ]) rows ]))
  in
  entry_lines @ txn_lines

let load t r =
  match R.name r with
  | "e" ->
    let table = R.int r in
    let row = R.int r in
    let etxn = R.int r in
    let mode = match R.name r with "S" -> S | "X" -> X | _ -> R.fail r in
    let acquire_iv = R.iv r in
    let e = { etxn; mode; acquire_iv; release_iv = R.opt_iv r } in
    let entries = row_entries t (table, row) in
    entries := e :: !entries;
    t.live <- t.live + 1
  | "t" ->
    let txn = R.int r in
    Hashtbl.replace t.by_txn txn
      (R.entries r (fun r ->
           let table = R.int r in
           (table, R.int r)))
  | _ -> R.fail r

(* lint: allow hashtbl-order — each row is reversed in place *)
let seal t = Hashtbl.iter (fun _ entries -> entries := List.rev !entries) t.rows

let restore lines =
  let t = create () in
  List.iter (fun line -> R.read ~tag:"Me_verifier" line (load t)) lines;
  seal t;
  t

let prune t ~horizon =
  let dropped = ref 0 in
  (* lint: allow hashtbl-order — per-key in-place prune plus a
     commutative drop count; an emptied row leaves the table, which
     every reader treats as an empty row *)
  Hashtbl.filter_map_inplace
    (fun _row entries ->
      let keep, drop =
        List.partition
          (fun e ->
            match e.release_iv with
            | Some r -> Interval.aft r > horizon
            | None -> true)
          !entries
      in
      dropped := !dropped + List.length drop;
      entries := keep;
      match keep with [] -> None | _ :: _ -> Some entries)
    t.rows;
  t.live <- t.live - !dropped;
  !dropped
