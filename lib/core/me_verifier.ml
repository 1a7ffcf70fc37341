module Interval = Leopard_util.Interval

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

let referenced_txns t =
  let from_rows =
    Hashtbl.fold
      (fun _ entries acc ->
        List.fold_left (fun acc e -> e.etxn :: acc) acc !entries)
      t.rows []
    |> List.sort_uniq Int.compare
  in
  Hashtbl.fold (fun txn _ acc -> txn :: acc) t.by_txn from_rows
  |> List.sort_uniq Int.compare

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
               let rb, ra =
                 match e.release_iv with
                 | Some r ->
                   (string_of_int (Interval.bef r), string_of_int (Interval.aft r))
                 | None -> ("-", "-")
               in
               Printf.sprintf "e\t%d\t%d\t%d\t%s\t%d\t%d\t%s\t%s" table row
                 e.etxn
                 (match e.mode with S -> "S" | X -> "X")
                 (Interval.bef e.acquire_iv) (Interval.aft e.acquire_iv) rb ra)
             entries)
  in
  let txn_lines =
    Hashtbl.fold (fun txn rows acc -> (txn, rows) :: acc) t.by_txn []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (txn, rows) ->
           Printf.sprintf "t\t%d\t%s" txn
             (String.concat ";"
                (List.map (fun (tb, r) -> Printf.sprintf "%d,%d" tb r) rows)))
  in
  entry_lines @ txn_lines

let restore lines =
  let t = create () in
  let tails = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ "e"; table; row; etxn; mode; ab; aa; rb; ra ] ->
        let row = (int_of_string table, int_of_string row) in
        let release_iv =
          match (rb, ra) with
          | "-", "-" -> None
          | rb, ra ->
            Some (Interval.make ~bef:(int_of_string rb) ~aft:(int_of_string ra))
        in
        let e =
          {
            etxn = int_of_string etxn;
            mode =
              (match mode with
              | "S" -> S
              | "X" -> X
              | _ -> failwith "Me_verifier.restore: bad mode");
            acquire_iv =
              Interval.make ~bef:(int_of_string ab) ~aft:(int_of_string aa);
            release_iv;
          }
        in
        let r =
          match Hashtbl.find_opt tails row with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.replace tails row r;
            r
        in
        r := e :: !r;
        t.live <- t.live + 1
      | [ "t"; txn; rows ] ->
        let rows =
          if rows = "" then []
          else
            List.map
              (fun pair ->
                match String.split_on_char ',' pair with
                | [ tb; r ] -> (int_of_string tb, int_of_string r)
                | _ -> failwith "Me_verifier.restore: bad row pair")
              (String.split_on_char ';' rows)
        in
        Hashtbl.replace t.by_txn (int_of_string txn) rows
      | _ -> failwith "Me_verifier.restore: malformed line")
    lines;
  (* lint: allow hashtbl-order — each binding becomes its own row list;
     the rows table is only consulted per key *)
  Hashtbl.iter
    (fun row r -> Hashtbl.replace t.rows row (ref (List.rev !r)))
    tails;
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
