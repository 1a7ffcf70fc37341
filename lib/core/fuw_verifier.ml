module Interval = Leopard_util.Interval
module Fields = Leopard_trace.Fields
module R = Fields.Cursor

type entry = {
  ftxn : int;
  snapshot_iv : Interval.t;
  commit_iv : Interval.t;
}

type verdict = Violation | Ww of int * int | Unordered

let judge ~a ~b =
  let a_first = Interval.possibly_before a.commit_iv b.snapshot_iv in
  let b_first = Interval.possibly_before b.commit_iv a.snapshot_iv in
  match (a_first, b_first) with
  | false, false -> Violation
  | true, false -> Ww (a.ftxn, b.ftxn)
  | false, true -> Ww (b.ftxn, a.ftxn)
  | true, true -> Unordered

type t = {
  rows : (int * int, entry list ref) Hashtbl.t;
  mutable live : int;
}

let create () = { rows = Hashtbl.create 1024; live = 0 }

let row_entries t row =
  match Hashtbl.find_opt t.rows row with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace t.rows row r;
    r

let register t ~row entry ~on_pair =
  let entries = row_entries t row in
  List.iter
    (fun other ->
      if other.ftxn <> entry.ftxn then
        on_pair ~row ~other (judge ~a:other ~b:entry))
    !entries;
  entries := entry :: !entries;
  t.live <- t.live + 1

let live_entries t = t.live

(* Checkpoint codec: one line per entry, row-major sorted, entries in
   list order ([register] evaluates a newcomer against the list in that
   order, pinning pair-evaluation order). *)
let dump t =
  Hashtbl.fold (fun row entries acc -> (row, !entries) :: acc) t.rows []
  |> List.sort (fun ((ta, ra), _) ((tb, rb), _) ->
         let c = Int.compare ta tb in
         if c <> 0 then c else Int.compare ra rb)
  |> List.concat_map (fun ((table, row), entries) ->
         List.map
           (fun e ->
             Fields.(
               line
                 [
                   int table; int row; int e.ftxn; iv e.snapshot_iv;
                   iv e.commit_iv;
                 ]))
           entries)

let load t r =
  let table = R.int r in
  let row = R.int r in
  let ftxn = R.int r in
  let snapshot_iv = R.iv r in
  let e = { ftxn; snapshot_iv; commit_iv = R.iv r } in
  let entries = row_entries t (table, row) in
  entries := e :: !entries;
  t.live <- t.live + 1

(* lint: allow hashtbl-order — each row is reversed in place *)
let seal t = Hashtbl.iter (fun _ entries -> entries := List.rev !entries) t.rows

let restore lines =
  let t = create () in
  List.iter (fun line -> R.read ~tag:"Fuw_verifier" line (load t)) lines;
  seal t;
  t

let prune t ~horizon =
  let dropped = ref 0 in
  (* lint: allow hashtbl-order — per-key in-place prune plus a
     commutative drop count; an emptied row leaves the table, which
     [register] treats as an empty row *)
  Hashtbl.filter_map_inplace
    (fun _row entries ->
      let keep, drop =
        List.partition
          (fun e -> Interval.aft e.commit_iv > horizon)
          !entries
      in
      dropped := !dropped + List.length drop;
      entries := keep;
      match keep with [] -> None | _ :: _ -> Some entries)
    t.rows;
  t.live <- t.live - !dropped;
  !dropped
