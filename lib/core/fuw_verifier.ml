module Interval = Leopard_util.Interval

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

let register t ~row entry ~on_pair =
  let entries =
    match Hashtbl.find_opt t.rows row with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace t.rows row r;
      r
  in
  List.iter
    (fun other ->
      if other.ftxn <> entry.ftxn then
        on_pair ~row ~other (judge ~a:other ~b:entry))
    !entries;
  entries := entry :: !entries;
  t.live <- t.live + 1

let live_entries t = t.live

let referenced_txns t =
  Hashtbl.fold
    (fun _ entries acc ->
      List.fold_left (fun acc e -> e.ftxn :: acc) acc !entries)
    t.rows []
  |> List.sort_uniq Int.compare

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
             Printf.sprintf "%d\t%d\t%d\t%d\t%d\t%d\t%d" table row e.ftxn
               (Interval.bef e.snapshot_iv) (Interval.aft e.snapshot_iv)
               (Interval.bef e.commit_iv) (Interval.aft e.commit_iv))
           entries)

let restore lines =
  let t = create () in
  let tails = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ table; row; ftxn; sb; sa; cb; ca ] ->
        let row = (int_of_string table, int_of_string row) in
        let e =
          {
            ftxn = int_of_string ftxn;
            snapshot_iv =
              Interval.make ~bef:(int_of_string sb) ~aft:(int_of_string sa);
            commit_iv =
              Interval.make ~bef:(int_of_string cb) ~aft:(int_of_string ca);
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
      | _ -> failwith "Fuw_verifier.restore: malformed line")
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
