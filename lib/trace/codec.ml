let header = "# leopard-trace v1"

let item_to_string (i : Trace.item) =
  Printf.sprintf "%d.%d.%d=%d" i.cell.Cell.table i.cell.Cell.row
    i.cell.Cell.col i.value

let items_to_string items = String.concat "," (List.map item_to_string items)

let to_line (t : Trace.t) =
  let head kind =
    Printf.sprintf "%s %d %d %d %d" kind t.ts_bef t.ts_aft t.txn t.client
  in
  match t.payload with
  | Trace.Read { items; locking } ->
    Printf.sprintf "%s %s%s" (head "R")
      (if locking then "! " else "")
      (items_to_string items)
  | Trace.Write items -> Printf.sprintf "%s %s" (head "W") (items_to_string items)
  | Trace.Commit -> head "C"
  | Trace.Abort -> head "A"

let parse_item s =
  match String.split_on_char '=' s with
  | [ addr; value ] -> (
    match String.split_on_char '.' addr with
    | [ table; row; col ] -> (
      try
        Ok
          {
            Trace.cell =
              Cell.make ~table:(int_of_string table) ~row:(int_of_string row)
                ~col:(int_of_string col);
            value = int_of_string value;
          }
      with Failure _ -> Error (Printf.sprintf "bad item %S" s))
    | _ -> Error (Printf.sprintf "bad cell address in %S" s))
  | _ -> Error (Printf.sprintf "bad item %S" s)

let parse_items s =
  let parts = String.split_on_char ',' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
      match parse_item p with
      | Ok item -> go (item :: acc) rest
      | Error e -> Error e)
  in
  go [] parts

type epoch_mark = { at : int; epoch : int; replayed : int; damaged : int }

let epoch_to_line m =
  Printf.sprintf "E %d %d %d %d" m.at m.epoch m.replayed m.damaged

type ambiguous_mark = { at : int; txn : int; client : int }

let ambiguous_to_line (m : ambiguous_mark) =
  Printf.sprintf "U %d %d %d" m.at m.txn m.client

type leader_mark = { at : int; epoch : int; primary : int; lost : int list }

let leader_to_line (m : leader_mark) =
  Printf.sprintf "L %d %d %d %s" m.at m.epoch m.primary
    (match m.lost with
    | [] -> "-"
    | ids -> String.concat "," (List.map string_of_int ids))

type shard_mark = { at : int; shards : int }

let shard_to_line (m : shard_mark) = Printf.sprintf "S %d %d" m.at m.shards

type disposition = Committed | Aborted | Unknown

let disposition_char = function
  | Committed -> 'c'
  | Aborted -> 'a'
  | Unknown -> '?'

let disposition_of_string = function
  | "c" -> Some Committed
  | "a" -> Some Aborted
  | "?" -> Some Unknown
  | _ -> None

type prepare_mark = {
  at : int;
  txn : int;
  shards : int list;
  disposition : disposition;
}

let prepare_to_line (m : prepare_mark) =
  Printf.sprintf "P %d %d %s %c" m.at m.txn
    (String.concat "," (List.map string_of_int m.shards))
    (disposition_char m.disposition)

type entry =
  | Trace of Trace.t
  | Epoch of epoch_mark
  | Ambiguous of ambiguous_mark
  | Leader of leader_mark
  | Shard of shard_mark
  | Prepare of prepare_mark

let entry_of_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else begin
    let fields =
      List.filter (fun s -> s <> "") (String.split_on_char ' ' line)
    in
    let make ~kind ~bef ~aft ~txn ~client rest =
      try
        let ts_bef = int_of_string bef
        and ts_aft = int_of_string aft
        and txn = int_of_string txn
        and client = int_of_string client in
        let payload =
          match (kind, rest) with
          | "C", [] -> Ok Trace.Commit
          | "A", [] -> Ok Trace.Abort
          | "W", [ items ] -> (
            match parse_items items with
            | Ok items -> Ok (Trace.Write items)
            | Error e -> Error e)
          | "R", [ items ] -> (
            match parse_items items with
            | Ok items -> Ok (Trace.Read { items; locking = false })
            | Error e -> Error e)
          | "R", [ "!"; items ] -> (
            match parse_items items with
            | Ok items -> Ok (Trace.Read { items; locking = true })
            | Error e -> Error e)
          | _ -> Error (Printf.sprintf "malformed %s line" kind)
        in
        match payload with
        | Ok payload ->
          let trace = { Trace.ts_bef; ts_aft; txn; client; payload } in
          (match Trace.well_formed trace with
          | Ok () -> Ok (Some (Trace trace))
          | Error e -> Error e)
        | Error e -> Error e
      with Failure _ -> Error "bad integer field"
    in
    match fields with
    | kind :: bef :: aft :: txn :: client :: rest
      when List.mem kind [ "R"; "W"; "C"; "A" ] ->
      make ~kind ~bef ~aft ~txn ~client rest
    | [ "E"; at; epoch; replayed; damaged ] -> (
      try
        let m =
          {
            at = int_of_string at;
            epoch = int_of_string epoch;
            replayed = int_of_string replayed;
            damaged = int_of_string damaged;
          }
        in
        if m.at < 0 || m.epoch < 1 || m.replayed < 0 || m.damaged < 0 then
          Error (Printf.sprintf "malformed epoch marker %S" line)
        else Ok (Some (Epoch m))
      with Failure _ -> Error "bad integer field")
    | [ "U"; at; txn; client ] -> (
      try
        let m =
          {
            at = int_of_string at;
            txn = int_of_string txn;
            client = int_of_string client;
          }
        in
        if m.at < 0 || m.txn < 0 || m.client < 0 then
          Error (Printf.sprintf "malformed ambiguous-commit marker %S" line)
        else Ok (Some (Ambiguous m))
      with Failure _ -> Error "bad integer field")
    | [ "L"; at; epoch; primary; lost ] -> (
      try
        let lost =
          if lost = "-" then []
          else List.map int_of_string (String.split_on_char ',' lost)
        in
        let m =
          {
            at = int_of_string at;
            epoch = int_of_string epoch;
            primary = int_of_string primary;
            lost;
          }
        in
        if
          m.at < 0 || m.epoch < 1 || m.primary < 0
          || List.exists (fun id -> id < 0) m.lost
        then Error (Printf.sprintf "malformed leader marker %S" line)
        else Ok (Some (Leader m))
      with Failure _ -> Error "bad integer field")
    | [ "S"; at; shards ] -> (
      try
        let m : shard_mark =
          { at = int_of_string at; shards = int_of_string shards }
        in
        if m.at < 0 || m.shards < 2 then
          Error (Printf.sprintf "malformed shard marker %S" line)
        else Ok (Some (Shard m))
      with Failure _ -> Error "bad integer field")
    | [ "P"; at; txn; shards; d ] -> (
      try
        match disposition_of_string d with
        | None -> Error (Printf.sprintf "malformed prepare marker %S" line)
        | Some disposition ->
          let m =
            {
              at = int_of_string at;
              txn = int_of_string txn;
              shards =
                List.map int_of_string (String.split_on_char ',' shards);
              disposition;
            }
          in
          if
            m.at < 0 || m.txn < 0 || m.shards = []
            || List.exists (fun s -> s < 0) m.shards
          then Error (Printf.sprintf "malformed prepare marker %S" line)
          else Ok (Some (Prepare m))
      with Failure _ -> Error "bad integer field")
    | _ -> Error (Printf.sprintf "unrecognised line %S" line)
  end

let of_line line =
  match entry_of_line line with
  | Ok (Some (Trace t)) -> Ok (Some t)
  | Ok (Some (Epoch _ | Ambiguous _ | Leader _ | Shard _ | Prepare _))
  | Ok None ->
    Ok None
  | Error e -> Error e

(* Epoch, ambiguous-commit, leader, shard and prepare markers are
   interleaved at their instants, so the file reads chronologically:
   every trace after an [E] line belongs to the post-restart epoch (by
   the engine's monotone clock, all its timestamps exceed [at]), a [U]
   line sits where the client gave up on the commit, an [L] line sits
   at the promotion — traces after it ran against the new primary's
   timeline — an [S] line (at instant 0) declares the shard topology
   the whole file spans, and a [P] line sits where its 2PC round was
   decided (or its coordinator died undecided). *)
let save_ext ~path ?(ambiguous = []) ?(leaders = []) ?(shards = [])
    ?(prepares = []) ~epochs traces =
  let marks =
    List.stable_sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.map (fun (m : shard_mark) -> (m.at, shard_to_line m)) shards
      @ List.map (fun (e : epoch_mark) -> (e.at, epoch_to_line e)) epochs
      @ List.map
          (fun (m : ambiguous_mark) -> (m.at, ambiguous_to_line m))
          ambiguous
      @ List.map (fun (m : leader_mark) -> (m.at, leader_to_line m)) leaders
      @ List.map (fun (m : prepare_mark) -> (m.at, prepare_to_line m)) prepares
      )
  in
  Out_channel.with_open_text path (fun oc ->
      let emit line =
        output_string oc line;
        output_char oc '\n'
      in
      let rec go marks traces =
        match (marks, traces) with
        | (at, line) :: ms, t :: _ when at <= t.Trace.ts_bef ->
          emit line;
          go ms traces
        | ms, t :: ts ->
          emit (to_line t);
          go ms ts
        | (_, line) :: ms, [] ->
          emit line;
          go ms []
        | [], [] -> ()
      in
      emit header;
      go marks traces)

type contents = {
  c_traces : Trace.t list;
  c_epochs : epoch_mark list;
  c_ambiguous : ambiguous_mark list;
  c_leaders : leader_mark list;
  c_shards : shard_mark list;
  c_prepares : prepare_mark list;
}

let empty_contents =
  {
    c_traces = [];
    c_epochs = [];
    c_ambiguous = [];
    c_leaders = [];
    c_shards = [];
    c_prepares = [];
  }

(* Markers are few, so one may copy the record; a trace goes on its own
   list and copies nothing. *)
let add_entry traces _lineno entry acc =
  match entry with
  | Trace t ->
    traces := t :: !traces;
    acc
  | Epoch m -> { acc with c_epochs = m :: acc.c_epochs }
  | Ambiguous m -> { acc with c_ambiguous = m :: acc.c_ambiguous }
  | Leader m -> { acc with c_leaders = m :: acc.c_leaders }
  | Shard m -> { acc with c_shards = m :: acc.c_shards }
  | Prepare m -> { acc with c_prepares = m :: acc.c_prepares }

let rev_contents acc =
  {
    c_traces = List.rev acc.c_traces;
    c_epochs = List.rev acc.c_epochs;
    c_ambiguous = List.rev acc.c_ambiguous;
    c_leaders = List.rev acc.c_leaders;
    c_shards = List.rev acc.c_shards;
    c_prepares = List.rev acc.c_prepares;
  }

(* Whether [entry_of_line] would decode [line] as a trace: its first
   field is R, W, C or A. *)
let is_trace_line line =
  let l = String.trim line in
  l <> ""
  && (match l.[0] with 'R' | 'W' | 'C' | 'A' -> true | _ -> false)
  && (String.length l = 1 || l.[1] = ' ')

(* The one line loop.  [f] sees each entry and [bad] each line that does
   not decode, both with its 1-based number: the strict readers raise out
   of the loop, the lenient one records the line and reads on.  With
   [trace_line], a trace line is recognised by its tag and not decoded:
   it only calls [trace_line]. *)
let lines ~path ?trace_line ~bad f init =
  In_channel.with_open_text path (fun ic ->
      let rec go acc lineno =
        match input_line ic with
        | exception End_of_file -> acc
        | line ->
          let acc =
            match trace_line with
            | Some count when is_trace_line line ->
              count ();
              acc
            | _ -> (
              match entry_of_line line with
              | Ok (Some entry) -> f lineno entry acc
              | Ok None -> acc
              | Error e ->
                bad lineno e;
                acc)
          in
          go acc (lineno + 1)
      in
      go init 1)

let fold ~path ~bad f init = lines ~path ~bad f init

let load ~path ?trace_line ~bad () =
  let traces = ref [] in
  let acc = lines ~path ?trace_line ~bad (add_entry traces) empty_contents in
  rev_contents { acc with c_traces = !traces }

exception Bad_line of string

let fail lineno e = raise (Bad_line (Printf.sprintf "line %d: %s" lineno e))

let load_all ~path =
  match load ~path ~bad:fail () with
  | contents -> Ok contents
  | exception Bad_line e -> Error e

let load_markers ~path =
  let traces = ref 0 in
  match
    load ~path ~trace_line:(fun () -> incr traces) ~bad:fail ()
  with
  | markers -> Ok (markers, !traces)
  | exception Bad_line e -> Error e

let load_lenient_all ~path =
  let skipped = ref [] in
  let contents =
    load ~path ~bad:(fun lineno e -> skipped := (lineno, e) :: !skipped) ()
  in
  (contents, List.rev !skipped)
