module Checker = Leopard.Checker
module Pipeline = Leopard.Pipeline
module Ckpt = Leopard_trace.Ckpt
module Codec = Leopard_trace.Codec
module Fields = Leopard_trace.Fields
module Trace = Leopard_trace.Trace

(* Runs keep the tag of the first driver that checkpointed them, the
   online monitor, so their existing checkpoints still validate. *)
let fingerprint ~(il : Leopard.Il_profile.t) ~gc_every ~gc_watermark file =
  Ckpt.fingerprint
    ((if Option.is_some file then "check" else "online")
    :: il.name :: string_of_int gc_every :: string_of_int gc_watermark
    :: Option.to_list
         (Option.map (fun path -> Digest.to_hex (Digest.file path)) file))

type stream = { total : int; iter : (Trace.t -> unit) -> unit }
type source = Sorted of stream | Pipeline of Pipeline.t

let list_stream traces =
  { total = List.length traces; iter = (fun feed -> List.iter feed traces) }

exception Bad_line of string

let bad_line lineno e = raise (Bad_line (Printf.sprintf "line %d: %s" lineno e))

(* Pass 2 decodes what pass 1 only counted and feeds each trace at once;
   it keeps only the previous trace and its line. *)
let file_stream ~path =
  Result.map
    (fun (markers, total) ->
      let iter feed =
        ignore
          (Codec.fold ~path
             ~bad:bad_line
             (fun lineno entry prev ->
               match (entry, prev) with
               | Codec.Trace t, Some (p, p_line)
                 when Trace.compare_by_bef t p < 0 ->
                 bad_line lineno
                   (Printf.sprintf
                      "trace out of recorded order (it sorts before the \
                       trace on line %d); --lenient sorts the file in memory"
                      p_line)
               | Codec.Trace t, _ ->
                 feed t;
                 Some (t, lineno)
               | (Epoch _ | Ambiguous _ | Leader _ | Shard _ | Prepare _), _
                 ->
                 (* pass 1 read the markers *)
                 prev)
             None)
      in
      (markers, { total; iter }))
    (Codec.load_markers ~path)

type result = {
  report : Checker.report;
  resumed_at : int option;
  warnings : string list;
  pipeline_peak : int;
}

type t = {
  checker : Checker.t;
  every : int;  (** truncation cadence; 0 = never *)
  writer : Ckpt.writer option;
  cursor : bool;  (** frames carry the cursor (sorted sources) *)
  mutable applied : Marks.t;
  mutable fed : int;  (** traces consumed, a resumed prefix included *)
  mutable last_cut : int;  (** [Pipeline.dispatched] at the last live cut *)
  mutable late : int;  (** late drops already noted *)
}

let checkpoint_of ~gc_every ~gc_watermark ?file il = function
  | None -> None
  | Some path ->
    if gc_watermark <= 0 then
      invalid_arg "Session: a checkpoint needs a gc_watermark";
    Some (path, fingerprint ~il ~gc_every ~gc_watermark file)

(* The writer truncates the file, so it opens only after any resume
   load. *)
let make ?(fed = 0) ~cursor ~gc_watermark checker ckpt =
  {
    checker;
    every = max 0 gc_watermark;
    writer =
      Option.map (fun (path, fingerprint) -> Ckpt.writer ~path ~fingerprint) ckpt;
    cursor;
    applied = Marks.empty;
    fed;
    last_cut = 0;
    late = 0;
  }

let cut t ~watermark =
  Checker.truncate t.checker ~watermark;
  Option.iter
    (fun w ->
      let snapshot = Checker.encode t.checker in
      Ckpt.append w
        (if t.cursor then Fields.(record "cursor" [ int t.fed ]) :: snapshot
         else snapshot))
    t.writer

let feed t (trace : Trace.t) =
  Checker.feed t.checker trace;
  t.fed <- t.fed + 1;
  if t.every > 0 && t.fed mod t.every = 0 then cut t ~watermark:trace.ts_bef

let note_late t p =
  let late = Pipeline.late_dropped p in
  if late > t.late then begin
    Checker.note_late_dropped t.checker (late - t.late);
    t.late <- late
  end

let mark t m =
  Marks.apply t.checker (Marks.since m ~applied:t.applied);
  t.applied <- m

let finish t =
  Checker.finalize t.checker;
  Option.iter
    (fun w ->
      if not t.cursor then Ckpt.append w (Checker.encode t.checker);
      Ckpt.close w)
    t.writer;
  Checker.report t.checker

(* The newest frame that validates, as (checker, cursor); anything else
   is a warning and a fresh start. *)
let restore ~gc_every il (path, fingerprint) ~total =
  let frame = ref None in
  let warning =
    Ckpt.load ~path ~fingerprint (fun f ->
        frame := Some f;
        Ok ())
  in
  let frame = !frame and warnings = Option.to_list warning in
  let reject why =
    ( None,
      warnings
      @ [
          Printf.sprintf
            "checkpoint %s: %s; starting verification from scratch" path why;
        ] )
  in
  let cursor line =
    Fields.Cursor.read line (fun r ->
        if Fields.Cursor.tag r <> "cursor" then Fields.Cursor.fail r;
        Fields.Cursor.int r)
  in
  match frame with
  | None -> (None, warnings)
  | Some [] -> reject "malformed cursor line"
  | Some (line :: snapshot) -> (
    match cursor line with
    | exception Failure _ -> reject "malformed cursor line"
    | cursor when cursor < 0 || cursor > total ->
      reject (Printf.sprintf "cursor %d outside the %d-trace file" cursor total)
    | cursor -> (
      match Checker.decode ~gc_every il snapshot with
      | Ok checker -> (Some (checker, cursor), warnings)
      | Error msg -> reject (Printf.sprintf "snapshot rejected (%s)" msg)))

let verify ?(gc_every = 512) ?(gc_watermark = 0) ?checkpoint ?(resume = false)
    ?file ?(after_trace = ignore) il marks source =
  let ckpt = checkpoint_of ~gc_every ~gc_watermark ?file il checkpoint in
  let cursor = match source with Sorted _ -> true | Pipeline _ -> false in
  let restored, warnings =
    match (ckpt, source) with
    | Some c, Sorted s when resume -> restore ~gc_every il c ~total:s.total
    | Some _, Pipeline _ when resume ->
      invalid_arg "Session.verify: only a sorted source can resume"
    | _ -> (None, [])
  in
  let t =
    match restored with
    | Some (checker, fed) ->
      let t = make ~fed ~cursor ~gc_watermark checker ckpt in
      (* the snapshot already carries the marks *)
      t.applied <- marks;
      t
    | None ->
      let t = make ~cursor ~gc_watermark (Checker.create ~gc_every il) ckpt in
      mark t marks;
      t
  in
  let start = t.fed in
  let step trace =
    feed t trace;
    after_trace t.fed
  in
  let pipeline_peak =
    match source with
    | Sorted s ->
      (* a resume reads past the prefix its snapshot covers *)
      let skip = ref start in
      s.iter (fun trace -> if !skip > 0 then decr skip else step trace);
      0
    | Pipeline p ->
      ignore (Pipeline.drain p ~f:step);
      note_late t p;
      Pipeline.peak_memory p
  in
  {
    report = finish t;
    resumed_at = Option.map snd restored;
    warnings;
    pipeline_peak;
  }

let of_outcome ?gc_every ?gc_watermark ?checkpoint il (o : Run.outcome) =
  let streams = Array.map (List.sort Trace.compare_by_bef) o.Run.client_traces in
  verify ?gc_every ?gc_watermark ?checkpoint il (Marks.of_outcome o)
    (Pipeline (Pipeline.of_lists streams))

let create ?(gc_every = 512) ?(gc_watermark = 0) ?checkpoint il =
  make ~cursor:false ~gc_watermark
    (Checker.create ~gc_every il)
    (checkpoint_of ~gc_every ~gc_watermark il checkpoint)

let round t p =
  ignore (Pipeline.drain p ~f:(Checker.feed t.checker));
  note_late t p;
  let d = Pipeline.dispatched p in
  if t.every > 0 && d - t.last_cut >= t.every then begin
    t.last_cut <- d;
    let w = Pipeline.watermark p in
    (* max_int: every source is exhausted; finishing settles the rest *)
    if w < max_int then cut t ~watermark:w
  end
