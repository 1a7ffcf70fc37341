type file_result = {
  path : string;
  zone : Zone.t;
  findings : Finding.t list;
  suppressed : int;
}

let parse_impl ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | str -> Ok str
  | exception exn ->
    let msg =
      match Location.error_of_exn exn with
      | Some (`Ok (e : Location.error)) ->
        Format.asprintf "%a" Location.print_report e
      | _ -> Printexc.to_string exn
    in
    Error (String.map (fun c -> if c = '\n' then ' ' else c) msg)

(* ------------------------------------------------------------------ *)
(* Suppression filtering + stale-allow (shared by both entry points)   *)
(* ------------------------------------------------------------------ *)

let sort_raws raws =
  List.sort
    (fun (a : Rules.raw) (b : Rules.raw) ->
      let c = Int.compare a.Rules.line b.Rules.line in
      if c <> 0 then c
      else
        let c = Int.compare a.Rules.col b.Rules.col in
        if c <> 0 then c else String.compare a.Rules.rule.Rules.code b.Rules.rule.Rules.code)
    raws

(* Filter [raws] through the file's suppressions, then turn every
   directive that suppressed nothing into an S001 raw and filter those
   the same way (suppressing S001 itself with its own slug works).
   Returns active findings in source order plus the suppressed
   count. *)
let filter_with_stale ~path ~zone ~basename source raws =
  let sup = Suppress.scan source in
  let to_finding (r : Rules.raw) =
    {
      Finding.rule = r.Rules.rule;
      file = path;
      line = r.Rules.line;
      col = r.Rules.col;
      msg = r.Rules.msg;
    }
  in
  let apply raws =
    List.fold_left
      (fun (act, n) (r : Rules.raw) ->
        if Suppress.allowed sup ~line:r.Rules.line ~slug:r.Rules.rule.Rules.slug
        then (act, n + 1)
        else (to_finding r :: act, n))
      ([], 0) raws
  in
  let active, suppressed = apply (sort_raws raws) in
  let stale_raws =
    if Rules.applies Rules.s001 zone ~basename then
      List.map
        (fun (line, slug) ->
          {
            Rules.rule = Rules.s001;
            line;
            col = 0;
            msg =
              Printf.sprintf
                "lint: allow %s suppresses nothing here; remove it or \
                 restore the justification it excused"
                slug;
          })
        (Suppress.stale sup)
    else []
  in
  let stale_active, stale_suppressed = apply stale_raws in
  ( List.rev (stale_active @ active) |> List.sort (fun a b ->
        let c = Int.compare a.Finding.line b.Finding.line in
        if c <> 0 then c
        else
          let c = Int.compare a.Finding.col b.Finding.col in
          if c <> 0 then c
          else String.compare a.Finding.rule.Rules.code b.Finding.rule.Rules.code),
    suppressed + stale_suppressed )

(* Single-source entry point: the whole pipeline on a one-module
   project, so fixture tests exercise the P rules through the same
   code path as a tree lint. *)
let lint_source ?zone ~path source =
  let zone =
    match zone with Some z -> z | None -> Zone.of_path path
  in
  match parse_impl ~path source with
  | Error e -> Error e
  | Ok str ->
    let basename = Filename.basename path in
    let syn = Rules.check ~zone ~basename str in
    let summ = Summary.extract ~path ~zone str in
    let graph = Callgraph.build [ summ ] in
    let inter = Race.check graph summ @ Taint.check summ in
    let findings, suppressed =
      filter_with_stale ~path ~zone ~basename source (syn @ inter)
    in
    Ok { path; zone; findings; suppressed }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ?zone path =
  match read_file path with
  | source -> lint_source ?zone ~path source
  | exception Sys_error e -> Error e

let skip_dirs = [ "_build"; ".git"; "lint_fixtures"; "node_modules" ]

let collect_ml_files roots =
  let out = ref [] in
  let rec walk path =
    if Sys.is_directory path then begin
      if not (List.mem (Filename.basename path) skip_dirs) then
        Sys.readdir path |> Array.to_list
        |> List.sort String.compare
        |> List.iter (fun entry -> walk (Filename.concat path entry))
    end
    else if Filename.check_suffix path ".ml" then out := path :: !out
  in
  List.iter
    (fun root -> if Sys.file_exists root then walk root)
    roots;
  List.sort String.compare !out

(* ------------------------------------------------------------------ *)
(* Summary cache                                                       *)
(* ------------------------------------------------------------------ *)

(* One Marshal'd file for the whole tree: per-path entries keyed by a
   digest of (source, zone).  A version/compiler header guards against
   reading a cache written by different code; any failure to load is a
   cold start, never an error. *)

let cache_magic = "LEOPARD-LINT-CACHE"
let cache_version = 2

type cache_entry = {
  ce_digest : string;
  ce_syn : Rules.raw list;
  ce_summary : Summary.t;
  ce_inter : Rules.raw list option;
      (* None: summary cached but interprocedural raws not yet computed *)
}

let digest_of ~zone source =
  Digest.to_hex (Digest.string (Zone.to_string zone ^ "\x00" ^ source))

let cache_header =
  Printf.sprintf "%s %d %s\n" cache_magic cache_version Sys.ocaml_version

(* The plain-text header is checked before [Marshal.from_string] ever
   runs, so a cache written by a different compiler or cache version is
   discarded without unmarshaling bytes whose layout we cannot trust. *)
let load_cache = function
  | None -> []
  | Some file -> (
    match read_file file with
    | exception Sys_error _ -> []
    | raw ->
      let hn = String.length cache_header in
      if
        String.length raw > hn
        && String.equal (String.sub raw 0 hn) cache_header
      then
        match
          (Marshal.from_string raw hn : (string * cache_entry) list)
        with
        | entries -> entries
        | exception _ -> []
      else [])

let save_cache file entries =
  let payload = Marshal.to_string (entries : (string * cache_entry) list) [] in
  let tmp = file ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc cache_header;
      output_string oc payload);
  Sys.rename tmp file

(* ------------------------------------------------------------------ *)
(* Tree lint                                                           *)
(* ------------------------------------------------------------------ *)

type stage_timings = {
  t_parse : float;  (* read + parse *)
  t_syntactic : float;  (* D/F/E rule pass *)
  t_extract : float;  (* summary extraction *)
  t_graph : float;  (* call graph + fixpoints *)
  t_race : float;  (* P001/P002 *)
  t_taint : float;  (* P003 *)
  t_stale : float;  (* suppression filtering + S001 *)
}

type summary = {
  files : int;
  active : int;
  suppressed_total : int;
  results : file_result list;
  errors : (string * string) list;
  reanalyzed : string list;
  cached : string list;
  timings : stage_timings;
}

(* Per-file working state between the phases. *)
type slot = {
  sl_path : string;
  sl_zone : Zone.t;
  sl_source : string;
  sl_digest : string;
  sl_syn : Rules.raw list;
  sl_summary : Summary.t;
  sl_changed : bool;  (* source/zone digest differs from the cache *)
  sl_cached_inter : Rules.raw list option;
}

let lint_paths ?zone ?cache_file ?(clock = fun () -> 0.) roots =
  let files = collect_ml_files roots in
  let old_cache = load_cache cache_file in
  let tp = ref 0. and ts = ref 0. and tx = ref 0. in
  let timed acc f =
    let t0 = clock () in
    let r = f () in
    acc := !acc +. (clock () -. t0);
    r
  in
  (* phase 1: parse + syntactic rules + summaries, honoring the cache *)
  let slots, errors =
    List.fold_left
      (fun (slots, errors) path ->
        match timed tp (fun () -> read_file path) with
        | exception Sys_error e -> (slots, (path, e) :: errors)
        | source -> (
          let z =
            match zone with Some z -> z | None -> Zone.of_path path
          in
          let digest = digest_of ~zone:z source in
          match List.assoc_opt path old_cache with
          | Some ce when String.equal ce.ce_digest digest ->
            ( {
                sl_path = path;
                sl_zone = z;
                sl_source = source;
                sl_digest = digest;
                sl_syn = ce.ce_syn;
                sl_summary = ce.ce_summary;
                sl_changed = false;
                sl_cached_inter = ce.ce_inter;
              }
              :: slots,
              errors )
          | _ -> (
            match timed tp (fun () -> parse_impl ~path source) with
            | Error e -> (slots, (path, e) :: errors)
            | Ok str ->
              let basename = Filename.basename path in
              let syn =
                timed ts (fun () -> Rules.check ~zone:z ~basename str)
              in
              let summ =
                timed tx (fun () -> Summary.extract ~path ~zone:z str)
              in
              ( {
                  sl_path = path;
                  sl_zone = z;
                  sl_source = source;
                  sl_digest = digest;
                  sl_syn = syn;
                  sl_summary = summ;
                  sl_changed = true;
                  sl_cached_inter = None;
                }
                :: slots,
                errors ))))
      ([], []) files
  in
  let slots = List.rev slots and errors = List.rev errors in
  (* phase 2: call graph over every summary, then interprocedural
     raws for changed modules, their reverse dependencies, and any
     module the cache has no interprocedural raws for *)
  let t0 = clock () in
  let graph = Callgraph.build (List.map (fun s -> s.sl_summary) slots) in
  let t_graph = clock () -. t0 in
  let changed_mods =
    List.filter_map
      (fun s -> if s.sl_changed then Some s.sl_summary.Summary.m_name else None)
      slots
  in
  let dirty = Callgraph.reverse_closure graph changed_mods in
  let needs_inter s =
    s.sl_changed
    || s.sl_cached_inter = None
    || List.mem s.sl_summary.Summary.m_name dirty
  in
  let tr = ref 0. and tt = ref 0. in
  let with_inter =
    List.map
      (fun s ->
        if needs_inter s then
          let race = timed tr (fun () -> Race.check graph s.sl_summary) in
          let taint = timed tt (fun () -> Taint.check s.sl_summary) in
          (s, race @ taint, true)
        else
          (s, Option.value s.sl_cached_inter ~default:[], false))
      slots
  in
  (* phase 3: suppression filtering + S001, always fresh (cheap, needs
     only the source text) *)
  let t0 = clock () in
  let results =
    List.map
      (fun (s, inter, _) ->
        let findings, suppressed =
          filter_with_stale ~path:s.sl_path ~zone:s.sl_zone
            ~basename:(Filename.basename s.sl_path)
            s.sl_source (s.sl_syn @ inter)
        in
        { path = s.sl_path; zone = s.sl_zone; findings; suppressed })
      with_inter
  in
  let t_stale = clock () -. t0 in
  (match cache_file with
  | None -> ()
  | Some file ->
    let entries =
      List.map
        (fun (s, inter, _) ->
          ( s.sl_path,
            {
              ce_digest = s.sl_digest;
              ce_syn = s.sl_syn;
              ce_summary = s.sl_summary;
              ce_inter = Some inter;
            } ))
        with_inter
    in
    (try save_cache file entries with Sys_error _ -> ()));
  let interesting =
    List.filter (fun r -> r.findings <> [] || r.suppressed > 0) results
  in
  let mods_where pred =
    List.filter_map
      (fun (s, _, fresh) ->
        if pred fresh then Some s.sl_summary.Summary.m_name else None)
      with_inter
    |> List.sort_uniq String.compare
  in
  {
    files = List.length files;
    active =
      List.fold_left (fun n r -> n + List.length r.findings) 0 results;
    suppressed_total =
      List.fold_left (fun n r -> n + r.suppressed) 0 results;
    results = interesting;
    errors;
    reanalyzed = mods_where (fun fresh -> fresh);
    cached = mods_where (fun fresh -> not fresh);
    timings =
      {
        t_parse = !tp;
        t_syntactic = !ts;
        t_extract = !tx;
        t_graph;
        t_race = !tr;
        t_taint = !tt;
        t_stale;
      };
  }

let pp_summary ppf s =
  List.iter
    (fun r ->
      List.iter (fun f -> Fmt.pf ppf "%a@." Finding.pp f) r.findings)
    s.results;
  List.iter
    (fun (path, e) -> Fmt.pf ppf "%s: parse error: %s@." path e)
    s.errors;
  Fmt.pf ppf "%d file%s checked, %d finding%s, %d suppressed%s@."
    s.files
    (if s.files = 1 then "" else "s")
    s.active
    (if s.active = 1 then "" else "s")
    s.suppressed_total
    (if s.errors = [] then ""
     else Printf.sprintf ", %d parse error(s)" (List.length s.errors))

let json_string_list lst =
  "["
  ^ String.concat ","
      (List.map (fun m -> "\"" ^ Leopard_util.Json.escape m ^ "\"") lst)
  ^ "]"

let json_summary s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"findings\":[";
  let first = ref true in
  List.iter
    (fun r ->
      List.iter
        (fun f ->
          if not !first then Buffer.add_char buf ',';
          first := false;
          Buffer.add_string buf (Finding.to_json f))
        r.findings)
    s.results;
  Buffer.add_string buf "],\"errors\":[";
  let first = ref true in
  List.iter
    (fun (path, e) ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_string buf
        (Printf.sprintf "{\"file\":\"%s\",\"msg\":\"%s\"}"
           (Leopard_util.Json.escape path) (Leopard_util.Json.escape e)))
    s.errors;
  Buffer.add_string buf
    (Printf.sprintf
       "],\"files\":%d,\"active\":%d,\"suppressed\":%d,\"reanalyzed\":%s,\"cached\":%s,\"timings\":{\"parse\":%.6f,\"syntactic\":%.6f,\"extract\":%.6f,\"graph\":%.6f,\"race\":%.6f,\"taint\":%.6f,\"stale\":%.6f}}"
       s.files s.active s.suppressed_total
       (json_string_list s.reanalyzed)
       (json_string_list s.cached)
       s.timings.t_parse s.timings.t_syntactic s.timings.t_extract
       s.timings.t_graph s.timings.t_race s.timings.t_taint
       s.timings.t_stale);
  Buffer.contents buf
