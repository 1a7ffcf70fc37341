(* The normalized verification report: the fields a run must reproduce
   exactly, whether read from the CLI's output or from a Checker.report
   in process.  The CLI's "ms wall" is left out: it is CPU time and
   varies. *)

type t = (string * string) list

let verdict (r : Leopard.Checker.report) =
  if r.bugs_total > 0 then "FAIL"
  else
    match Leopard.Checker.verdict r with
    | Leopard.Checker.Inconclusive reason -> "INCONCLUSIVE: " ^ reason
    | Leopard.Checker.Verified | Leopard.Checker.Violation -> "PASS"

let of_checker (r : Leopard.Checker.report) : t =
  [
    ("verdict", verdict r);
    ("traces", string_of_int r.traces);
    ("committed", string_of_int r.committed);
    ("bugs", string_of_int r.bugs_total);
    ("peak_live", string_of_int r.peak_live);
    ("truncations", string_of_int r.truncations);
    ("truncated_deps", string_of_int r.truncated_deps);
  ]

let of_online (res : Leopard_harness.Online.result) =
  of_checker res.report @ [ ("max_lag", string_of_int res.max_lag) ]

(* The CLI's exit-code mapping: 0 verified, 1 violation, 3 inconclusive. *)
let exit_code (r : Leopard.Checker.report) =
  if r.bugs_total > 0 then 1
  else
    match Leopard.Checker.verdict r with
    | Leopard.Checker.Inconclusive _ -> 3
    | Leopard.Checker.Verified | Leopard.Checker.Violation -> 0

let after ~marker line =
  let m = String.length marker and n = String.length line in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = marker then
      Some (String.sub line (i + m) (n - i - m))
    else find (i + 1)
  in
  find 0

(* Parse the "checked", "truncate" and "verdict" lines of
   [leopard --check --gc-watermark N]. *)
let of_cli_output lines : (t, string) result =
  let line prefix = List.find_opt (String.starts_with ~prefix) lines in
  let scan prefix ~marker fmt k =
    match Option.bind (line prefix) (after ~marker) with
    | None -> Error (Printf.sprintf "no %S line" prefix)
    | Some rest -> (
      try Ok (Scanf.sscanf rest fmt k)
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        Error (Printf.sprintf "unparseable %S line" prefix))
  in
  let ( let* ) = Result.bind in
  let* traces, committed =
    scan "checked  :" ~marker:"\xe2\x80\x94 " "%d traces, %d committed txns"
      (fun t c -> (t, c))
  in
  let* cuts, folded, peak =
    scan "truncate :" ~marker:": "
      "%d cut(s), %d settled dep(s) folded into totals, peak %d live entries"
      (fun c f p -> (c, f, p))
  in
  let* verdict, bugs =
    match Option.bind (line "verdict  :") (after ~marker:": ") with
    | None -> Error "no verdict line"
    | Some v -> (
      let body = Option.value ~default:"" (after ~marker:"\xe2\x80\x94 " v) in
      if String.starts_with ~prefix:"PASS" v then Ok ("PASS", 0)
      else if String.starts_with ~prefix:"FAIL" v then
        match Scanf.sscanf_opt body "%d violations" Fun.id with
        | Some n -> Ok ("FAIL", n)
        | None -> Error "unparseable FAIL line"
      else if String.starts_with ~prefix:"INCONCLUSIVE" v then
        match after ~marker:"no violations proven, but " body with
        | Some reason -> Ok ("INCONCLUSIVE: " ^ reason, 0)
        | None -> Error "unparseable INCONCLUSIVE line"
      else Error "unknown verdict")
  in
  Ok
    [
      ("verdict", verdict);
      ("traces", string_of_int traces);
      ("committed", string_of_int committed);
      ("bugs", string_of_int bugs);
      ("peak_live", string_of_int peak);
      ("truncations", string_of_int cuts);
      ("truncated_deps", string_of_int folded);
    ]

let digest (t : t) =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) t)))

let int_field (t : t) key = Option.bind (List.assoc_opt key t) int_of_string_opt

(* Child processes print tagged, tab-separated lines; these two functions
   are the whole protocol. *)
let print ~tag (t : t) =
  List.iter (fun (k, v) -> Printf.printf "%s\t%s\t%s\n" tag k v) t

let parse ~tag lines : t =
  List.filter_map
    (fun l ->
      match String.split_on_char '\t' l with
      | [ t; k; v ] when String.equal t tag -> Some (k, v)
      | _ -> None)
    lines
