(* SARIF 2.1.0 emitter.

   One run, one driver ("leopard-lint"), the full rule catalogue under
   [tool.driver.rules] (so viewers can show rationale for rules with no
   results this run), one [result] per active finding with a 1-based
   line/column region.  Parse failures surface as tool configuration
   notifications rather than results, mirroring the JSON report's
   separate [errors] array. *)

let esc = Leopard_util.Json.escape

let rule_index =
  (* index of a rule code within Rules.all, for [ruleIndex] *)
  let indexed = List.mapi (fun i (r : Rules.t) -> (r.Rules.code, i)) Rules.all in
  fun code ->
    match List.assoc_opt code indexed with Some i -> i | None -> 0

let add_rule buf first (r : Rules.t) =
  if not !first then Buffer.add_char buf ',';
  first := false;
  Buffer.add_string buf
    (Printf.sprintf
       "{\"id\":\"%s\",\"name\":\"%s\",\"shortDescription\":{\"text\":\"%s\"},\"fullDescription\":{\"text\":\"%s\"},\"defaultConfiguration\":{\"level\":\"error\"},\"properties\":{\"group\":\"%s\"}}"
       (esc r.Rules.code) (esc r.Rules.slug) (esc r.Rules.summary)
       (esc r.Rules.rationale)
       (esc (Rules.group_to_string r.Rules.group)))

let add_result buf first (f : Finding.t) =
  if not !first then Buffer.add_char buf ',';
  first := false;
  Buffer.add_string buf
    (Printf.sprintf
       "{\"ruleId\":\"%s\",\"ruleIndex\":%d,\"level\":\"error\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}"
       (esc f.Finding.rule.Rules.code)
       (rule_index f.Finding.rule.Rules.code)
       (esc f.Finding.msg) (esc f.Finding.file) f.Finding.line
       (f.Finding.col + 1))

let add_notification buf first (path, msg) =
  if not !first then Buffer.add_char buf ',';
  first := false;
  Buffer.add_string buf
    (Printf.sprintf
       "{\"level\":\"error\",\"message\":{\"text\":\"parse error: %s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"}}}]}"
       (esc msg) (esc path))

let emit (s : Driver.summary) =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"leopard-lint\",\"informationUri\":\"https://example.invalid/leopard-lint\",\"version\":\"2.0.0\",\"rules\":[";
  let first = ref true in
  List.iter (add_rule buf first) Rules.all;
  Buffer.add_string buf "]}},\"results\":[";
  let first = ref true in
  List.iter
    (fun (r : Driver.file_result) ->
      List.iter (add_result buf first) r.Driver.findings)
    s.Driver.results;
  Buffer.add_string buf "]";
  if s.Driver.errors <> [] then begin
    Buffer.add_string buf
      ",\"invocations\":[{\"executionSuccessful\":false,\"toolConfigurationNotifications\":[";
    let first = ref true in
    List.iter (add_notification buf first) s.Driver.errors;
    Buffer.add_string buf "]}]"
  end
  else
    Buffer.add_string buf
      ",\"invocations\":[{\"executionSuccessful\":true}]";
  Buffer.add_string buf "}]}";
  Buffer.contents buf
