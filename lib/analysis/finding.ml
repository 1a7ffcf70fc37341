type t = {
  rule : Rules.t;
  file : string;
  line : int;
  col : int;
  msg : string;
}

let pp ppf t =
  Fmt.pf ppf "%s:%d:%d: [%s %s] %s" t.file t.line t.col t.rule.Rules.code
    t.rule.Rules.slug t.msg

let to_json t =
  Printf.sprintf
    "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"slug\":\"%s\",\"group\":\"%s\",\"msg\":\"%s\"}"
    (Leopard_util.Json.escape t.file) t.line t.col t.rule.Rules.code
    (Leopard_util.Json.escape t.rule.Rules.slug)
    (Rules.group_to_string t.rule.Rules.group)
    (Leopard_util.Json.escape t.msg)
