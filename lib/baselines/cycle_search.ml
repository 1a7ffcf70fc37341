module Trace = Leopard_trace.Trace

type t = {
  checker : Leopard.Checker.t;
  adj : (int, int list ref) Hashtbl.t;
  search_every : int;
  mutable edge_count : int;
  mutable commits_seen : int;
  mutable cycles : int;
}

let create ?(search_every = 1) profile =
  (* The inner checker only supplies deductions; its own certifier is
     disabled so SC work is not double-counted. *)
  let profile = { profile with Leopard.Il_profile.check_sc = None } in
  let checker = Leopard.Checker.create ~gc_every:0 profile in
  let t =
    {
      checker;
      adj = Hashtbl.create 4096;
      search_every = max 1 search_every;
      edge_count = 0;
      commits_seen = 0;
      cycles = 0;
    }
  in
  Leopard.Checker.set_dep_hook checker (fun (d : Leopard.Dep.t) ->
      let out =
        match Hashtbl.find_opt t.adj d.from_txn with
        | Some r -> r
        | None ->
          let r = ref [] in
          Hashtbl.replace t.adj d.from_txn r;
          r
      in
      if not (List.mem d.to_txn !out) then begin
        out := d.to_txn :: !out;
        t.edge_count <- t.edge_count + 1
      end);
  t

(* Full DFS 3-colour cycle search over the whole accumulated graph. *)
let full_search t =
  let color = Hashtbl.create (Hashtbl.length t.adj) in
  let found = ref false in
  let rec dfs node =
    match Hashtbl.find_opt color node with
    | Some `Grey -> found := true
    | Some `Black -> ()
    | None ->
      Hashtbl.replace color node `Grey;
      (match Hashtbl.find_opt t.adj node with
      | Some out -> List.iter dfs !out
      | None -> ());
      Hashtbl.replace color node `Black
  in
  Hashtbl.iter (fun node _ -> if not !found then dfs node) t.adj;
  if !found then t.cycles <- t.cycles + 1

let feed t trace =
  Leopard.Checker.feed t.checker trace;
  match trace.Trace.payload with
  | Trace.Commit ->
    t.commits_seen <- t.commits_seen + 1;
    if t.commits_seen mod t.search_every = 0 then full_search t
  | Trace.Read _ | Trace.Write _ | Trace.Abort -> ()

let finalize t =
  Leopard.Checker.finalize t.checker;
  full_search t

let cycles_found t = t.cycles
let nodes t = Hashtbl.length t.adj
let edges t = t.edge_count
let live_size t = Hashtbl.length t.adj + t.edge_count

