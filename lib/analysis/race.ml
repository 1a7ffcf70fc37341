(* P001/P002: domain-safety of spawn contexts.

   A {e spawn context} is a closure that will run on another domain:
   the argument of a [Domain.spawn], or a closure passed at a parameter
   the call graph proved spawned (e.g. [Pool.map]'s [f]).  For each
   context the rule walks its flattened writes and resolved calls:

   - an unguarded write whose target was captured from outside the
     closure is a race; it resolves either to a module-level global
     (P002 — cross-domain communication through a non-atomic global)
     or to a captured local / enclosing parameter (P001 — shared
     mutable state escaping into the spawn);
   - a resolved call whose callee transitively writes free state, or
     writes a parameter we're passing a captured target at, is the same
     race one or more hops away — reported at the call site with the
     function chain in the message.

   Writes through [Atomic.t] never appear (the summary's mutator table
   has no atomic operations) and [Mutex.protect]/[with_lock] bodies are
   collected as guarded, so the sanctioned patterns are quiet by
   construction. *)

type context = {
  cx_closure : Summary.closure;
  cx_desc : string;  (* "Domain.spawn at 12:4" / "spawned arg ~f of Pool.map" *)
}

let site_str (s : Summary.site) =
  Printf.sprintf "%d:%d" s.Summary.s_line s.Summary.s_col

(* A target is shared w.r.t. a context iff it was bound before the
   closure's first own binder (captured local or enclosing parameter)
   or is free (global / other module). *)
let captured (cl : Summary.closure) (tg : Summary.target) =
  match tg.Summary.t_binder with
  | None -> true
  | Some id -> id < cl.Summary.cl_first

let target_str (tg : Summary.target) =
  String.concat "." tg.Summary.t_path

let alloc_str (tg : Summary.target) =
  match tg.Summary.t_alloc with
  | Some (k, s) ->
    Printf.sprintf " (%s allocated at %s)" (Summary.alloc_kind_name k)
      (site_str s)
  | None -> ""

(* Enumerate the spawn contexts of one module. *)
let contexts graph (m : Summary.t) =
  let out = ref [] in
  List.iter
    (fun (f : Summary.fn) ->
      let body = f.Summary.fn_body in
      List.iter
        (fun (sp : Summary.spawn) ->
          match sp.Summary.sp_body with
          | Some (Summary.Av_closure cl) ->
            out :=
              {
                cx_closure = cl;
                cx_desc =
                  Printf.sprintf "%s at %s" sp.Summary.sp_head
                    (site_str sp.Summary.sp_site);
              }
              :: !out
          | _ -> ())
        body.Summary.cl_spawns;
      List.iter
        (fun (c : Summary.call) ->
          match Callgraph.resolve graph ~current:m c.Summary.c_head with
          | None -> ()
          | Some callee -> (
            match Callgraph.fn_effects graph callee with
            | None -> ()
            | Some fx ->
              List.iter
                (fun k ->
                  match
                    List.find_opt
                      (fun (k', _) -> Summary.arg_key_equal k k')
                      c.Summary.c_args
                  with
                  | Some (_, Summary.Av_closure cl) ->
                    out :=
                      {
                        cx_closure = cl;
                        cx_desc =
                          Printf.sprintf "spawned argument %s of %s at %s"
                            (Summary.arg_key_to_string k)
                            (Callgraph.key callee)
                            (site_str c.Summary.c_site);
                      }
                      :: !out
                  | _ -> ())
                fx.Callgraph.ef_spawned))
        body.Summary.cl_calls)
    m.Summary.m_fns;
  List.rev !out

let raw_of rule (s : Summary.site) msg =
  { Rules.rule; line = s.Summary.s_line; col = s.Summary.s_col; msg }

let classify_write graph ~current cx (w : Summary.write) ~via =
  let tg = w.Summary.w_target in
  let chain = match via with "" -> "" | v -> Printf.sprintf " via %s" v in
  match Callgraph.resolve_global graph ~current tg with
  | Some (owner, g) ->
    Some
      (raw_of Rules.p002 w.Summary.w_site
         (Printf.sprintf
            "%s write to non-atomic global %s.%s (%s declared at %s) from \
             closure spawned by %s%s; cross-domain state must be Atomic or \
             Mutex-guarded"
            w.Summary.w_op owner g.Summary.g_name
            (Summary.alloc_kind_name g.Summary.g_kind)
            (site_str g.Summary.g_site) cx.cx_desc chain))
  | None ->
    Some
      (raw_of Rules.p001 w.Summary.w_site
         (Printf.sprintf
            "unguarded %s to %s%s captured at %s by the closure spawned by \
             %s%s; guard the write with a Mutex or make the state Atomic"
            w.Summary.w_op (target_str tg) (alloc_str tg)
            (site_str cx.cx_closure.Summary.cl_site) cx.cx_desc chain))

let check graph (m : Summary.t) : Rules.raw list =
  let current = m in
  let basename = Filename.basename m.Summary.m_path in
  let raws = ref [] in
  let emit = function
    | Some (r : Rules.raw) ->
      if Rules.applies r.Rules.rule m.Summary.m_zone ~basename then
        raws := r :: !raws
    | None -> ()
  in
  List.iter
    (fun cx ->
      let cl = cx.cx_closure in
      (* direct writes of the spawned closure *)
      List.iter
        (fun (w : Summary.write) ->
          if (not w.Summary.w_guarded) && captured cl w.Summary.w_target
          then emit (classify_write graph ~current cx w ~via:""))
        cl.Summary.cl_writes;
      (* races one or more calls away *)
      List.iter
        (fun (c : Summary.call) ->
          match Callgraph.resolve graph ~current c.Summary.c_head with
          | None -> ()
          | Some callee -> (
            match Callgraph.fn_effects graph callee with
            | None -> ()
            | Some fx ->
              List.iter
                (fun (rw : Callgraph.reached_write) ->
                  let w = rw.Callgraph.rw_write in
                  let w = { w with Summary.w_site = c.Summary.c_site } in
                  emit
                    (classify_write graph ~current cx w
                       ~via:rw.Callgraph.rw_via))
                fx.Callgraph.ef_free;
              List.iter
                (fun (k, (rw : Callgraph.reached_write)) ->
                  match
                    List.find_opt
                      (fun (k', _) -> Summary.arg_key_equal k k')
                      c.Summary.c_args
                  with
                  | Some (_, Summary.Av_target tg) when captured cl tg ->
                    let w = rw.Callgraph.rw_write in
                    let w =
                      { w with Summary.w_site = c.Summary.c_site; w_target = tg }
                    in
                    emit
                      (classify_write graph ~current cx w
                         ~via:rw.Callgraph.rw_via)
                  | _ -> ())
                fx.Callgraph.ef_param))
        cl.Summary.cl_calls)
    (contexts graph m);
  (* dedup (flattening can surface the same write in nested contexts)
     and order by position *)
  let uniq =
    List.sort_uniq
      (fun (a : Rules.raw) (b : Rules.raw) ->
        let c = Int.compare a.Rules.line b.Rules.line in
        if c <> 0 then c
        else
          let c = Int.compare a.Rules.col b.Rules.col in
          if c <> 0 then c
          else String.compare a.Rules.rule.Rules.code b.Rules.rule.Rules.code)
      !raws
  in
  uniq
