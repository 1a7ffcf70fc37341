(* Cross-module call graph over per-module summaries, plus the two
   interprocedural fixpoints the P rules need:

   - {e effects}: for every top-level function, the unguarded writes it
     performs transitively — split into writes to free/global state and
     writes to its own parameters (keyed by argument position so a call
     site can map them back onto the actual argument);
   - {e spawned parameters}: the parameters whose value ends up as the
     body of a [Domain.spawn] — directly, through a worker closure that
     calls the parameter, or through a call that forwards the parameter
     into another function's spawned position.  A closure passed at a
     spawned parameter runs on another domain, so [Pool.map]'s [f] is a
     spawn context even though no caller ever writes [Domain.spawn].

   Resolution is purely syntactic: a call head resolves into the
   project iff one of its path components names a known module (a
   capitalized source basename) that defines the final component as a
   top-level function.  Each file is its own node, so two files with
   the same basename never share a function: an unqualified head
   resolves in its own file, and a module name that several files
   define resolves to the one in the caller's directory, or to nothing.
   Unresolvable heads (stdlib, functor-generated, dynamic) contribute
   no edges — the analysis under-approximates through them and the
   rules say so in their rationale. *)

(* [f_path] is the defining file; [f_module] only names it in messages. *)
type fn_id = { f_path : string; f_module : string; f_fn : string }

(* One transitively-reached unguarded write: the syntactic write, the
   function chain that reaches it ("Pool.map -> Obs.bump"), and the
   owning global when the target resolves to one. *)
type reached_write = {
  rw_write : Summary.write;
  rw_via : string;
  rw_global : (string * Summary.global) option;
}

type effects = {
  mutable ef_free : reached_write list;
  mutable ef_param : (Summary.arg_key * reached_write) list;
  mutable ef_spawned : Summary.arg_key list;
}

type t = {
  files : (string, string list) Hashtbl.t;  (* module name -> paths *)
  global_index : (string, Summary.global) Hashtbl.t;  (* path, global *)
  fx : (string, effects) Hashtbl.t;  (* path, fn -> effects *)
}

let key id = id.f_module ^ "." ^ id.f_fn

let fn_id (s : Summary.t) (f : Summary.fn) =
  {
    f_path = s.Summary.m_path;
    f_module = s.Summary.m_name;
    f_fn = f.Summary.fn_name;
  }

(* Table key of a name defined in the file at [path]. *)
let slot path name = path ^ "\x00" ^ name

let fn_effects t id = Hashtbl.find_opt t.fx (slot id.f_path id.f_fn)

(* The file module [m] names from [current]: the only file defining it,
   or else the one in [current]'s directory. *)
let file_of t ~(current : Summary.t) m =
  match Hashtbl.find_opt t.files m with
  | Some [ path ] -> Some path
  | Some paths ->
    let dir = Filename.dirname current.Summary.m_path in
    List.find_opt (fun p -> String.equal (Filename.dirname p) dir) paths
  | None -> None

(* Resolve [name], qualified by [mods], from [current] through [find]:
   unqualified names resolve in the current file; qualified paths scan
   right-to-left for a component naming a file that defines [name] (so
   [Leopard_campaign.Pool.map] resolves through [Pool] even though the
   wrapping library module is not a source file). *)
let resolve_in t ~(current : Summary.t) ~find mods name =
  match mods with
  | [] -> find current.Summary.m_name current.Summary.m_path name
  | _ ->
    List.find_map
      (fun m ->
        Option.bind (file_of t ~current m) (fun path -> find m path name))
      (List.rev mods)

let split_last parts =
  match List.rev parts with
  | name :: rev_mods -> Some (List.rev rev_mods, name)
  | [] -> None

(* Resolve a call head in the context of the [current] file. *)
let resolve t ~current (h : Summary.head) =
  let find m path fn =
    if Hashtbl.mem t.fx (slot path fn) then
      Some { f_path = path; f_module = m; f_fn = fn }
    else None
  in
  match h with
  | Summary.Hparam _ | Summary.Hdyn -> None
  | Summary.Hpath parts ->
    Option.bind (split_last parts) (fun (mods, fn) ->
        resolve_in t ~current ~find mods fn)

(* Resolve a write target to its owning module-level global, if any.
   Unqualified names qualify when they are free (no binder) or when the
   summary marked them module-level ([t_global]). *)
let resolve_global t ~current (tg : Summary.target) =
  let find m path name =
    Option.map
      (fun g -> (m, g))
      (Hashtbl.find_opt t.global_index (slot path name))
  in
  match split_last tg.Summary.t_path with
  | Some ([], _) when not (tg.Summary.t_binder = None || tg.Summary.t_global)
    ->
    None
  | Some (mods, name) -> resolve_in t ~current ~find mods name
  | None -> None

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let shared_free (tg : Summary.target) =
  (* Inside a top-level function body, a target without a binder is
     free: a module global, an [open]ed name, or another module's
     state.  Module-level bindings carry a binder id too, so [t_global]
     marks them shared.  Locals (binder, no param, not global) are
     per-call and private. *)
  (tg.Summary.t_binder = None || tg.Summary.t_global)
  && tg.Summary.t_param = None

let rw_mem lst (rw : reached_write) =
  List.exists
    (fun r ->
      r.rw_write.Summary.w_site = rw.rw_write.Summary.w_site
      && String.equal r.rw_write.Summary.w_op rw.rw_write.Summary.w_op)
    lst

let param_mem lst k (rw : reached_write) =
  List.exists
    (fun (k', r) ->
      Summary.arg_key_equal k k'
      && r.rw_write.Summary.w_site = rw.rw_write.Summary.w_site
      && String.equal r.rw_write.Summary.w_op rw.rw_write.Summary.w_op)
    lst

let argv_taints_closure_calling (cl : Summary.closure) k =
  List.exists
    (fun (c : Summary.call) ->
      match c.Summary.c_head with
      | Summary.Hparam k' -> Summary.arg_key_equal k k'
      | _ -> false)
    cl.Summary.cl_calls

let build (summaries : Summary.t list) =
  let modules =
    List.stable_sort
      (fun (a : Summary.t) (b : Summary.t) ->
        String.compare a.Summary.m_name b.Summary.m_name)
      summaries
  in
  let t =
    {
      files = Hashtbl.create 64;
      global_index = Hashtbl.create 64;
      fx = Hashtbl.create 256;
    }
  in
  List.iter
    (fun (s : Summary.t) ->
      let path = s.Summary.m_path in
      let others =
        Option.value ~default:[] (Hashtbl.find_opt t.files s.Summary.m_name)
      in
      Hashtbl.replace t.files s.Summary.m_name (path :: others);
      List.iter
        (fun (f : Summary.fn) ->
          Hashtbl.replace t.fx (slot path f.Summary.fn_name)
            { ef_free = []; ef_param = []; ef_spawned = [] })
        s.Summary.m_fns;
      List.iter
        (fun (g : Summary.global) ->
          Hashtbl.replace t.global_index (slot path g.Summary.g_name) g)
        s.Summary.m_globals)
    modules;

  (* --- seed direct effects ---------------------------------------- *)
  List.iter
    (fun (s : Summary.t) ->
      List.iter
        (fun (f : Summary.fn) ->
          let id = fn_id s f in
          match fn_effects t id with
          | None -> ()
          | Some e ->
            let via = key id in
            List.iter
              (fun (w : Summary.write) ->
                if not w.Summary.w_guarded then begin
                  let tg = w.Summary.w_target in
                  if shared_free tg then begin
                    let rw =
                      {
                        rw_write = w;
                        rw_via = via;
                        rw_global = resolve_global t ~current:s tg;
                      }
                    in
                    if not (rw_mem e.ef_free rw) then
                      e.ef_free <- rw :: e.ef_free
                  end
                  else
                    match tg.Summary.t_param with
                    | Some k ->
                      let rw =
                        { rw_write = w; rw_via = via; rw_global = None }
                      in
                      if not (param_mem e.ef_param k rw) then
                        e.ef_param <- (k, rw) :: e.ef_param
                    | None -> ()
                end)
              f.Summary.fn_body.Summary.cl_writes;
            (* direct spawned params: [Domain.spawn f] where [f] is a
               parameter, or a spawn whose worker closure calls one *)
            List.iter
              (fun (sp : Summary.spawn) ->
                match sp.Summary.sp_body with
                | Some (Summary.Av_target tg) -> (
                  match tg.Summary.t_param with
                  | Some k ->
                    if
                      not
                        (List.exists (Summary.arg_key_equal k) e.ef_spawned)
                    then e.ef_spawned <- k :: e.ef_spawned
                  | None -> ())
                | Some (Summary.Av_closure cl) ->
                  List.iter
                    (fun (k, _) ->
                      if
                        argv_taints_closure_calling cl k
                        && not
                             (List.exists (Summary.arg_key_equal k)
                                e.ef_spawned)
                      then e.ef_spawned <- k :: e.ef_spawned)
                    f.Summary.fn_params
                | _ -> ())
              f.Summary.fn_body.Summary.cl_spawns)
        s.Summary.m_fns)
    modules;

  (* --- fixpoint: propagate through resolved calls ------------------ *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    List.iter
      (fun (s : Summary.t) ->
        List.iter
          (fun (f : Summary.fn) ->
            let id = fn_id s f in
            match fn_effects t id with
            | None -> ()
            | Some e ->
              List.iter
                (fun (c : Summary.call) ->
                  match resolve t ~current:s c.Summary.c_head with
                  | None -> ()
                  | Some callee_id -> (
                    match fn_effects t callee_id with
                    | None -> ()
                    | Some ce ->
                      (* free writes in the callee are free here too *)
                      List.iter
                        (fun rw ->
                          let rw =
                            { rw with rw_via = key id ^ " -> " ^ rw.rw_via }
                          in
                          if not (rw_mem e.ef_free rw) then begin
                            e.ef_free <- rw :: e.ef_free;
                            changed := true
                          end)
                        ce.ef_free;
                      (* callee param writes land on our arguments *)
                      List.iter
                        (fun (k, rw) ->
                          match
                            List.find_opt
                              (fun (k', _) -> Summary.arg_key_equal k k')
                              c.Summary.c_args
                          with
                          | Some (_, Summary.Av_target tg) ->
                            let rw =
                              {
                                rw with
                                rw_via = key id ^ " -> " ^ rw.rw_via;
                                rw_global = resolve_global t ~current:s tg;
                              }
                            in
                            if shared_free tg then begin
                              if not (rw_mem e.ef_free rw) then begin
                                e.ef_free <- rw :: e.ef_free;
                                changed := true
                              end
                            end
                            else (
                              match tg.Summary.t_param with
                              | Some j ->
                                if not (param_mem e.ef_param j rw) then begin
                                  e.ef_param <- (j, rw) :: e.ef_param;
                                  changed := true
                                end
                              | None -> ())
                          | _ -> ())
                        ce.ef_param;
                      (* forwarding a param into a spawned position
                         makes our param spawned as well *)
                      List.iter
                        (fun k ->
                          match
                            List.find_opt
                              (fun (k', _) -> Summary.arg_key_equal k k')
                              c.Summary.c_args
                          with
                          | Some
                              ( _,
                                Summary.Av_target
                                  { Summary.t_param = Some j; _ } ) ->
                            if
                              not
                                (List.exists (Summary.arg_key_equal j)
                                   e.ef_spawned)
                            then begin
                              e.ef_spawned <- j :: e.ef_spawned;
                              changed := true
                            end
                          | _ -> ())
                        ce.ef_spawned))
                f.Summary.fn_body.Summary.cl_calls)
          s.Summary.m_fns)
      modules
  done;
  t
