(* Per-module mutability/escape summaries, extracted from the parsetree.

   A summary records, for every top-level function, the mutable state it
   allocates, the writes it performs (to free variables, to its own
   parameters, under a guard or not), the calls it makes (with enough
   argument structure to follow a captured table into a helper two
   modules away), and every [Domain.spawn]-shaped site.  The race and
   taint passes (race.ml, taint.ml) evaluate the P rules purely from
   these summaries plus the cross-module call graph (callgraph.ml), so
   a summary must carry every fact those rules read: nothing downstream
   looks at the parsetree again.

   Everything here is syntactic.  Where typing would be needed the
   summary over-approximates in a direction each rule documents, and
   the escape hatch is the usual justified [lint: allow]. *)

open Parsetree

type site = { s_line : int; s_col : int }

let site_of (loc : Location.t) =
  {
    s_line = loc.loc_start.pos_lnum;
    s_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
  }

(* Argument position: labelled arguments match by name, positional ones
   by index among the unlabelled arguments. *)
type arg_key = Kpos of int | Klbl of string

let arg_key_equal a b =
  match (a, b) with
  | Kpos i, Kpos j -> Int.equal i j
  | Klbl x, Klbl y -> String.equal x y
  | Kpos _, Klbl _ | Klbl _, Kpos _ -> false

let arg_key_to_string = function
  | Kpos i -> Printf.sprintf "#%d" i
  | Klbl l -> "~" ^ l

(* Mutable allocation heads.  [Atomic_box] and [Mutex_box] are the two
   sanctioned cross-domain kinds: writes through them never race. *)
type alloc_kind =
  | Ref_cell
  | Arr
  | Tbl
  | Buf
  | Byt
  | Que
  | Stk
  | Atomic_box
  | Mutex_box
  | Unknown_mut

let alloc_kind_name = function
  | Ref_cell -> "ref"
  | Arr -> "array"
  | Tbl -> "Hashtbl"
  | Buf -> "Buffer"
  | Byt -> "Bytes"
  | Que -> "Queue"
  | Stk -> "Stack"
  | Atomic_box -> "Atomic"
  | Mutex_box -> "Mutex"
  | Unknown_mut -> "mutable value"

let alloc_is_safe = function
  | Atomic_box | Mutex_box -> true
  | Ref_cell | Arr | Tbl | Buf | Byt | Que | Stk | Unknown_mut -> false

(* Seed-taint classification for the P003 dataflow: [Tseed] provably
   derives from a seed, [Tplain] provably does not (literals and
   arithmetic over literals), [Topaque] is anything the syntactic pass
   cannot judge — opaque values never fire the rule. *)
type taint_class = Tseed | Tplain | Topaque

(* Where a write (or an ident argument) points.  [t_binder] is the
   lexical binder's id inside the current top-level function; binder
   ids grow monotonically, so a closure knows a target was captured
   from outside iff the id is smaller than the closure's first id. *)
type target = {
  t_path : string list;  (* the ident as written, e.g. ["results"] *)
  t_binder : int option;  (* None: free (module global or open) *)
  t_param : arg_key option;  (* set iff a top-level fn parameter *)
  t_alloc : (alloc_kind * site) option;  (* allocation, when local *)
  t_global : bool;  (* resolved to a module-level binding *)
  t_taint : taint_class;
}

type write = {
  w_target : target;
  w_op : string;  (* ":=", "Array.set", "Hashtbl.replace", ... *)
  w_site : site;
  w_guarded : bool;  (* syntactically under Mutex.protect/with_lock *)
}

type head = Hpath of string list | Hparam of arg_key | Hdyn

type closure = {
  cl_site : site;
  cl_first : int;  (* binder ids >= cl_first were bound inside *)
  cl_writes : write list;  (* flattened over the whole subtree *)
  cl_calls : call list;  (* flattened over the whole subtree *)
  cl_spawns : spawn list;
}

and call = {
  c_head : head;
  c_site : site;
  c_args : (arg_key * argv) list;
}

and argv = Av_closure of closure | Av_target of target | Av_value of taint_class

and spawn = { sp_site : site; sp_head : string; sp_body : argv option }

type fn = {
  fn_name : string;
  fn_site : site;
  fn_params : (arg_key * string) list;
  fn_body : closure;
}

type global = { g_name : string; g_kind : alloc_kind; g_site : site }

type t = {
  m_name : string;  (* module name: capitalized basename *)
  m_path : string;
  m_zone : Zone.t;
  m_fns : fn list;
  m_globals : global list;
}

let module_name_of_path path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

(* ------------------------------------------------------------------ *)
(* Longident helpers (local copies; rules.ml keeps its own)            *)
(* ------------------------------------------------------------------ *)

let rec lid_parts (lid : Longident.t) =
  match lid with
  | Lident s -> [ s ]
  | Ldot (l, s) -> lid_parts l @ [ s ]
  | Lapply (a, b) -> lid_parts a @ lid_parts b

let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

let last_two parts =
  match List.rev parts with
  | f :: m :: _ -> (m, f)
  | [ f ] -> ("", f)
  | [] -> ("", "")

(* ------------------------------------------------------------------ *)
(* Head classification tables                                          *)
(* ------------------------------------------------------------------ *)

let alloc_of_head parts =
  match last_two parts with
  | "", "ref" -> Some Ref_cell
  | ( "Array",
      ( "make" | "init" | "create_float" | "copy" | "of_list" | "append"
      | "sub" | "concat" | "make_matrix" ) ) ->
    Some Arr
  | "Hashtbl", ("create" | "copy") -> Some Tbl
  | "Buffer", "create" -> Some Buf
  | "Bytes", ("create" | "make" | "copy" | "of_string") -> Some Byt
  | "Queue", ("create" | "copy") -> Some Que
  | "Stack", ("create" | "copy") -> Some Stk
  | "Atomic", "make" -> Some Atomic_box
  | "Mutex", "create" -> Some Mutex_box
  | _ -> None

(* Mutating heads: (module, fn) -> index (among unlabelled args) of the
   container being mutated.  Atomic mutators are deliberately absent:
   writes through [Atomic.t] are the sanctioned cross-domain channel. *)
let mutator_of_head parts =
  match last_two parts with
  | "", ":=" -> Some 0
  | "", ("incr" | "decr") -> Some 0
  | "Array", ("set" | "unsafe_set" | "fill") -> Some 0
  | "Array", ("sort" | "fast_sort" | "stable_sort") -> Some 1
  | "Array", "blit" -> Some 2
  | "Hashtbl", ("add" | "replace" | "remove" | "reset" | "clear") -> Some 0
  | "Hashtbl", ("filter_map_inplace" | "add_seq" | "replace_seq") -> Some 1
  | ( "Buffer",
      ( "add_char" | "add_string" | "add_bytes" | "add_substring"
      | "add_subbytes" | "add_buffer" | "add_channel" | "clear" | "reset"
      | "truncate" ) ) ->
    Some 0
  | "Bytes", ("set" | "unsafe_set" | "fill") -> Some 0
  | "Bytes", "blit" -> Some 2
  | "Queue", ("add" | "push") -> Some 1
  | "Queue", ("pop" | "take" | "clear" | "transfer") -> Some 0
  | "Stack", "push" -> Some 1
  | "Stack", ("pop" | "clear") -> Some 0
  | _ -> None

let is_guard_head parts =
  match last_two parts with
  | "Mutex", "protect" -> true
  | _, ("with_lock" | "with_mutex" | "critical_section") -> true
  | _ -> false

let is_spawn_head parts =
  match last_two parts with "Domain", "spawn" -> true | _ -> false

let is_rng_create_head parts =
  match last_two parts with "Rng", "create" -> true | _ -> false

let is_rng_derive_head parts =
  match last_two parts with
  | "Rng", ("derive" | "split" | "copy") -> true
  | _, "sub_seed" -> true
  | _ -> false

let path_mentions_seed parts =
  List.exists
    (fun p ->
      let p = String.lowercase_ascii p in
      let n = String.length p in
      let rec go i =
        i + 4 <= n && (String.equal (String.sub p i 4) "seed" || go (i + 1))
      in
      go 0)
    parts

(* ------------------------------------------------------------------ *)
(* The extraction walker                                               *)
(* ------------------------------------------------------------------ *)

(* Lexical environment entry for one bound name. *)
type entry = {
  e_id : int;
  e_param : arg_key option;
  e_alloc : (alloc_kind * site) option;
  e_global : bool;
  e_taint : taint_class;
  e_fn : closure option;  (* a let-bound lambda: its analyzed body *)
}

type env = { bindings : (string * entry) list }

let lookup env name = List.assoc_opt name env.bindings

let bind env name entry = { bindings = (name, entry) :: env.bindings }

(* One collector per open closure; writes/calls/spawns are recorded in
   every collector on the stack, which is what flattens subtrees. *)
type collector = {
  mutable k_writes : write list;
  mutable k_calls : call list;
  mutable k_spawns : spawn list;
}

type walker = {
  mutable counter : int;
  mutable stack : collector list;
  mutable globals : global list;
}

let fresh_id w =
  w.counter <- w.counter + 1;
  w.counter

let push_write w wr = List.iter (fun k -> k.k_writes <- wr :: k.k_writes) w.stack
let push_call w c = List.iter (fun k -> k.k_calls <- c :: k.k_calls) w.stack
let push_spawn w s = List.iter (fun k -> k.k_spawns <- s :: k.k_spawns) w.stack

let plain_entry w = {
  e_id = fresh_id w;
  e_param = None;
  e_alloc = None;
  e_global = false;
  e_taint = Topaque;
  e_fn = None;
}

let target_of_ident env parts =
  let seedy = path_mentions_seed parts in
  match parts with
  | [ name ] -> (
    match lookup env name with
    | Some e ->
      {
        t_path = parts;
        t_binder = Some e.e_id;
        t_param = e.e_param;
        t_alloc = e.e_alloc;
        t_global = e.e_global;
        t_taint = (if seedy then Tseed else e.e_taint);
      }
    | None ->
      {
        t_path = parts;
        t_binder = None;
        t_param = None;
        t_alloc = None;
        t_global = false;
        t_taint = (if seedy then Tseed else Topaque);
      })
  | _ ->
    (* Qualified: another module's global or an external value. *)
    {
      t_path = parts;
      t_binder = None;
      t_param = None;
      t_alloc = None;
      t_global = false;
      t_taint = (if seedy then Tseed else Topaque);
    }

(* Syntactic seed-taint of an arbitrary expression. *)
let rec taint_of env e =
  match e.pexp_desc with
  | Pexp_constant _ -> Tplain
  | Pexp_ident { txt; _ } ->
    (target_of_ident env (strip_stdlib (lid_parts txt))).t_taint
  | Pexp_field (b, { txt; _ }) ->
    if path_mentions_seed (lid_parts txt) then Tseed else taint_of env b
  | Pexp_apply (f, args) -> (
    let head =
      match f.pexp_desc with
      | Pexp_ident { txt; _ } -> strip_stdlib (lid_parts txt)
      | _ -> []
    in
    if is_rng_derive_head head || path_mentions_seed head then Tseed
    else
      let ts = List.map (fun (_, a) -> taint_of env a) args in
      if List.exists (fun t -> t = Tseed) ts then Tseed
      else if ts <> [] && List.for_all (fun t -> t = Tplain) ts then Tplain
      else Topaque)
  | Pexp_let (_, _, body) | Pexp_sequence (_, body) -> taint_of env body
  | Pexp_constraint (b, _) -> taint_of env b
  | Pexp_ifthenelse (_, a, Some b) -> (
    match (taint_of env a, taint_of env b) with
    | Tseed, _ | _, Tseed -> Tseed
    | Tplain, Tplain -> Tplain
    | _ -> Topaque)
  | _ -> Topaque

let keyed_args args =
  let pos = ref (-1) in
  List.map
    (fun ((lbl : Asttypes.arg_label), a) ->
      match lbl with
      | Nolabel ->
        incr pos;
        (Kpos !pos, a)
      | Labelled l | Optional l -> (Klbl l, a))
    args

(* Parameter chain of a lambda: returns (params, body). *)
let rec fun_params acc pos e =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, pat, body) ->
    let name =
      match pat.ppat_desc with
      | Ppat_var { txt; _ } -> txt
      | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> txt
      | _ -> "_"
    in
    let key, pos =
      match (lbl : Asttypes.arg_label) with
      | Nolabel -> (Kpos pos, pos + 1)
      | Labelled l | Optional l -> (Klbl l, pos)
    in
    fun_params ((key, name) :: acc) pos body
  | Pexp_newtype (_, body) -> fun_params acc pos body
  | _ -> (List.rev acc, e)

let is_lambda e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | _ -> false

(* [analyze_closure] walks a lambda in [env] with a fresh collector on
   the stack (enclosing collectors stay below it, so every write also
   flattens outward) and returns (params, closure record). *)
let rec analyze_closure w env ~guarded ~fn_params_flag e =
  let params, body = fun_params [] 0 e in
  let env =
    List.fold_left
      (fun env (key, name) ->
        if String.equal name "_" then env
        else
          bind env name
            {
              e_id = fresh_id w;
              e_param = (if fn_params_flag then Some key else None);
              e_alloc = None;
              e_global = false;
              e_taint =
                (if path_mentions_seed [ name ] then Tseed else Topaque);
              e_fn = None;
            })
      env params
  in
  let first = w.counter + 1 in
  let k = { k_writes = []; k_calls = []; k_spawns = [] } in
  w.stack <- k :: w.stack;
  (match body.pexp_desc with
  | Pexp_function cases -> walk_cases w env ~guarded cases
  | _ -> walk_expr w env ~guarded body);
  w.stack <- List.tl w.stack;
  ( params,
    {
      cl_site = site_of e.pexp_loc;
      cl_first = first;
      cl_writes = List.rev k.k_writes;
      cl_calls = List.rev k.k_calls;
      cl_spawns = List.rev k.k_spawns;
    } )

and walk_cases w env ~guarded cases =
  List.iter
    (fun c ->
      let env' = bind_pattern_vars w env c.pc_lhs in
      (match c.pc_guard with
      | Some g -> walk_expr w env' ~guarded g
      | None -> ());
      walk_expr w env' ~guarded c.pc_rhs)
    cases

and classify_arg w env ~guarded (e : expression) =
  if is_lambda e then begin
    let _, cl = analyze_closure w env ~guarded ~fn_params_flag:false e in
    Av_closure cl
  end
  else
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
      let parts = strip_stdlib (lid_parts txt) in
      match parts with
      | [ name ] -> (
        match lookup env name with
        | Some { e_fn = Some cl; _ } -> Av_closure cl
        | _ -> Av_target (target_of_ident env parts))
      | _ -> Av_target (target_of_ident env parts))
    | _ ->
      walk_expr w env ~guarded e;
      Av_value (taint_of env e)

and record_call w env ~guarded head site args =
  let kargs =
    List.map (fun (key, a) -> (key, classify_arg w env ~guarded a)) args
  in
  push_call w { c_head = head; c_site = site; c_args = kargs }

and dispatch_apply w env ~guarded parts site args =
  if is_spawn_head parts then
    push_spawn w
      {
        sp_site = site;
        sp_head = String.concat "." parts;
        sp_body =
          (match args with
          | (_, arg) :: _ -> Some (classify_arg w env ~guarded arg)
          | [] -> None);
      }
  else if is_guard_head parts then
    (* everything under the guard is mutex-protected *)
    List.iter (fun (_, a) -> walk_expr w env ~guarded:true a) args
  else
    match mutator_of_head parts with
    | Some idx ->
      (match
         List.find_opt (fun (key, _) -> arg_key_equal key (Kpos idx)) args
       with
      | Some (_, { pexp_desc = Pexp_ident { txt = c; _ }; _ }) ->
        push_write w
          {
            w_target = target_of_ident env (strip_stdlib (lid_parts c));
            w_op = String.concat "." parts;
            w_site = site;
            w_guarded = guarded;
          }
      | _ -> ());
      List.iter (fun (_, a) -> walk_expr w env ~guarded a) args
    | None ->
      let head =
        match parts with
        | [ name ] -> (
          match lookup env name with
          | Some { e_param = Some key; _ } -> Hparam key
          | _ -> Hpath parts)
        | _ -> Hpath parts
      in
      record_call w env ~guarded head site args;
      (* Calling a nested lambda executes its body here: splice its
         closure in so spawned-closure evaluation sees its writes. *)
      (match parts with
      | [ name ] -> (
        match lookup env name with
        | Some { e_fn = Some cl; _ } ->
          push_call w
            { c_head = Hdyn; c_site = site; c_args = [ (Kpos 0, Av_closure cl) ] }
        | _ -> ())
      | _ -> ())

and walk_expr w env ~guarded e =
  match e.pexp_desc with
  | Pexp_apply (f, raw_args) -> (
    let args = keyed_args raw_args in
    match f.pexp_desc with
    | Pexp_ident { txt; loc } -> (
      let parts = strip_stdlib (lid_parts txt) in
      (* Pipelines forward the application: [x |> f] is [f x]. *)
      match (parts, args) with
      | [ "|>" ], [ (_, lhs); (_, rhs) ] -> walk_pipeline w env ~guarded rhs lhs
      | [ "@@" ], [ (_, lhs); (_, rhs) ] -> walk_pipeline w env ~guarded lhs rhs
      | _ -> dispatch_apply w env ~guarded parts (site_of loc) args)
    | _ ->
      walk_expr w env ~guarded f;
      List.iter (fun (_, a) -> walk_expr w env ~guarded a) args)
  | Pexp_setfield (b, { txt; _ }, v) ->
    (match b.pexp_desc with
    | Pexp_ident { txt = bi; loc } ->
      let field =
        match List.rev (lid_parts txt) with f :: _ -> f | [] -> ""
      in
      push_write w
        {
          w_target = target_of_ident env (strip_stdlib (lid_parts bi));
          w_op = ("<-" ^ if String.equal field "" then "" else " ." ^ field);
          w_site = site_of loc;
          w_guarded = guarded;
        }
    | _ -> walk_expr w env ~guarded b);
    walk_expr w env ~guarded v
  | Pexp_let (rec_flag, vbs, body) ->
    let env' = walk_bindings w env ~guarded ~toplevel:false rec_flag vbs in
    walk_expr w env' ~guarded body
  | Pexp_fun _ | Pexp_function _ ->
    (* A lambda in generic position (returned, stored in a structure):
       analyze it so its writes surface in the enclosing subtree. *)
    let _, cl = analyze_closure w env ~guarded ~fn_params_flag:false e in
    push_call w
      {
        c_head = Hdyn;
        c_site = cl.cl_site;
        c_args = [ (Kpos 0, Av_closure cl) ];
      }
  | Pexp_match (scr, cases) | Pexp_try (scr, cases) ->
    walk_expr w env ~guarded scr;
    walk_cases w env ~guarded cases
  | Pexp_sequence (a, b) | Pexp_while (a, b) ->
    walk_expr w env ~guarded a;
    walk_expr w env ~guarded b
  | Pexp_for (pat, lo, hi, _, body) ->
    walk_expr w env ~guarded lo;
    walk_expr w env ~guarded hi;
    walk_expr w (bind_pattern_vars w env pat) ~guarded body
  | Pexp_ifthenelse (c, a, b) ->
    walk_expr w env ~guarded c;
    walk_expr w env ~guarded a;
    Option.iter (walk_expr w env ~guarded) b
  | Pexp_tuple es | Pexp_array es -> List.iter (walk_expr w env ~guarded) es
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
    Option.iter (walk_expr w env ~guarded) arg
  | Pexp_record (fields, base) ->
    Option.iter (walk_expr w env ~guarded) base;
    List.iter (fun (_, v) -> walk_expr w env ~guarded v) fields
  | Pexp_field (b, _) -> walk_expr w env ~guarded b
  | Pexp_constraint (b, _)
  | Pexp_coerce (b, _, _)
  | Pexp_lazy b
  | Pexp_assert b
  | Pexp_newtype (_, b)
  | Pexp_open (_, b)
  | Pexp_letexception (_, b)
  | Pexp_setinstvar (_, b)
  | Pexp_send (b, _)
  | Pexp_poly (b, _) ->
    walk_expr w env ~guarded b
  | Pexp_letmodule (_, _, b) -> walk_expr w env ~guarded b
  | Pexp_override fields ->
    List.iter (fun (_, v) -> walk_expr w env ~guarded v) fields
  | Pexp_letop { let_; ands; body } ->
    walk_expr w env ~guarded let_.pbop_exp;
    List.iter (fun a -> walk_expr w env ~guarded a.pbop_exp) ands;
    walk_expr w env ~guarded body
  | Pexp_ident _ | Pexp_constant _ | Pexp_unreachable | Pexp_extension _
  | Pexp_new _ | Pexp_pack _ | Pexp_object _ ->
    ()

and walk_pipeline w env ~guarded f x =
  (* [x |> f] / [f @@ x]: dispatch as if [f x] so spawn/guard/mutator
     heads still classify; partial applications extend the arg list. *)
  match f.pexp_desc with
  | Pexp_ident { txt; loc } ->
    dispatch_apply w env ~guarded
      (strip_stdlib (lid_parts txt))
      (site_of loc)
      [ (Kpos 0, x) ]
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, raw_args) ->
    let args = keyed_args raw_args in
    let npos =
      List.fold_left
        (fun n (k, _) -> match k with Kpos _ -> n + 1 | Klbl _ -> n)
        0 args
    in
    dispatch_apply w env ~guarded
      (strip_stdlib (lid_parts txt))
      (site_of loc)
      (args @ [ (Kpos npos, x) ])
  | _ ->
    walk_expr w env ~guarded f;
    walk_expr w env ~guarded x

and bind_pattern_vars w env pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } ->
    bind env txt
      {
        (plain_entry w) with
        e_taint = (if path_mentions_seed [ txt ] then Tseed else Topaque);
      }
  | Ppat_alias (p, { txt; _ }) ->
    bind (bind_pattern_vars w env p) txt (plain_entry w)
  | Ppat_tuple ps | Ppat_array ps ->
    List.fold_left (bind_pattern_vars w) env ps
  | Ppat_construct (_, Some (_, p))
  | Ppat_constraint (p, _)
  | Ppat_lazy p
  | Ppat_open (_, p)
  | Ppat_exception p ->
    bind_pattern_vars w env p
  | Ppat_or (a, b) -> bind_pattern_vars w (bind_pattern_vars w env a) b
  | Ppat_record (fields, _) ->
    List.fold_left (fun acc (_, p) -> bind_pattern_vars w acc p) env fields
  | Ppat_variant (_, Some p) -> bind_pattern_vars w env p
  | _ -> env

(* Walk one let-binding group; returns the extended environment.  Lambda
   bindings are analyzed exactly once, here, and their closure records
   ride in the environment for call sites and spawn args to pick up. *)
and walk_bindings w env ~guarded ~toplevel rec_flag vbs =
  ignore toplevel;
  List.fold_left
    (fun acc vb ->
      let name =
        match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt; _ }
        | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
          Some txt
        | _ -> None
      in
      match name with
      | None ->
        walk_expr w env ~guarded vb.pvb_expr;
        bind_pattern_vars w acc vb.pvb_pat
      | Some name ->
        let id = fresh_id w in
        if is_lambda vb.pvb_expr then begin
          (* For [let rec], the lambda may call itself; its own name
             resolves to a plain entry (no e_fn), breaking the inline
             cycle. *)
          let self_env =
            match (rec_flag : Asttypes.rec_flag) with
            | Recursive ->
              bind env name
                { (plain_entry w) with e_id = id }
            | Nonrecursive -> env
          in
          let _, cl =
            analyze_closure w self_env ~guarded ~fn_params_flag:false
              vb.pvb_expr
          in
          bind acc name { (plain_entry w) with e_id = id; e_fn = Some cl }
        end
        else begin
          walk_expr w env ~guarded vb.pvb_expr;
          let alloc =
            match vb.pvb_expr.pexp_desc with
            | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _) ->
              Option.map
                (fun k -> (k, site_of loc))
                (alloc_of_head (strip_stdlib (lid_parts txt)))
            | _ -> None
          in
          bind acc name
            {
              e_id = id;
              e_param = None;
              e_alloc = alloc;
              e_global = false;
              e_taint =
                (if path_mentions_seed [ name ] then Tseed
                 else taint_of env vb.pvb_expr);
              e_fn = None;
            }
        end)
    env vbs

(* ------------------------------------------------------------------ *)
(* Structure-level extraction                                          *)
(* ------------------------------------------------------------------ *)

let extract ~path ~zone (str : structure) =
  let w = { counter = 0; stack = []; globals = [] } in
  let fns = ref [] in
  let genv = ref { bindings = [] } in
  let collect_effects name loc f =
    let k = { k_writes = []; k_calls = []; k_spawns = [] } in
    w.stack <- [ k ];
    f ();
    w.stack <- [];
    if k.k_writes <> [] || k.k_calls <> [] || k.k_spawns <> [] then
      fns :=
        {
          fn_name = name;
          fn_site = site_of loc;
          fn_params = [];
          fn_body =
            {
              cl_site = site_of loc;
              cl_first = 0;
              cl_writes = List.rev k.k_writes;
              cl_calls = List.rev k.k_calls;
              cl_spawns = List.rev k.k_spawns;
            };
        }
        :: !fns
  in
  let top_binding rec_flag vb =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt = name; _ }
    | Ppat_constraint ({ ppat_desc = Ppat_var { txt = name; _ }; _ }, _) ->
      if is_lambda vb.pvb_expr then begin
        let self_env =
          match (rec_flag : Asttypes.rec_flag) with
          | Recursive ->
            bind !genv name { (plain_entry w) with e_global = true }
          | Nonrecursive -> !genv
        in
        let k = { k_writes = []; k_calls = []; k_spawns = [] } in
        w.stack <- [ k ];
        let params, body =
          analyze_closure w self_env ~guarded:false ~fn_params_flag:true
            vb.pvb_expr
        in
        w.stack <- [];
        fns :=
          {
            fn_name = name;
            fn_site = site_of vb.pvb_loc;
            fn_params = params;
            fn_body = body;
          }
          :: !fns;
        genv := bind !genv name { (plain_entry w) with e_global = true }
      end
      else begin
        let alloc =
          match vb.pvb_expr.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _) ->
            Option.map
              (fun k -> (k, site_of loc))
              (alloc_of_head (strip_stdlib (lid_parts txt)))
          | _ -> None
        in
        (match alloc with
        | Some (kind, _) ->
          w.globals <-
            { g_name = name; g_kind = kind; g_site = site_of vb.pvb_loc }
            :: w.globals
        | None -> ());
        (* Module-init side effects count too (e.g. registering into a
           table at load time). *)
        collect_effects ("(init:" ^ name ^ ")") vb.pvb_loc (fun () ->
            walk_expr w !genv ~guarded:false vb.pvb_expr);
        genv :=
          bind !genv name
            {
              (plain_entry w) with
              e_alloc = alloc;
              e_global = true;
              e_taint =
                (if path_mentions_seed [ name ] then Tseed else Topaque);
            }
      end
    | _ -> ()
  in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (rec_flag, vbs) -> List.iter (top_binding rec_flag) vbs
      | Pstr_eval (e, _) ->
        collect_effects "(toplevel)" item.pstr_loc (fun () ->
            walk_expr w !genv ~guarded:false e)
      | _ -> ())
    str;
  {
    m_name = module_name_of_path path;
    m_path = path;
    m_zone = zone;
    m_fns = List.rev !fns;
    m_globals = List.rev w.globals;
  }
