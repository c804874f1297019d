(** Open small-step semantics of Clight: an LTS for [C ↠ C]
    (paper §3.2: "the semantics of the source language Clight has type
    C ↠ C").

    States follow CompCert: regular states (function, statement,
    continuation, environments, memory), call states and return states.
    A call state whose function value is not defined by this translation
    unit is an {e external state}: it surfaces as an outgoing question of
    the [C] interface, and the environment's answer resumes execution.

    The semantics is parameterized by the function-entry discipline:
    [`Mem_params] allocates parameters in memory (Clight before
    [SimplLocals]); [`Temp_params] binds them as temporaries (after). *)

open Support
open Memory
open Memory.Values
open Iface
open Iface.Li
open Ctypes
open Csyntax

type env = (block * ty) Ident.Map.t
type temp_env = value Ident.Map.t

type cont =
  | Kstop
  | Kseq of stmt * cont
  | Kloop1 of stmt * stmt * cont  (** in the body of [Sloop] *)
  | Kloop2 of stmt * stmt * cont  (** in the continue-statement of [Sloop] *)
  | Kcall of Ident.t option * coq_function * env * temp_env * cont

type state =
  | State of coq_function * stmt * cont * env * temp_env * Mem.t
  | Callstate of value * Mtypes.signature * value list * cont * Mem.t
  | Returnstate of value * cont * Mem.t

type genv = (coq_function, ty) Genv.t

(* Strip local continuations up to the enclosing call. *)
let rec call_cont = function
  | Kseq (_, k) | Kloop1 (_, _, k) | Kloop2 (_, _, k) -> call_cont k
  | (Kstop | Kcall _) as k -> k

(** {1 Expression evaluation} *)

let deref_loc (t : ty) (m : Mem.t) (b : block) (ofs : int) : value option =
  match access_mode t with
  | By_value chunk -> Mem.load chunk m b ofs
  | By_reference -> Some (Vptr (b, ofs))
  | By_nothing -> None

let assign_loc (t : ty) (m : Mem.t) (b : block) (ofs : int) (v : value) :
    Mem.t option =
  match access_mode t with
  | By_value chunk -> Mem.store chunk m b ofs v
  | By_reference | By_nothing -> None

let rec eval_expr (ge : genv) (e : env) (le : temp_env) (m : Mem.t) (a : expr) :
    value option =
  match a with
  | Econst_int (n, _) -> Some (Vint n)
  | Econst_long (n, _) -> Some (Vlong n)
  | Econst_float (f, _) -> Some (Vfloat f)
  | Econst_single (f, _) -> Some (Vsingle f)
  | Etempvar (id, _) -> Ident.Map.find_opt id le
  | Eaddrof (a1, _) -> (
    match eval_lvalue ge e le m a1 with
    | Some (b, ofs) -> Some (Vptr (b, ofs))
    | None -> None)
  | Eunop (op, a1, _) -> (
    match eval_expr ge e le m a1 with
    | Some v1 -> Cop.sem_unop op v1 (typeof a1) m
    | None -> None)
  | Ebinop (op, a1, a2, _) -> (
    match (eval_expr ge e le m a1, eval_expr ge e le m a2) with
    | Some v1, Some v2 -> Cop.sem_binop op v1 (typeof a1) v2 (typeof a2) m
    | _ -> None)
  | Ecast (a1, t) -> (
    match eval_expr ge e le m a1 with
    | Some v1 -> Cop.sem_cast v1 (typeof a1) t
    | None -> None)
  | Esizeof (t, _) -> Some (Vlong (Int64.of_int (sizeof t)))
  | Evar _ | Ederef _ -> (
    (* An l-value read. *)
    match eval_lvalue ge e le m a with
    | Some (b, ofs) -> deref_loc (typeof a) m b ofs
    | None -> None)

and eval_lvalue ge e le m (a : expr) : (block * int) option =
  match a with
  | Evar (id, _) -> (
    match Ident.Map.find_opt id e with
    | Some (b, _) -> Some (b, 0)
    | None -> (
      match Genv.find_symbol ge id with Some b -> Some (b, 0) | None -> None))
  | Ederef (a1, _) -> (
    match eval_expr ge e le m a1 with
    | Some (Vptr (b, ofs)) -> Some (b, ofs)
    | _ -> None)
  | _ -> None

let eval_exprlist ge e le m al tys =
  let rec go al tys =
    match (al, tys) with
    | [], [] -> Some []
    | a :: al', t :: tys' -> (
      match eval_expr ge e le m a with
      | Some v -> (
        match Cop.sem_cast v (typeof a) t with
        | Some v' -> (
          match go al' tys' with Some vs -> Some (v' :: vs) | None -> None)
        | None -> None)
      | None -> None)
    | _ -> None
  in
  go al tys

(** {1 Function entry and exit} *)

let alloc_variables m (vars : (Ident.t * ty) list) : env * Mem.t =
  List.fold_left
    (fun (e, m) (id, t) ->
      let m, b = Mem.alloc m 0 (sizeof t) in
      (Ident.Map.add id (b, t) e, m))
    (Ident.Map.empty, m) vars

let bind_parameters ge (e : env) m (params : (Ident.t * ty) list) (args : value list) :
    Mem.t option =
  ignore ge;
  let rec go m params args =
    match (params, args) with
    | [], [] -> Some m
    | (id, t) :: params', v :: args' -> (
      match Ident.Map.find_opt id e with
      | Some (b, _) -> (
        match assign_loc t m b 0 v with
        | Some m' -> go m' params' args'
        | None -> None)
      | None -> None)
    | _ -> None
  in
  go m params args

let blocks_of_env (e : env) =
  Ident.Map.fold (fun _ (b, t) acc -> (b, 0, sizeof t) :: acc) e []

type entry_mode = [ `Mem_params | `Temp_params ]

let function_entry (mode : entry_mode) ge (f : coq_function) (args : value list)
    (m : Mem.t) : (env * temp_env * Mem.t) option =
  match mode with
  | `Mem_params -> (
    let e, m1 = alloc_variables m (f.fn_params @ f.fn_vars) in
    match bind_parameters ge e m1 f.fn_params args with
    | Some m2 ->
      let le =
        List.fold_left
          (fun le (id, _) -> Ident.Map.add id Vundef le)
          Ident.Map.empty f.fn_temps
      in
      Some (e, le, m2)
    | None -> None)
  | `Temp_params ->
    if List.length f.fn_params <> List.length args then None
    else
      let e, m1 = alloc_variables m f.fn_vars in
      let le =
        List.fold_left
          (fun le (id, _) -> Ident.Map.add id Vundef le)
          Ident.Map.empty f.fn_temps
      in
      let le =
        List.fold_left2
          (fun le (id, _) v -> Ident.Map.add id v le)
          le f.fn_params args
      in
      Some (e, le, m1)

(** {1 Transition relation} *)

let step (mode : entry_mode) (ge : genv) (s : state) : (Core.Events.trace * state) list
    =
  let ret s' = [ (Core.Events.e0, s') ] in
  match s with
  | State (f, stmt, k, e, le, m) -> (
    match stmt with
    | Sskip -> (
      match k with
      | Kseq (s2, k') -> ret (State (f, s2, k', e, le, m))
      | Kloop1 (s1, s2, k') -> ret (State (f, s2, Kloop2 (s1, s2, k'), e, le, m))
      | Kloop2 (s1, s2, k') -> ret (State (f, Sloop (s1, s2), k', e, le, m))
      | Kcall _ | Kstop -> (
        (* Fall through the end of the function body: return void. *)
        match f.fn_return with
        | Tvoid -> (
          match Mem.free_list m (blocks_of_env e) with
          | Some m' -> ret (Returnstate (Vundef, k, m'))
          | None -> [])
        | _ -> []))
    | Sassign (a1, a2) -> (
      match eval_lvalue ge e le m a1 with
      | Some (b, ofs) -> (
        match eval_expr ge e le m a2 with
        | Some v -> (
          match Cop.sem_cast v (typeof a2) (typeof a1) with
          | Some v' -> (
            match assign_loc (typeof a1) m b ofs v' with
            | Some m' -> ret (State (f, Sskip, k, e, le, m'))
            | None -> [])
          | None -> [])
        | None -> [])
      | None -> [])
    | Sset (id, a) -> (
      match eval_expr ge e le m a with
      | Some v -> ret (State (f, Sskip, k, e, Ident.Map.add id v le, m))
      | None -> [])
    | Scall (optid, a, args) -> (
      match typeof a with
      | Tpointer (Tfunction (targs, tres)) | Tfunction (targs, tres) -> (
        match eval_expr ge e le m a with
        | Some vf -> (
          match eval_exprlist ge e le m args targs with
          | Some vargs ->
            let sg = signature_of_type targs tres in
            ret (Callstate (vf, sg, vargs, Kcall (optid, f, e, le, k), m))
          | None -> [])
        | None -> [])
      | _ -> [])
    | Ssequence (s1, s2) -> ret (State (f, s1, Kseq (s2, k), e, le, m))
    | Sifthenelse (a, s1, s2) -> (
      match eval_expr ge e le m a with
      | Some v -> (
        match Cop.bool_val v (typeof a) m with
        | Some b -> ret (State (f, (if b then s1 else s2), k, e, le, m))
        | None -> [])
      | None -> [])
    | Sloop (s1, s2) -> ret (State (f, s1, Kloop1 (s1, s2, k), e, le, m))
    | Sbreak -> (
      match k with
      | Kseq (_, k') -> ret (State (f, Sbreak, k', e, le, m))
      | Kloop1 (_, _, k') | Kloop2 (_, _, k') -> ret (State (f, Sskip, k', e, le, m))
      | _ -> [])
    | Scontinue -> (
      match k with
      | Kseq (_, k') -> ret (State (f, Scontinue, k', e, le, m))
      | Kloop1 (s1, s2, k') -> ret (State (f, s2, Kloop2 (s1, s2, k'), e, le, m))
      | _ -> [])
    | Sreturn None -> (
      match Mem.free_list m (blocks_of_env e) with
      | Some m' -> ret (Returnstate (Vundef, call_cont k, m'))
      | None -> [])
    | Sreturn (Some a) -> (
      match eval_expr ge e le m a with
      | Some v -> (
        match Cop.sem_cast v (typeof a) f.fn_return with
        | Some v' -> (
          match Mem.free_list m (blocks_of_env e) with
          | Some m' -> ret (Returnstate (v', call_cont k, m'))
          | None -> [])
        | None -> [])
      | None -> []))
  | Callstate (vf, sg, args, k, m) -> (
    match Genv.find_funct ge vf with
    | Some (Ast.Internal f) ->
      if not (Mtypes.signature_equal sg (fn_sig f)) then []
      else (
        match function_entry mode ge f args m with
        | Some (e, le, m') -> ret (State (f, f.fn_body, k, e, le, m'))
        | None -> [])
    | Some (Ast.External _) | None -> [] (* external: handled by at_external *))
  | Returnstate (v, k, m) -> (
    match k with
    | Kcall (optid, f, e, le, k') ->
      let le' = match optid with Some id -> Ident.Map.add id v le | None -> le in
      ret (State (f, Sskip, k', e, le', m))
    | Kstop | Kseq _ | Kloop1 _ | Kloop2 _ -> [])

(** {1 The open LTS} *)

(** The Clight open semantics on the persistent memory model: the
    reference that [test_mutstate] runs in lockstep with {!semantics}. *)
let semantics_naive ?(mode : entry_mode = `Mem_params) ~(symbols : Ident.t list)
    (p : program) : (state, c_query, c_reply, c_query, c_reply) Core.Smallstep.lts =
  let ge = Genv.globalenv ~symbols p in
  {
    Core.Smallstep.name = "Clight";
    dom =
      (fun q ->
        match Genv.find_funct ge q.cq_vf with
        | Some (Ast.Internal f) -> Mtypes.signature_equal q.cq_sg (fn_sig f)
        | _ -> false);
    init =
      (fun q -> Callstate (q.cq_vf, q.cq_sg, q.cq_args, Kstop, q.cq_mem));
    step = (fun s -> step mode ge s);
    at_external =
      (fun s ->
        match s with
        | Callstate (vf, sg, args, _, m) when Genv.calls_out ge vf ->
          Some { cq_vf = vf; cq_sg = sg; cq_args = args; cq_mem = m }
        | _ -> None);
    after_external =
      (fun s r ->
        match s with
        | Callstate (_, _, _, k, _) -> Returnstate (r.cr_res, k, r.cr_mem)
        | _ -> invalid_arg "Clight.after_external: not at an external call");
    final =
      (fun s ->
        match s with
        | Returnstate (v, Kstop, m) -> Some { cr_res = v; cr_mem = m }
        | _ -> None);
    handover = None;
  }

(** The Clight open semantics: the same rules, on a memory the run owns
    between interaction points ({!Iface.Li.own_c}). *)
let semantics ?mode ~symbols p = own_c (semantics_naive ?mode ~symbols p)
