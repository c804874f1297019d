(** SimplLocals: pull non-addressed scalar local variables out of memory
    into temporaries (CompCert's [SimplLocals]).

    Simulation convention: [injp ↠ inj] (paper, Table 3) — the pass
    removes memory blocks, so the source has blocks with no target
    counterpart, and external calls must not disturb them (Example 4.4).

    After this pass, function parameters are bound as temporaries
    ([`Temp_params] entry); addressable parameters are copied into fresh
    memory variables at entry. *)

open Support
open Cfrontend.Ctypes
open Cfrontend.Csyntax

module ISet = Ident.Set

(* Identifiers whose address is taken somewhere in the function. *)
let rec addr_taken_expr (acc : ISet.t) (a : expr) : ISet.t =
  match a with
  | Eaddrof (Evar (id, _), _) -> ISet.add id acc
  | Eaddrof (a1, _) | Ederef (a1, _) | Eunop (_, a1, _) | Ecast (a1, _) ->
    addr_taken_expr acc a1
  | Ebinop (_, a1, a2, _) -> addr_taken_expr (addr_taken_expr acc a1) a2
  | Econst_int _ | Econst_long _ | Econst_float _ | Econst_single _ | Evar _
  | Etempvar _ | Esizeof _ ->
    acc

let rec addr_taken_stmt (acc : ISet.t) (s : stmt) : ISet.t =
  match s with
  | Sskip | Sbreak | Scontinue | Sreturn None -> acc
  | Sassign (a1, a2) -> addr_taken_expr (addr_taken_expr acc a1) a2
  | Sset (_, a) | Sreturn (Some a) -> addr_taken_expr acc a
  | Scall (_, a, args) ->
    List.fold_left addr_taken_expr (addr_taken_expr acc a) args
  | Ssequence (s1, s2) | Sloop (s1, s2) ->
    addr_taken_stmt (addr_taken_stmt acc s1) s2
  | Sifthenelse (a, s1, s2) ->
    addr_taken_stmt (addr_taken_stmt (addr_taken_expr acc a) s1) s2

(* A variable can be lifted when its address is never taken and it has a
   scalar (By_value) type. *)
let can_lift (addr : ISet.t) (id, t) =
  (not (ISet.mem id addr))
  && match access_mode t with By_value _ -> true | _ -> false

(* Rewrite variable accesses: lifted [Evar] become [Etempvar]. *)
let rec simpl_expr (lifted : ISet.t) (a : expr) : expr =
  match a with
  | Evar (id, t) when ISet.mem id lifted -> Etempvar (id, t)
  | Evar _ | Etempvar _ | Econst_int _ | Econst_long _ | Econst_float _
  | Econst_single _ | Esizeof _ ->
    a
  | Ederef (a1, t) -> Ederef (simpl_expr lifted a1, t)
  | Eaddrof (a1, t) -> Eaddrof (simpl_expr lifted a1, t)
  | Eunop (op, a1, t) -> Eunop (op, simpl_expr lifted a1, t)
  | Ebinop (op, a1, a2, t) ->
    Ebinop (op, simpl_expr lifted a1, simpl_expr lifted a2, t)
  | Ecast (a1, t) -> Ecast (simpl_expr lifted a1, t)

let rec simpl_stmt (lifted : ISet.t) (s : stmt) : stmt =
  match s with
  | Sskip | Sbreak | Scontinue | Sreturn None -> s
  | Sassign (Evar (id, t), a2) when ISet.mem id lifted ->
    (* Assignments to lifted variables become [Sset] with the implicit
       store normalization made explicit as a cast. *)
    Sset (id, Ecast (simpl_expr lifted a2, t))
  | Sassign (a1, a2) -> Sassign (simpl_expr lifted a1, simpl_expr lifted a2)
  | Sset (id, a) -> Sset (id, simpl_expr lifted a)
  | Scall (optid, a, args) ->
    Scall (optid, simpl_expr lifted a, List.map (simpl_expr lifted) args)
  | Ssequence (s1, s2) -> Ssequence (simpl_stmt lifted s1, simpl_stmt lifted s2)
  | Sifthenelse (a, s1, s2) ->
    Sifthenelse (simpl_expr lifted a, simpl_stmt lifted s1, simpl_stmt lifted s2)
  | Sloop (s1, s2) -> Sloop (simpl_stmt lifted s1, simpl_stmt lifted s2)
  | Sreturn (Some a) -> Sreturn (Some (simpl_expr lifted a))

let transf_function (f : coq_function) : coq_function Errors.t =
  let addr = addr_taken_stmt ISet.empty f.fn_body in
  (* Parameters: lifted ones stay parameters (now temporaries); the
     others are copied into memory variables at function entry. *)
  let lifted_params = List.filter (can_lift addr) f.fn_params in
  let unlifted_params =
    List.filter (fun p -> not (List.mem p lifted_params)) f.fn_params
  in
  let lifted_vars = List.filter (can_lift addr) f.fn_vars in
  let kept_vars = List.filter (fun v -> not (List.mem v lifted_vars)) f.fn_vars in
  let lifted =
    ISet.of_list (List.map fst (lifted_params @ lifted_vars))
  in
  (* For each unlifted parameter x, introduce a temporary [x$p] that
     receives the argument and is copied into x's memory block. *)
  let renamed =
    List.map (fun (id, t) -> (id, (Ident.intern (Ident.name id ^ "$p"), t)))
      unlifted_params
  in
  let params' =
    List.map
      (fun (id, t) ->
        match List.assoc_opt id renamed with
        | Some (id', _) -> (id', t)
        | None -> (id, t))
      f.fn_params
  in
  let copy_in =
    List.fold_right
      (fun (id, (id', t)) s ->
        Ssequence (Sassign (Evar (id, t), Etempvar (id', t)), s))
      renamed Sskip
  in
  let body = simpl_stmt lifted f.fn_body in
  Errors.ok
    {
      f with
      fn_params = params';
      fn_vars = unlifted_params @ kept_vars;
      (* Lifted parameters are not added to [fn_temps]: as parameters of
         the [`Temp_params] entry discipline they are bound directly. *)
      fn_temps = lifted_vars
                 @ List.map (fun (_, (id', t)) -> (id', t)) renamed
                 @ f.fn_temps;
      fn_body = Ssequence (copy_in, body);
    }

let transf_program (p : program) : program Errors.t =
  Iface.Ast.transform_program transf_function p
