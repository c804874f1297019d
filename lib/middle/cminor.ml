(** Cminor: the last structured intermediate language (CompCert's
    [Cminor]).

    Differences from Csharpminor: all memory-resident locals of a function
    have been collapsed into a single stack block of [fn_stackspace] bytes
    (by the [Cminorgen] pass); addresses are taken with [Oaddrstack]
    relative to that block, or [Oaddrsymbol] for globals. *)

open Support
open Memory
open Memory.Mtypes
open Memory.Values
open Memory.Memdata
open Iface
open Iface.Li
open Cfrontend

type constant =
  | Ointconst of int32
  | Olongconst of int64
  | Ofloatconst of float
  | Osingleconst of float
  | Oaddrsymbol of Ident.t * int
  | Oaddrstack of int

type expr =
  | Evar of Ident.t
  | Econst of constant
  | Eunop of Cmops.unary_operation * expr
  | Ebinop of Cmops.binary_operation * expr * expr
  | Eload of chunk * expr

type stmt =
  | Sskip
  | Sassign of Ident.t * expr
  | Sstore of chunk * expr * expr
  | Scall of Ident.t option * signature * expr * expr list
  | Sseq of stmt * stmt
  | Sifthenelse of expr * stmt * stmt
  | Sloop of stmt
  | Sblock of stmt
  | Sexit of int
  | Sreturn of expr option

type coq_function = {
  fn_sig : signature;
  fn_params : Ident.t list;
  fn_vars : Ident.t list;  (** temporaries *)
  fn_stackspace : int;
  fn_body : stmt;
}

type program = (coq_function, unit) Ast.program

let internal_sig f = f.fn_sig
let link p1 p2 = Ast.link ~internal_sig p1 p2

(** {1 Semantics} *)

type env = value Ident.Map.t

type cont =
  | Kstop
  | Kseq of stmt * cont
  | Kblock of cont
  | Kcall of Ident.t option * coq_function * value (* sp *) * env * cont

type state =
  | State of coq_function * stmt * cont * value (* sp *) * env * Mem.t
  | Callstate of value * signature * value list * cont * Mem.t
  | Returnstate of value * cont * Mem.t

type genv = (coq_function, unit) Genv.t

let rec call_cont = function
  | Kseq (_, k) | Kblock k -> call_cont k
  | (Kstop | Kcall _) as k -> k

let rec eval_expr (ge : genv) (sp : value) (e : env) (m : Mem.t) (a : expr) :
    value option =
  match a with
  | Evar id -> Ident.Map.find_opt id e
  | Econst (Ointconst n) -> Some (Vint n)
  | Econst (Olongconst n) -> Some (Vlong n)
  | Econst (Ofloatconst f) -> Some (Vfloat f)
  | Econst (Osingleconst f) -> Some (Vsingle f)
  | Econst (Oaddrsymbol (id, ofs)) -> (
    match Genv.find_symbol ge id with
    | Some b -> Some (Vptr (b, ofs))
    | None -> None)
  | Econst (Oaddrstack ofs) -> (
    match sp with Vptr (b, base) -> Some (Vptr (b, base + ofs)) | _ -> None)
  | Eunop (op, a1) -> (
    match eval_expr ge sp e m a1 with
    | Some v -> Cmops.eval_unop op v
    | None -> None)
  | Ebinop (op, a1, a2) -> (
    match (eval_expr ge sp e m a1, eval_expr ge sp e m a2) with
    | Some v1, Some v2 -> Cmops.eval_binop op v1 v2 m
    | _ -> None)
  | Eload (chunk, a1) -> (
    match eval_expr ge sp e m a1 with
    | Some va -> Mem.loadv chunk m va
    | None -> None)

let eval_exprlist ge sp e m al =
  List.fold_right
    (fun a acc ->
      match (eval_expr ge sp e m a, acc) with
      | Some v, Some vs -> Some (v :: vs)
      | _ -> None)
    al (Some [])

let free_stack m sp sz =
  match sp with
  | Vptr (b, 0) -> Mem.free m b 0 sz
  | _ -> if sz = 0 then Some m else None

let step (ge : genv) (s : state) : (Core.Events.trace * state) list =
  let ret s' = [ (Core.Events.e0, s') ] in
  match s with
  | State (f, stmt, k, sp, e, m) -> (
    match stmt with
    | Sskip -> (
      match k with
      | Kseq (s2, k') -> ret (State (f, s2, k', sp, e, m))
      | Kblock k' -> ret (State (f, Sskip, k', sp, e, m))
      | Kcall _ | Kstop -> (
        if f.fn_sig.sig_res <> None then []
        else
          match free_stack m sp f.fn_stackspace with
          | Some m' -> ret (Returnstate (Vundef, k, m'))
          | None -> []))
    | Sassign (id, a) -> (
      match eval_expr ge sp e m a with
      | Some v -> ret (State (f, Sskip, k, sp, Ident.Map.add id v e, m))
      | None -> [])
    | Sstore (chunk, addr, a) -> (
      match (eval_expr ge sp e m addr, eval_expr ge sp e m a) with
      | Some vaddr, Some v -> (
        match Mem.storev chunk m vaddr v with
        | Some m' -> ret (State (f, Sskip, k, sp, e, m'))
        | None -> [])
      | _ -> [])
    | Scall (optid, sg, a, args) -> (
      match (eval_expr ge sp e m a, eval_exprlist ge sp e m args) with
      | Some vf, Some vargs ->
        ret (Callstate (vf, sg, vargs, Kcall (optid, f, sp, e, k), m))
      | _ -> [])
    | Sseq (s1, s2) -> ret (State (f, s1, Kseq (s2, k), sp, e, m))
    | Sifthenelse (a, s1, s2) -> (
      match eval_expr ge sp e m a with
      | Some (Vint n) -> ret (State (f, (if n <> 0l then s1 else s2), k, sp, e, m))
      | _ -> [])
    | Sloop s1 -> ret (State (f, s1, Kseq (Sloop s1, k), sp, e, m))
    | Sblock s1 -> ret (State (f, s1, Kblock k, sp, e, m))
    | Sexit n -> (
      match k with
      | Kseq (_, k') -> ret (State (f, Sexit n, k', sp, e, m))
      | Kblock k' ->
        if n = 0 then ret (State (f, Sskip, k', sp, e, m))
        else ret (State (f, Sexit (n - 1), k', sp, e, m))
      | _ -> [])
    | Sreturn None -> (
      match free_stack m sp f.fn_stackspace with
      | Some m' -> ret (Returnstate (Vundef, call_cont k, m'))
      | None -> [])
    | Sreturn (Some a) -> (
      match eval_expr ge sp e m a with
      | Some v -> (
        match free_stack m sp f.fn_stackspace with
        | Some m' -> ret (Returnstate (v, call_cont k, m'))
        | None -> [])
      | None -> []))
  | Callstate (vf, sg, args, k, m) -> (
    match Genv.find_funct ge vf with
    | Some (Ast.Internal f) ->
      if not (signature_equal sg f.fn_sig) then []
      else if List.length f.fn_params <> List.length args then []
      else
        let m1, b = Mem.alloc m 0 f.fn_stackspace in
        let e =
          List.fold_left
            (fun e id -> Ident.Map.add id Vundef e)
            Ident.Map.empty f.fn_vars
        in
        let e =
          List.fold_left2 (fun e id v -> Ident.Map.add id v e) e f.fn_params args
        in
        ret (State (f, f.fn_body, k, Vptr (b, 0), e, m1))
    | Some (Ast.External _) | None -> [])
  | Returnstate (v, k, m) -> (
    match k with
    | Kcall (optid, f, sp, e, k') ->
      let e' = match optid with Some id -> Ident.Map.add id v e | None -> e in
      ret (State (f, Sskip, k', sp, e', m))
    | _ -> [])

(** The Cminor open semantics on the persistent memory model: the
    reference that [test_mutstate] runs in lockstep with {!semantics}. *)
let semantics_naive ~(symbols : Ident.t list) (p : program) :
    (state, c_query, c_reply, c_query, c_reply) Core.Smallstep.lts =
  let ge = Genv.globalenv ~symbols p in
  {
    Core.Smallstep.name = "Cminor";
    dom =
      (fun q ->
        match Genv.find_funct ge q.cq_vf with
        | Some (Ast.Internal f) -> signature_equal q.cq_sg f.fn_sig
        | _ -> false);
    init = (fun q -> Callstate (q.cq_vf, q.cq_sg, q.cq_args, Kstop, q.cq_mem));
    step = (fun s -> step ge s);
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
        | _ -> invalid_arg "Cminor.after_external: not at an external call");
    final =
      (fun s ->
        match s with
        | Returnstate (v, Kstop, m) -> Some { cr_res = v; cr_mem = m }
        | _ -> None);
    handover = None;
  }

(** The Cminor open semantics: the same rules, on a memory the run owns
    between interaction points ({!Iface.Li.own_c}). *)
let semantics ~symbols p = own_c (semantics_naive ~symbols p)
