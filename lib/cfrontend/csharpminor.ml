(** Csharpminor: untyped expressions with explicit memory chunks, and
    block/exit control flow (CompCert's [Csharpminor]).

    Local variables have explicit byte sizes and live in per-variable
    memory blocks; temporaries live in a register-like environment.
    Structured [break]/[continue] are encoded with [Sblock]/[Sexit]. *)

open Support
open Memory
open Memory.Mtypes
open Memory.Values
open Memory.Memdata
open Iface
open Iface.Li

type constant =
  | Ointconst of int32
  | Olongconst of int64
  | Ofloatconst of float
  | Osingleconst of float

type expr =
  | Evar of Ident.t  (** temporary *)
  | Eaddrof of Ident.t  (** address of local variable or global symbol *)
  | Econst of constant
  | Eunop of Cmops.unary_operation * expr
  | Ebinop of Cmops.binary_operation * expr * expr
  | Eload of chunk * expr

type stmt =
  | Sskip
  | Sset of Ident.t * expr
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
  fn_vars : (Ident.t * int) list;  (** memory-resident, with byte sizes *)
  fn_temps : Ident.t list;
  fn_body : stmt;
}

type program = (coq_function, unit) Ast.program

let internal_sig f = f.fn_sig
let link p1 p2 = Ast.link ~internal_sig p1 p2

(** {1 Semantics} *)

type env = (block * int) Ident.Map.t
type temp_env = value Ident.Map.t

type cont =
  | Kstop
  | Kseq of stmt * cont
  | Kblock of cont
  | Kcall of Ident.t option * coq_function * env * temp_env * cont

type state =
  | State of coq_function * stmt * cont * env * temp_env * Mem.t
  | Callstate of value * signature * value list * cont * Mem.t
  | Returnstate of value * cont * Mem.t

type genv = (coq_function, unit) Genv.t

let rec call_cont = function
  | Kseq (_, k) | Kblock k -> call_cont k
  | (Kstop | Kcall _) as k -> k

let rec eval_expr (ge : genv) (e : env) (le : temp_env) (m : Mem.t) (a : expr) :
    value option =
  match a with
  | Evar id -> Ident.Map.find_opt id le
  | Eaddrof id -> (
    match Ident.Map.find_opt id e with
    | Some (b, _) -> Some (Vptr (b, 0))
    | None -> (
      match Genv.find_symbol ge id with
      | Some b -> Some (Vptr (b, 0))
      | None -> None))
  | Econst (Ointconst n) -> Some (Vint n)
  | Econst (Olongconst n) -> Some (Vlong n)
  | Econst (Ofloatconst f) -> Some (Vfloat f)
  | Econst (Osingleconst f) -> Some (Vsingle f)
  | Eunop (op, a1) -> (
    match eval_expr ge e le m a1 with
    | Some v -> Cmops.eval_unop op v
    | None -> None)
  | Ebinop (op, a1, a2) -> (
    match (eval_expr ge e le m a1, eval_expr ge e le m a2) with
    | Some v1, Some v2 -> Cmops.eval_binop op v1 v2 m
    | _ -> None)
  | Eload (chunk, a1) -> (
    match eval_expr ge e le m a1 with
    | Some va -> Mem.loadv chunk m va
    | None -> None)

let eval_exprlist ge e le m al =
  List.fold_right
    (fun a acc ->
      match (eval_expr ge e le m a, acc) with
      | Some v, Some vs -> Some (v :: vs)
      | _ -> None)
    al (Some [])

let alloc_variables m vars =
  List.fold_left
    (fun (e, m) (id, sz) ->
      let m, b = Mem.alloc m 0 sz in
      (Ident.Map.add id (b, sz) e, m))
    (Ident.Map.empty, m) vars

let blocks_of_env (e : env) =
  Ident.Map.fold (fun _ (b, sz) acc -> (b, 0, sz) :: acc) e []

let step (ge : genv) (s : state) : (Core.Events.trace * state) list =
  let ret s' = [ (Core.Events.e0, s') ] in
  match s with
  | State (f, stmt, k, e, le, m) -> (
    match stmt with
    | Sskip -> (
      match k with
      | Kseq (s2, k') -> ret (State (f, s2, k', e, le, m))
      | Kblock k' -> ret (State (f, Sskip, k', e, le, m))
      | Kcall _ | Kstop -> (
        if f.fn_sig.sig_res <> None then []
        else
          match Mem.free_list m (blocks_of_env e) with
          | Some m' -> ret (Returnstate (Vundef, k, m'))
          | None -> []))
    | Sset (id, a) -> (
      match eval_expr ge e le m a with
      | Some v -> ret (State (f, Sskip, k, e, Ident.Map.add id v le, m))
      | None -> [])
    | Sstore (chunk, addr, a) -> (
      match (eval_expr ge e le m addr, eval_expr ge e le m a) with
      | Some vaddr, Some v -> (
        match Mem.storev chunk m vaddr v with
        | Some m' -> ret (State (f, Sskip, k, e, le, m'))
        | None -> [])
      | _ -> [])
    | Scall (optid, sg, a, args) -> (
      match (eval_expr ge e le m a, eval_exprlist ge e le m args) with
      | Some vf, Some vargs ->
        ret (Callstate (vf, sg, vargs, Kcall (optid, f, e, le, k), m))
      | _ -> [])
    | Sseq (s1, s2) -> ret (State (f, s1, Kseq (s2, k), e, le, m))
    | Sifthenelse (a, s1, s2) -> (
      match eval_expr ge e le m a with
      | Some (Vint n) -> ret (State (f, (if n <> 0l then s1 else s2), k, e, le, m))
      | _ -> [])
    | Sloop s1 -> ret (State (f, s1, Kseq (Sloop s1, k), e, le, m))
    | Sblock s1 -> ret (State (f, s1, Kblock k, e, le, m))
    | Sexit n -> (
      match k with
      | Kseq (_, k') -> ret (State (f, Sexit n, k', e, le, m))
      | Kblock k' ->
        if n = 0 then ret (State (f, Sskip, k', e, le, m))
        else ret (State (f, Sexit (n - 1), k', e, le, m))
      | _ -> [])
    | Sreturn None -> (
      match Mem.free_list m (blocks_of_env e) with
      | Some m' -> ret (Returnstate (Vundef, call_cont k, m'))
      | None -> [])
    | Sreturn (Some a) -> (
      match eval_expr ge e le m a with
      | Some v -> (
        match Mem.free_list m (blocks_of_env e) with
        | Some m' -> ret (Returnstate (v, call_cont k, m'))
        | None -> [])
      | None -> []))
  | Callstate (vf, sg, args, k, m) -> (
    match Genv.find_funct ge vf with
    | Some (Ast.Internal f) ->
      if not (signature_equal sg f.fn_sig) then []
      else if List.length f.fn_params <> List.length args then []
      else
        let e, m1 = alloc_variables m f.fn_vars in
        let le =
          List.fold_left
            (fun le id -> Ident.Map.add id Vundef le)
            Ident.Map.empty f.fn_temps
        in
        let le =
          List.fold_left2
            (fun le id v -> Ident.Map.add id v le)
            le f.fn_params args
        in
        ret (State (f, f.fn_body, k, e, le, m1))
    | Some (Ast.External _) | None -> [])
  | Returnstate (v, k, m) -> (
    match k with
    | Kcall (optid, f, e, le, k') ->
      let le' = match optid with Some id -> Ident.Map.add id v le | None -> le in
      ret (State (f, Sskip, k', e, le', m))
    | _ -> [])

let semantics ~(symbols : Ident.t list) (p : program) :
    (state, c_query, c_reply, c_query, c_reply) Core.Smallstep.lts =
  let ge = Genv.globalenv ~symbols p in
  {
    Core.Smallstep.name = "Csharpminor";
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
        | _ -> invalid_arg "Csharpminor.after_external: not at an external call");
    final =
      (fun s ->
        match s with
        | Returnstate (v, Kstop, m) -> Some { cr_res = v; cr_mem = m }
        | _ -> None);
    handover = None;
  }
