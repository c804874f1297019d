(** RTLgen: translate CminorSel's structured statements into an RTL
    control-flow graph (CompCert's [RTLgen]).

    Simulation convention: [ext ↠ ext] (Table 3).

    The translation is destination-driven and built back-to-front: each
    statement/expression is translated given the node to continue at, and
    returns its entry node. [Sexit n] jumps to the n-th enclosing exit
    node; loops go through a reserved node that is patched once the body
    entry is known. *)

open Support
open Support.Errors
module Sel = Middle.Cminorsel
module R = Middle.Rtl
module Op = Middle.Op

type state = {
  code : R.instruction R.Code.builder;
  mutable next_node : int;
  mutable next_reg : int;
}

let new_state () = { code = R.Code.builder (); next_node = 1; next_reg = 1 }

let fresh_reg st =
  let r = st.next_reg in
  st.next_reg <- r + 1;
  r

let add_instr st i =
  let n = st.next_node in
  st.next_node <- n + 1;
  R.Code.set st.code n i;
  n

let reserve_node st =
  let n = st.next_node in
  st.next_node <- n + 1;
  n

let patch_node st n i = R.Code.set st.code n i

(* Variable environment: CminorSel locals to RTL registers. *)
type venv = R.reg Ident.Map.t

let var_reg (env : venv) id =
  match Ident.Map.find_opt id env with
  | Some r -> ok r
  | None -> error "unbound variable %s" (Ident.name id)

(** Translate expression [a] into register [dst], continuing at [nd];
    returns the entry node. *)
let rec transl_expr st (env : venv) (a : Sel.expr) (dst : R.reg) (nd : R.node) :
    R.node Errors.t =
  match a with
  | Sel.Evar id ->
    let* r = var_reg env id in
    ok (add_instr st (R.Iop (Op.Omove, [ r ], dst, nd)))
  | Sel.Eop (op, args) ->
    let regs = List.map (fun _ -> fresh_reg st) args in
    let n1 = add_instr st (R.Iop (op, regs, dst, nd)) in
    transl_exprlist st env args regs n1
  | Sel.Eload (chunk, addr, args) ->
    let regs = List.map (fun _ -> fresh_reg st) args in
    let n1 = add_instr st (R.Iload (chunk, addr, regs, dst, nd)) in
    transl_exprlist st env args regs n1

and transl_exprlist st env (al : Sel.expr list) (dsts : R.reg list) (nd : R.node)
    : R.node Errors.t =
  match (al, dsts) with
  | [], [] -> ok nd
  | a :: al', r :: dsts' ->
    let* n1 = transl_exprlist st env al' dsts' nd in
    transl_expr st env a r n1
  | _ -> error "transl_exprlist: arity mismatch"

let transl_condexpr st env (Sel.CEcond (cond, args)) (ntrue : R.node)
    (nfalse : R.node) : R.node Errors.t =
  let regs = List.map (fun _ -> fresh_reg st) args in
  let n1 = add_instr st (R.Icond (cond, regs, ntrue, nfalse)) in
  transl_exprlist st env args regs n1

(** Translate statement [s]; [nd] is the continuation node, [nexits] the
    stack of exit nodes for [Sexit], [nret] the return node (shared
    [Ireturn None]), [rret] the register for return values. *)
let rec transl_stmt st (env : venv) (s : Sel.stmt) (nd : R.node)
    (nexits : R.node list) (rret : R.reg) : R.node Errors.t =
  match s with
  | Sel.Sskip -> ok nd
  | Sel.Sassign (id, a) ->
    let* r = var_reg env id in
    transl_expr st env a r nd
  | Sel.Sstore (chunk, addr, args, a) ->
    let regs = List.map (fun _ -> fresh_reg st) args in
    let src = fresh_reg st in
    let n1 = add_instr st (R.Istore (chunk, addr, regs, src, nd)) in
    let* n2 = transl_expr st env a src n1 in
    transl_exprlist st env args regs n2
  | Sel.Scall (optid, sg, a, args) ->
    let* rres =
      match optid with
      | Some id -> var_reg env id
      | None -> ok (fresh_reg st)
    in
    let regs = List.map (fun _ -> fresh_reg st) args in
    (match a with
    | Sel.Eop (Op.Oaddrsymbol (id, 0), []) ->
      let n1 = add_instr st (R.Icall (sg, R.Rsymbol id, regs, rres, nd)) in
      transl_exprlist st env args regs n1
    | _ ->
      let rf = fresh_reg st in
      let n1 = add_instr st (R.Icall (sg, R.Rreg rf, regs, rres, nd)) in
      let* n2 = transl_exprlist st env args regs n1 in
      transl_expr st env a rf n2)
  | Sel.Sseq (s1, s2) ->
    let* n2 = transl_stmt st env s2 nd nexits rret in
    transl_stmt st env s1 n2 nexits rret
  | Sel.Sifthenelse (c, s1, s2) ->
    let* n1 = transl_stmt st env s1 nd nexits rret in
    let* n2 = transl_stmt st env s2 nd nexits rret in
    transl_condexpr st env c n1 n2
  | Sel.Sloop s1 ->
    let nloop = reserve_node st in
    let* nbody = transl_stmt st env s1 nloop nexits rret in
    patch_node st nloop (R.Inop nbody);
    ok nbody
  | Sel.Sblock s1 -> transl_stmt st env s1 nd (nd :: nexits) rret
  | Sel.Sexit n -> (
    match List.nth_opt nexits n with
    | Some nx -> ok nx
    | None -> error "Sexit out of range")
  | Sel.Sreturn None -> ok (add_instr st (R.Ireturn None))
  | Sel.Sreturn (Some a) ->
    let n1 = add_instr st (R.Ireturn (Some rret)) in
    transl_expr st env a rret n1

let transf_function (f : Sel.coq_function) : R.coq_function Errors.t =
  let st = new_state () in
  let env =
    List.fold_left
      (fun env id -> Ident.Map.add id (fresh_reg st) env)
      Ident.Map.empty (f.Sel.fn_params @ f.Sel.fn_vars)
  in
  let rret = fresh_reg st in
  (* Fall-through at the end of the body returns void. *)
  let nret = add_instr st (R.Ireturn None) in
  let* entry = transl_stmt st env f.Sel.fn_body nret [] rret in
  let params = List.map (fun id -> Ident.Map.find id env) f.Sel.fn_params in
  ok
    {
      R.fn_sig = f.Sel.fn_sig;
      fn_params = params;
      fn_stacksize = f.Sel.fn_stackspace;
      fn_code = R.Code.freeze st.code;
      fn_entrypoint = entry;
    }

let transf_program (p : Sel.program) : R.program Errors.t =
  Iface.Ast.transform_program transf_function p
