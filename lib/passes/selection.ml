(** Selection: instruction selection from Cminor to CminorSel (CompCert's
    [Selection]).

    Simulation convention: [wt · ext ↠ wt · ext] (Table 3). Smart
    constructors recognize immediate operands, addressing modes, and
    condition operators; unmatched shapes fall through to the generic
    forms. The smart constructors here are a representative subset of
    CompCert's (immediates, symbol/stack addressing, comparisons). *)

open Support.Errors
open Cfrontend.Cmops
module Cm = Middle.Cminor
module Sel = Middle.Cminorsel
module Op = Middle.Op

(** {1 Smart constructors} *)

let intconst n = Sel.Eop (Op.Ointconst n, [])
let longconst n = Sel.Eop (Op.Olongconst n, [])

let as_intconst = function Sel.Eop (Op.Ointconst n, []) -> Some n | _ -> None
let as_longconst = function Sel.Eop (Op.Olongconst n, []) -> Some n | _ -> None

(* Binary operator with an immediate form on the right. *)
let binop_imm ~op ~imm_op e1 e2 ~as_const =
  match as_const e2 with
  | Some n -> Sel.Eop (imm_op n, [ e1 ])
  | None -> Sel.Eop (op, [ e1; e2 ])

let sel_add e1 e2 =
  match (as_intconst e1, as_intconst e2) with
  | Some n1, Some n2 -> intconst (Int32.add n1 n2)
  | Some n, None -> Sel.Eop (Op.Oaddimm n, [ e2 ])
  | None, Some n -> Sel.Eop (Op.Oaddimm n, [ e1 ])
  | None, None -> Sel.Eop (Op.Oadd, [ e1; e2 ])

let sel_addl e1 e2 =
  match (as_longconst e1, as_longconst e2) with
  | Some n1, Some n2 -> longconst (Int64.add n1 n2)
  | Some n, None -> Sel.Eop (Op.Oaddlimm n, [ e2 ])
  | None, Some n -> Sel.Eop (Op.Oaddlimm n, [ e1 ])
  | None, None -> (
    (* Fold address computations into lea forms. *)
    match e1 with
    | Sel.Eop (Op.Oaddlimm n, [ e1' ]) ->
      Sel.Eop (Op.Olea (Op.Aindexed2 (Int64.to_int n)), [ e1'; e2 ])
    | _ -> Sel.Eop (Op.Oaddl, [ e1; e2 ]))

let sel_mull e1 e2 =
  match (as_longconst e1, as_longconst e2) with
  | Some n1, Some n2 -> longconst (Int64.mul n1 n2)
  | Some n, None -> Sel.Eop (Op.Omullimm n, [ e2 ])
  | None, Some n -> Sel.Eop (Op.Omullimm n, [ e1 ])
  | None, None -> Sel.Eop (Op.Omull, [ e1; e2 ])

let shift_amount e2 =
  match as_intconst e2 with
  | Some n when Int32.unsigned_compare n 64l < 0 -> Some n
  | _ -> None

let sel_shift ~op ~imm_op e1 e2 =
  match shift_amount e2 with
  | Some n -> Sel.Eop (imm_op n, [ e1 ])
  | None -> Sel.Eop (op, [ e1; e2 ])

(* Comparisons become Ocmp operations with immediate recognition. *)
let sel_comparison (c : Op.condition) (args : Sel.expr list) : Sel.expr =
  match (c, args) with
  | Op.Ccomp cc, [ e1; e2 ] -> (
    match as_intconst e2 with
    | Some n -> Sel.Eop (Op.Ocmp (Op.Ccompimm (cc, n)), [ e1 ])
    | None -> Sel.Eop (Op.Ocmp c, args))
  | Op.Ccompu cc, [ e1; e2 ] -> (
    match as_intconst e2 with
    | Some n -> Sel.Eop (Op.Ocmp (Op.Ccompuimm (cc, n)), [ e1 ])
    | None -> Sel.Eop (Op.Ocmp c, args))
  | Op.Ccompl cc, [ e1; e2 ] -> (
    match as_longconst e2 with
    | Some n -> Sel.Eop (Op.Ocmp (Op.Ccomplimm (cc, n)), [ e1 ])
    | None -> Sel.Eop (Op.Ocmp c, args))
  | Op.Ccomplu cc, [ e1; e2 ] -> (
    match as_longconst e2 with
    | Some n -> Sel.Eop (Op.Ocmp (Op.Ccompluimm (cc, n)), [ e1 ])
    | None -> Sel.Eop (Op.Ocmp c, args))
  | _ -> Sel.Eop (Op.Ocmp c, args)

let sel_unop (op : unary_operation) (e : Sel.expr) : Sel.expr =
  let simple o = Sel.Eop (o, [ e ]) in
  match op with
  | Ocast8unsigned -> simple Op.Ocast8unsigned
  | Ocast8signed -> simple Op.Ocast8signed
  | Ocast16unsigned -> simple Op.Ocast16unsigned
  | Ocast16signed -> simple Op.Ocast16signed
  | Onegint -> (
    match as_intconst e with
    | Some n -> intconst (Int32.neg n)
    | None -> simple Op.Oneg)
  | Onotint -> simple Op.Onot
  | Onegl -> simple Op.Onegl
  | Onotl -> simple Op.Onotl
  | Onegf -> simple Op.Onegf
  | Oabsf -> simple Op.Oabsf
  | Onegfs -> simple Op.Onegfs
  | Osingleoffloat -> simple Op.Osingleoffloat
  | Ofloatofsingle -> simple Op.Ofloatofsingle
  | Ointoffloat -> simple Op.Ointoffloat
  | Ofloatofint -> simple Op.Ofloatofint
  | Ointofsingle -> simple Op.Ointofsingle
  | Osingleofint -> simple Op.Osingleofint
  | Olongoffloat -> simple Op.Olongoffloat
  | Ofloatoflong -> simple Op.Ofloatoflong
  | Olongofint -> (
    match as_intconst e with
    | Some n -> longconst (Int64.of_int32 n)
    | None -> simple Op.Olongofint)
  | Olongofintu -> simple Op.Olongofintu
  | Ointoflong -> (
    match as_longconst e with
    | Some n -> intconst (Int64.to_int32 n)
    | None -> simple Op.Ointoflong)

let sel_binop (op : binary_operation) (e1 : Sel.expr) (e2 : Sel.expr) : Sel.expr =
  let simple o = Sel.Eop (o, [ e1; e2 ]) in
  match op with
  | Oadd -> sel_add e1 e2
  | Osub -> simple Op.Osub
  | Omul -> binop_imm ~op:Op.Omul ~imm_op:(fun n -> Op.Omulimm n) e1 e2 ~as_const:as_intconst
  | Odiv -> simple Op.Odiv
  | Odivu -> simple Op.Odivu
  | Omod -> simple Op.Omod
  | Omodu -> simple Op.Omodu
  | Oand -> binop_imm ~op:Op.Oand ~imm_op:(fun n -> Op.Oandimm n) e1 e2 ~as_const:as_intconst
  | Oor -> binop_imm ~op:Op.Oor ~imm_op:(fun n -> Op.Oorimm n) e1 e2 ~as_const:as_intconst
  | Oxor -> binop_imm ~op:Op.Oxor ~imm_op:(fun n -> Op.Oxorimm n) e1 e2 ~as_const:as_intconst
  | Oshl -> sel_shift ~op:Op.Oshl ~imm_op:(fun n -> Op.Oshlimm n) e1 e2
  | Oshr -> sel_shift ~op:Op.Oshr ~imm_op:(fun n -> Op.Oshrimm n) e1 e2
  | Oshru -> sel_shift ~op:Op.Oshru ~imm_op:(fun n -> Op.Oshruimm n) e1 e2
  | Oaddl -> sel_addl e1 e2
  | Osubl -> simple Op.Osubl
  | Omull -> sel_mull e1 e2
  | Odivl -> simple Op.Odivl
  | Odivlu -> simple Op.Odivlu
  | Omodl -> simple Op.Omodl
  | Omodlu -> simple Op.Omodlu
  | Oandl -> binop_imm ~op:Op.Oandl ~imm_op:(fun n -> Op.Oandlimm n) e1 e2 ~as_const:as_longconst
  | Oorl -> binop_imm ~op:Op.Oorl ~imm_op:(fun n -> Op.Oorlimm n) e1 e2 ~as_const:as_longconst
  | Oxorl -> binop_imm ~op:Op.Oxorl ~imm_op:(fun n -> Op.Oxorlimm n) e1 e2 ~as_const:as_longconst
  | Oshll -> sel_shift ~op:Op.Oshll ~imm_op:(fun n -> Op.Oshllimm n) e1 e2
  | Oshrl -> sel_shift ~op:Op.Oshrl ~imm_op:(fun n -> Op.Oshrlimm n) e1 e2
  | Oshrlu -> sel_shift ~op:Op.Oshrlu ~imm_op:(fun n -> Op.Oshrluimm n) e1 e2
  | Oaddf -> simple Op.Oaddf
  | Osubf -> simple Op.Osubf
  | Omulf -> simple Op.Omulf
  | Odivf -> simple Op.Odivf
  | Oaddfs -> simple Op.Oaddfs
  | Osubfs -> simple Op.Osubfs
  | Omulfs -> simple Op.Omulfs
  | Odivfs -> simple Op.Odivfs
  | Ocmp c -> sel_comparison (Op.Ccomp c) [ e1; e2 ]
  | Ocmpu c -> sel_comparison (Op.Ccompu c) [ e1; e2 ]
  | Ocmpl c -> sel_comparison (Op.Ccompl c) [ e1; e2 ]
  | Ocmplu c -> sel_comparison (Op.Ccomplu c) [ e1; e2 ]
  | Ocmpf c -> Sel.Eop (Op.Ocmp (Op.Ccompf c), [ e1; e2 ])
  | Ocmpfs c -> Sel.Eop (Op.Ocmp (Op.Ccompfs c), [ e1; e2 ])

(** Addressing-mode selection for loads and stores. *)
let sel_addressing (e : Sel.expr) : Op.addressing * Sel.expr list =
  match e with
  | Sel.Eop (Op.Oaddrsymbol (id, ofs), []) -> (Op.Aglobal (id, ofs), [])
  | Sel.Eop (Op.Oaddrstack ofs, []) -> (Op.Ainstack ofs, [])
  | Sel.Eop (Op.Oaddlimm n, [ e1 ]) -> (Op.Aindexed (Int64.to_int n), [ e1 ])
  | Sel.Eop (Op.Oaddl, [ e1; e2 ]) -> (Op.Aindexed2 0, [ e1; e2 ])
  | Sel.Eop (Op.Olea (Op.Aindexed2 n), [ e1; e2 ]) -> (Op.Aindexed2 n, [ e1; e2 ])
  | _ -> (Op.Aindexed 0, [ e ])

(** Condition selection: strip the [Ocmp] of a boolean-valued expression. *)
let sel_condition (e : Sel.expr) : Sel.condexpr =
  match e with
  | Sel.Eop (Op.Ocmp c, args) -> Sel.CEcond (c, args)
  | _ -> Sel.CEcond (Op.Ccompimm (Memory.Mtypes.Cne, 0l), [ e ])

(** {1 Translation} *)

let rec sel_expr (a : Cm.expr) : Sel.expr =
  match a with
  | Cm.Evar id -> Sel.Evar id
  | Cm.Econst (Cm.Ointconst n) -> intconst n
  | Cm.Econst (Cm.Olongconst n) -> longconst n
  | Cm.Econst (Cm.Ofloatconst f) -> Sel.Eop (Op.Ofloatconst f, [])
  | Cm.Econst (Cm.Osingleconst f) -> Sel.Eop (Op.Osingleconst f, [])
  | Cm.Econst (Cm.Oaddrsymbol (id, ofs)) -> Sel.Eop (Op.Oaddrsymbol (id, ofs), [])
  | Cm.Econst (Cm.Oaddrstack ofs) -> Sel.Eop (Op.Oaddrstack ofs, [])
  | Cm.Eunop (op, a1) -> sel_unop op (sel_expr a1)
  | Cm.Ebinop (op, a1, a2) -> sel_binop op (sel_expr a1) (sel_expr a2)
  | Cm.Eload (chunk, a1) ->
    let addr, args = sel_addressing (sel_expr a1) in
    Sel.Eload (chunk, addr, args)

let rec sel_stmt (s : Cm.stmt) : Sel.stmt Support.Errors.t =
  match s with
  | Cm.Sskip -> ok Sel.Sskip
  | Cm.Sassign (id, a) -> ok (Sel.Sassign (id, sel_expr a))
  | Cm.Sstore (chunk, addr, a) ->
    let am, args = sel_addressing (sel_expr addr) in
    ok (Sel.Sstore (chunk, am, args, sel_expr a))
  | Cm.Scall (optid, sg, a, args) ->
    ok (Sel.Scall (optid, sg, sel_expr a, List.map sel_expr args))
  | Cm.Sseq (s1, s2) ->
    let* s1' = sel_stmt s1 in
    let* s2' = sel_stmt s2 in
    ok (Sel.Sseq (s1', s2'))
  | Cm.Sifthenelse (a, s1, s2) ->
    let* s1' = sel_stmt s1 in
    let* s2' = sel_stmt s2 in
    ok (Sel.Sifthenelse (sel_condition (sel_expr a), s1', s2'))
  | Cm.Sloop s1 ->
    let* s1' = sel_stmt s1 in
    ok (Sel.Sloop s1')
  | Cm.Sblock s1 ->
    let* s1' = sel_stmt s1 in
    ok (Sel.Sblock s1')
  | Cm.Sexit n -> ok (Sel.Sexit n)
  | Cm.Sreturn None -> ok (Sel.Sreturn None)
  | Cm.Sreturn (Some a) -> ok (Sel.Sreturn (Some (sel_expr a)))

let transf_function (f : Cm.coq_function) : Sel.coq_function Support.Errors.t =
  let* body = sel_stmt f.Cm.fn_body in
  ok
    {
      Sel.fn_sig = f.Cm.fn_sig;
      fn_params = f.Cm.fn_params;
      fn_vars = f.Cm.fn_vars;
      fn_stackspace = f.Cm.fn_stackspace;
      fn_body = body;
    }

let transf_program (p : Cm.program) : Sel.program Support.Errors.t =
  Iface.Ast.transform_program transf_function p
