(** Constant propagation over the results of value analysis (CompCert's
    [Constprop]).

    Simulation convention: [va·ext ↠ va·ext] (Table 3): the correctness
    argument relies on the abstract states computed by [Valueanalysis]
    soundly approximating the concrete states, which at interaction
    boundaries is exactly the [va] invariant. *)

open Support.Errors
module Errors = Support.Errors
open Memory.Values
module R = Middle.Rtl
module Op = Middle.Op
module VA = Middle.Valueanalysis

let const_for (v : value) : Op.operation option =
  match v with
  | Vint n -> Some (Op.Ointconst n)
  | Vlong n -> Some (Op.Olongconst n)
  | Vfloat f -> Some (Op.Ofloatconst f)
  | Vsingle f -> Some (Op.Osingleconst f)
  | Vundef | Vptr _ -> None

let transf_instr (ae : VA.aenv) (i : R.instruction) : R.instruction =
  match i with
  | R.Iop (op, args, res, n) -> (
    let avals = List.map (fun r -> VA.aenv_get r ae) args in
    (* If the whole operation is statically known, emit the constant. *)
    match VA.abstract_op op avals with
    | VA.Const v -> (
      match const_for v with
      | Some cop -> R.Iop (cop, [], res, n)
      | None -> i)
    | _ -> (
      (* Otherwise strengthen operands: replace a known-constant second
         operand by the immediate form. *)
      match (op, args, avals) with
      | Op.Oadd, [ r1; _ ], [ _; VA.Const (Vint n2) ] ->
        R.Iop (Op.Oaddimm n2, [ r1 ], res, n)
      | Op.Oaddl, [ r1; _ ], [ _; VA.Const (Vlong n2) ] ->
        R.Iop (Op.Oaddlimm n2, [ r1 ], res, n)
      | Op.Omul, [ r1; _ ], [ _; VA.Const (Vint n2) ] ->
        R.Iop (Op.Omulimm n2, [ r1 ], res, n)
      | Op.Omull, [ r1; _ ], [ _; VA.Const (Vlong n2) ] ->
        R.Iop (Op.Omullimm n2, [ r1 ], res, n)
      | _ -> i))
  | R.Icond (cond, args, n1, n2) -> (
    let avals = List.map (fun r -> VA.aenv_get r ae) args in
    match VA.abstract_cond cond avals with
    | Some true -> R.Inop n1
    | Some false -> R.Inop n2
    | None -> i)
  | _ -> i

let transf_function (f : R.coq_function) : R.coq_function Errors.t =
  let analysis = VA.analyze f in
  ok
    {
      f with
      R.fn_code = R.Code.mapi (fun n i -> transf_instr (analysis n) i) f.R.fn_code;
    }

let transf_program (p : R.program) : R.program Errors.t =
  Iface.Ast.transform_program transf_function p
