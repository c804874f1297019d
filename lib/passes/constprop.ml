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

(* The instruction at node [n], rewritten with what value analysis
   knows at its entrance; [i] itself where it knows nothing useful. *)
let transf_instr (va : VA.t) n (i : R.instruction) : R.instruction =
  match i with
  | R.Iop (Op.Omove, _, _, _)
  | R.Iop ((Op.Ointconst _ | Op.Olongconst _ | Op.Ofloatconst _ | Op.Osingleconst _), [], _, _)
    ->
    i
  | R.Iop (op, args, res, s) -> (
    (* If the whole operation is statically known, emit the constant. *)
    match if VA.folds va n then VA.eval_op va n op args else Vundef with
    | Vint k -> R.Iop (Op.Ointconst k, [], res, s)
    | Vlong k -> R.Iop (Op.Olongconst k, [], res, s)
    | Vfloat f -> R.Iop (Op.Ofloatconst f, [], res, s)
    | Vsingle f -> R.Iop (Op.Osingleconst f, [], res, s)
    | Vundef | Vptr _ -> (
      (* Otherwise strengthen operands: replace a known-constant second
         operand by the immediate form. *)
      match (op, args) with
      | (Op.Oadd | Op.Oaddl | Op.Omul | Op.Omull), [ r1; r2 ] -> (
        match (op, VA.const va n r2) with
        | Op.Oadd, Vint n2 -> R.Iop (Op.Oaddimm n2, [ r1 ], res, s)
        | Op.Oaddl, Vlong n2 -> R.Iop (Op.Oaddlimm n2, [ r1 ], res, s)
        | Op.Omul, Vint n2 -> R.Iop (Op.Omulimm n2, [ r1 ], res, s)
        | Op.Omull, Vlong n2 -> R.Iop (Op.Omullimm n2, [ r1 ], res, s)
        | _ -> i)
      | _ -> i))
  | R.Icond (cond, args, n1, n2) -> (
    match VA.eval_cond va n cond args with
    | Some true -> R.Inop n1
    | Some false -> R.Inop n2
    | None -> i)
  | _ -> i

let transf_function (f : R.coq_function) : R.coq_function Errors.t =
  let va = VA.analyze f in
  ok { f with R.fn_code = R.Code.rewrite (transf_instr va) f.R.fn_code }

let transf_program (p : R.program) : R.program Errors.t =
  Iface.Ast.transform_program transf_function p
