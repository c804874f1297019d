(** Dead-code elimination by liveness (CompCert's [Deadcode] without its
    neededness analysis).

    Simulation convention: [va·ext ↠ va·ext] (Table 3).

    Pure instructions whose destination is dead at the program point
    after them are turned into [Inop]. Loads are removed too (they are
    side-effect-free); stores, calls and control flow are kept. *)

open Support.Errors
module Errors = Support.Errors
module R = Middle.Rtl
module Op = Middle.Op
module Liveness = Middle.Liveness

(* Operations that may be partial (division by zero) still go wrong when
   executed, so removing them when dead strictly increases definedness —
   which the [ext] direction of the convention allows. *)
let transf_instr (live : Liveness.solution) n (i : R.instruction) : R.instruction =
  match i with
  | R.Iop (_, _, res, s) when not (Liveness.is_live_out live n res) -> R.Inop s
  | R.Iload (_, _, _, dst, s) when not (Liveness.is_live_out live n dst) -> R.Inop s
  | _ -> i

let transf_function (f : R.coq_function) : R.coq_function Errors.t =
  let live = Liveness.solve f in
  ok { f with R.fn_code = R.Code.rewrite (transf_instr live) f.R.fn_code }

let transf_program (p : R.program) : R.program Errors.t =
  Iface.Ast.transform_program transf_function p
