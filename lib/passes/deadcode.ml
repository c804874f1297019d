(** Dead-code elimination based on liveness (a neededness-lite version of
    CompCert's [Deadcode]).

    Simulation convention: [va·ext ↠ va·ext] (Table 3).

    Pure instructions whose destination is dead at the program point
    after them are turned into [Inop]. Loads are removed too (they are
    side-effect-free); stores, calls and control flow are kept. *)

open Support.Errors
module Errors = Support.Errors
module R = Middle.Rtl
module Op = Middle.Op
module RSet = Middle.Liveness.RSet

(* Operations that may be partial (division by zero) still go wrong when
   executed, so removing them when dead strictly increases definedness —
   which the [ext] direction of the convention allows. *)
let transf_instr (live_out : RSet.t) (i : R.instruction) : R.instruction =
  match i with
  | R.Iop (_, _, res, n) when not (RSet.mem res live_out) -> R.Inop n
  | R.Iload (_, _, _, dst, n) when not (RSet.mem dst live_out) -> R.Inop n
  | _ -> i

let transf_function (f : R.coq_function) : R.coq_function Errors.t =
  let live_out = Middle.Liveness.analyze_out f in
  ok
    {
      f with
      R.fn_code = R.Code.mapi (fun n i -> transf_instr (live_out n) i) f.R.fn_code;
    }

let transf_program (p : R.program) : R.program Errors.t =
  Iface.Ast.transform_program transf_function p
