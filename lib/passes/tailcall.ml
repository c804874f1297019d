(** Tailcall recognition (CompCert's [Tailcall]).

    Simulation convention: [ext ↠ ext] (Table 3).

    An [Icall] whose continuation immediately returns the call's result
    (possibly through [Inop]s) becomes [Itailcall], provided the function
    has no stack data (its stack block must be freeable before the call)
    and the callee's arguments all fit in registers (no outgoing stack
    area to preserve). *)

open Support.Errors
module Errors = Support.Errors
module R = Middle.Rtl

(* Does control starting at [n] do nothing but return [r]? Follows
   [Inop]s and moves of [r], as CompCert's [is_return] does. *)
let rec return_measures_to (code : R.code) (n : R.node) (r : R.reg) fuel =
  if fuel = 0 then false
  else
    match R.Code.get code n with
    | Some (R.Inop n') -> return_measures_to code n' r (fuel - 1)
    | Some (R.Iop (Middle.Op.Omove, [ src ], dst, n')) when src = r ->
      return_measures_to code n' dst (fuel - 1)
    | Some (R.Ireturn (Some r')) -> r = r'
    | _ -> false

let transf_instr (stacksize : int) (code : R.code) (i : R.instruction) :
    R.instruction =
  match i with
  | R.Icall (sg, ros, args, res, n)
    when stacksize = 0
         && Target.Conventions.size_arguments sg = 0
         && return_measures_to code n res 10 ->
    R.Itailcall (sg, ros, args)
  | _ -> i

let transf_function (f : R.coq_function) : R.coq_function Errors.t =
  ok
    {
      f with
      R.fn_code =
        R.Code.map (transf_instr f.R.fn_stacksize f.R.fn_code) f.R.fn_code;
    }

let transf_program (p : R.program) : R.program Errors.t =
  Iface.Ast.transform_program transf_function p
