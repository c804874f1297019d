(** Branch tunneling: short-circuit chains of [Lnop]s (CompCert's
    [Tunneling], union-find based). Simulation convention: [ext ↠ ext]. *)

module Errors = Support.Errors
module L = Backend.Ltl

(* Union-find over nodes: the representative of [n] is the final target
   of the [Lnop] chain starting at [n], memoized in [target] (-1 while
   unknown). Cycles of [Lnop]s (infinite loops) keep their entry as
   representative, and a node without an instruction is its own. *)
let compute_targets (code : L.code) : int -> int =
  let target = Array.make (L.Code.size code) (-1) in
  let rec chase path n =
    if n < 0 || n >= Array.length target then n
    else if target.(n) >= 0 then target.(n)
    else if List.memq n path then n
    else
      match L.Code.get code n with
      | Some (L.Lnop n') ->
        let t = chase (n :: path) n' in
        target.(n) <- t;
        t
      | _ ->
        target.(n) <- n;
        n
  in
  fun n -> chase [] n

let transf_function (f : L.coq_function) : L.coq_function Errors.t =
  let t = compute_targets f.L.fn_code in
  let tr = function
    | L.Lnop n -> L.Lnop (t n)
    | L.Lop (op, args, res, n) -> L.Lop (op, args, res, t n)
    | L.Lload (c, a, args, d, n) -> L.Lload (c, a, args, d, t n)
    | L.Lstore (c, a, args, s, n) -> L.Lstore (c, a, args, s, t n)
    | L.Lgetstack (k, o, ty, d, n) -> L.Lgetstack (k, o, ty, d, t n)
    | L.Lsetstack (s, k, o, ty, n) -> L.Lsetstack (s, k, o, ty, t n)
    | L.Lcall (sg, ros, n) -> L.Lcall (sg, ros, t n)
    | L.Ltailcall _ as i -> i
    | L.Lcond (c, args, n1, n2) -> L.Lcond (c, args, t n1, t n2)
    | L.Lreturn -> L.Lreturn
  in
  Errors.ok
    {
      f with
      L.fn_code = L.Code.map tr f.L.fn_code;
      fn_entrypoint = t f.L.fn_entrypoint;
    }

let transf_program (p : L.program) : L.program Errors.t =
  Iface.Ast.transform_program transf_function p
