(** Renumber: renumber CFG nodes densely in reachability order
    (CompCert's [Renumber]). Simulation convention: [id ↠ id]. *)

open Support.Errors
module Errors = Support.Errors
module R = Middle.Rtl

let transf_function (f : R.coq_function) : R.coq_function Errors.t =
  let code = f.R.fn_code in
  (* Depth-first enumeration from the entry point: [mapping.(n)] is [n]'s
     new number, 0 while unvisited. An ill-formed instruction may name a
     node beyond the code; such a node holds nothing, and its number is
     kept in [beyond]. *)
  let mapping = Array.make (R.Code.size code) 0 in
  let beyond = ref [] in
  let next = ref 1 in
  let fresh () =
    let k = !next in
    incr next;
    k
  in
  let rec visit n =
    if n >= 0 && n < Array.length mapping then begin
      if mapping.(n) = 0 then begin
        mapping.(n) <- fresh ();
        match R.Code.get code n with
        | Some i -> List.iter visit (R.successors_instr i)
        | None -> ()
      end
    end
    else if not (List.mem_assoc n !beyond) then beyond := (n, fresh ()) :: !beyond
  in
  visit f.R.fn_entrypoint;
  let renum n =
    if n >= 0 && n < Array.length mapping then
      if mapping.(n) > 0 then mapping.(n) else n
    else Option.value (List.assoc_opt n !beyond) ~default:n
  in
  let renum_instr = function
    | R.Inop n -> R.Inop (renum n)
    | R.Iop (op, args, res, n) -> R.Iop (op, args, res, renum n)
    | R.Iload (c, a, args, d, n) -> R.Iload (c, a, args, d, renum n)
    | R.Istore (c, a, args, s, n) -> R.Istore (c, a, args, s, renum n)
    | R.Icall (sg, ros, args, res, n) -> R.Icall (sg, ros, args, res, renum n)
    | R.Itailcall _ as i -> i
    | R.Icond (c, args, n1, n2) -> R.Icond (c, args, renum n1, renum n2)
    | R.Ireturn _ as i -> i
  in
  let b = R.Code.builder () in
  R.Code.iter
    (fun n i ->
      (* an unreachable node is dropped *)
      if mapping.(n) > 0 then R.Code.set b mapping.(n) (renum_instr i))
    code;
  ok { f with R.fn_code = R.Code.freeze b; fn_entrypoint = renum f.R.fn_entrypoint }

let transf_program (p : R.program) : R.program Errors.t =
  Iface.Ast.transform_program transf_function p
