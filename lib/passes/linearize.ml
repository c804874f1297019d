(** Linearize: lay out the LTL control-flow graph as a list of Linear
    instructions (CompCert's [Linearize]). Simulation convention:
    [id ↠ id].

    Reachable nodes are enumerated depth-first; each node becomes a label
    followed by its instruction, with explicit [Lgoto]s where the chosen
    order does not fall through. *)

module Errors = Support.Errors
module L = Backend.Ltl
module Lin = Backend.Linear

let enumerate (f : L.coq_function) : int list =
  (* An ill-formed instruction may name a node beyond the code; such a
     node holds nothing, and is marked in [beyond]. *)
  let visited = Array.make (L.Code.size f.L.fn_code) false in
  let beyond = ref [] in
  let order = ref [] in
  let rec dfs n =
    if n >= 0 && n < Array.length visited then begin
      if not visited.(n) then begin
        visited.(n) <- true;
        order := n :: !order;
        match L.Code.get f.L.fn_code n with
        | Some i -> List.iter dfs (L.successors_instr i)
        | None -> ()
      end
    end
    else if not (List.memq n !beyond) then begin
      beyond := n :: !beyond;
      order := n :: !order
    end
  in
  dfs f.L.fn_entrypoint;
  List.rev !order

let transf_function (f : L.coq_function) : Lin.coq_function Errors.t =
  let order = enumerate f in
  (* Labels are node numbers. *)
  let code = ref [] in
  let emit i = code := i :: !code in
  let rec fills = function
    | [] -> ()
    | n :: rest ->
      emit (Lin.Llabel n);
      (match L.Code.get f.L.fn_code n with
      | None -> ()
      | Some i -> (
        let goto_unless_next target =
          match rest with
          | next :: _ when next = target -> ()
          | _ -> emit (Lin.Lgoto target)
        in
        match i with
        | L.Lnop n' -> goto_unless_next n'
        | L.Lop (op, args, res, n') ->
          emit (Lin.Lop (op, args, res));
          goto_unless_next n'
        | L.Lload (c, a, args, d, n') ->
          emit (Lin.Lload (c, a, args, d));
          goto_unless_next n'
        | L.Lstore (c, a, args, s, n') ->
          emit (Lin.Lstore (c, a, args, s));
          goto_unless_next n'
        | L.Lgetstack (k, o, ty, d, n') ->
          emit (Lin.Lgetstack (k, o, ty, d));
          goto_unless_next n'
        | L.Lsetstack (s, k, o, ty, n') ->
          emit (Lin.Lsetstack (s, k, o, ty));
          goto_unless_next n'
        | L.Lcall (sg, ros, n') ->
          emit
            (Lin.Lcall
               ( sg,
                 match ros with
                 | L.Rreg r -> Lin.Rreg r
                 | L.Rsymbol id -> Lin.Rsymbol id ));
          goto_unless_next n'
        | L.Ltailcall (sg, ros) ->
          emit
            (Lin.Ltailcall
               ( sg,
                 match ros with
                 | L.Rreg r -> Lin.Rreg r
                 | L.Rsymbol id -> Lin.Rsymbol id ))
        | L.Lcond (c, args, n1, n2) ->
          (* Branch to n1, fall through (or goto) n2. *)
          emit (Lin.Lcond (c, args, n1));
          goto_unless_next n2
        | L.Lreturn -> emit Lin.Lreturn));
      fills rest
  in
  fills order;
  Errors.ok
    {
      Lin.fn_sig = f.L.fn_sig;
      fn_stacksize = f.L.fn_stacksize;
      fn_code = List.rev !code;
    }

let transf_program (p : L.program) : Lin.program Errors.t =
  Iface.Ast.transform_program transf_function p
