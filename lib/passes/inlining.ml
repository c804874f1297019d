(** Function inlining (a restricted version of CompCert's [Inlining]).

    Simulation convention: [injp ↠ inj] (Table 3) — in full CompCert the
    inlined callee's stack block is merged into the caller's, which is
    what makes the pass injection-based. Our implementation restricts
    inlining to {e stackless leaf} functions (no stack data, no calls),
    so the block structure changes only by the disappearance of the
    callee's empty stack block; the convention assignment is preserved.

    Candidates: internal, small ([max_size] instructions), no stack data,
    no calls or tail calls, defined in the same translation unit. *)

open Support
open Support.Errors
module R = Middle.Rtl
module Op = Middle.Op

let max_size = 16

let is_inlinable (f : R.coq_function) : bool =
  f.R.fn_stacksize = 0
  && R.Code.cardinal f.R.fn_code <= max_size
  && R.Code.fold
       (fun _ i ok ->
         ok && match i with R.Icall _ | R.Itailcall _ -> false | _ -> true)
       f.R.fn_code true

(* Splice [callee]'s body into [st]'s code graph. Registers are shifted
   by [reg_base], nodes are remapped to fresh ones. Returns the entry
   node; [Ireturn]s become moves of the result into [res] followed by a
   jump to [cont]. *)
type splice_state = {
  code : R.instruction R.Code.builder;
  mutable next_node : int;
  mutable next_reg : int;
}

let splice (st : splice_state) (callee : R.coq_function) (args : R.reg list)
    (res : R.reg) (cont : R.node) : R.node =
  let reg_base = st.next_reg in
  st.next_reg <- st.next_reg + R.max_reg_function callee + 1;
  let shift_reg r = reg_base + r in
  (* The callee's nodes, in increasing order, take the next fresh nodes;
     [node_map.(n)] is -1 where the callee holds nothing. *)
  let node_map = Array.make (R.Code.size callee.R.fn_code) (-1) in
  R.Code.iter
    (fun n _ ->
      node_map.(n) <- st.next_node;
      st.next_node <- st.next_node + 1)
    callee.R.fn_code;
  let shift_node n =
    if n >= 0 && n < Array.length node_map && node_map.(n) >= 0 then node_map.(n)
    else raise Not_found
  in
  let fresh_node () =
    let n = st.next_node in
    st.next_node <- n + 1;
    n
  in
  R.Code.iter
    (fun n i ->
      let i' =
        match i with
        | R.Inop n' -> R.Inop (shift_node n')
        | R.Iop (op, iargs, ires, n') ->
          R.Iop (op, List.map shift_reg iargs, shift_reg ires, shift_node n')
        | R.Iload (c, a, iargs, d, n') ->
          R.Iload (c, a, List.map shift_reg iargs, shift_reg d, shift_node n')
        | R.Istore (c, a, iargs, s, n') ->
          R.Istore (c, a, List.map shift_reg iargs, shift_reg s, shift_node n')
        | R.Icond (c, iargs, n1, n2) ->
          R.Icond (c, List.map shift_reg iargs, shift_node n1, shift_node n2)
        | R.Ireturn (Some r) ->
          R.Iop (Op.Omove, [ shift_reg r ], res, cont)
        | R.Ireturn None -> R.Inop cont
        | R.Icall _ | R.Itailcall _ -> assert false
      in
      R.Code.set st.code (shift_node n) i')
    callee.R.fn_code;
  (* Parameter binding: moves from the argument registers. *)
  let entry = shift_node callee.R.fn_entrypoint in
  let rec bind params args cont =
    match (params, args) with
    | [], [] -> cont
    | p :: params', a :: args' ->
      (* Evaluate the tail first: it mutates [st.code]. *)
      let cont' = bind params' args' cont in
      let n = fresh_node () in
      R.Code.set st.code n (R.Iop (Op.Omove, [ a ], shift_reg p, cont'));
      n
    | _ -> cont
  in
  (* Bind right-to-left so the first move executes first. *)
  bind callee.R.fn_params args entry

let transf_function (candidates : R.coq_function Ident.Map.t)
    (f : R.coq_function) : R.coq_function Errors.t =
  let st =
    {
      code = R.Code.builder ~of_code:f.R.fn_code ();
      next_node = R.max_node f + 1;
      next_reg = R.max_reg_function f + 1;
    }
  in
  R.Code.iter
    (fun n i ->
      match i with
      | R.Icall (sg, R.Rsymbol id, args, res, cont) -> (
        match Ident.Map.find_opt id candidates with
        | Some callee when Memory.Mtypes.signature_equal sg callee.R.fn_sig
                           && List.length args = List.length callee.R.fn_params ->
          let entry = splice st callee args res cont in
          R.Code.set st.code n (R.Inop entry)
        | _ -> ())
      | _ -> ())
    f.R.fn_code;
  ok { f with R.fn_code = R.Code.freeze st.code }

let transf_program (p : R.program) : R.program Errors.t =
  let candidates =
    List.fold_left
      (fun acc (id, d) ->
        match d with
        | Iface.Ast.Gfun (Iface.Ast.Internal fn) when is_inlinable fn ->
          Ident.Map.add id fn acc
        | _ -> acc)
      Ident.Map.empty p.Iface.Ast.prog_defs
  in
  Iface.Ast.transform_program (transf_function candidates) p
