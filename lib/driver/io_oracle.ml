(** Level-specific environment oracles for I/O primitives.

    Open components interact with their environment through outgoing
    questions; at different levels of the pipeline these questions take
    different shapes (C calls vs register files). This module implements
    the same environment behavior — a set of primitives keyed by symbol
    name, logging their invocations — at the [C] and [A] levels, so that
    the observable interaction sequences of a source component and its
    compiled form can be compared (the content of the paper's
    requirement #2: characterizing compiled components directly by their
    interactions).

    The [A]-level oracle decodes arguments from the argument registers
    and answers with the result register set and [PC := RA] — i.e. it is
    the assembly-level axiomatization of the primitives, related to the
    [C]-level one exactly as the paper's eq. (7) prescribes. *)

open Support
open Memory.Mtypes
open Memory.Values
open Target
open Iface
open Iface.Li

type primitive = {
  prim_name : string;
  prim_sig : signature;
  prim_impl : int32 list -> int32;  (** integer-only primitives *)
}

type log_entry = { call_name : string; call_args : int32 list; call_res : int32 }

(** Shared logging state: [make_log ()] gives a recorder and a reader. *)
let make_log () =
  let log = ref [] in
  let record e = log := e :: !log in
  (record, fun () -> List.rev !log)

let find_prim prims name =
  List.find_opt (fun p -> p.prim_name = name) prims

(* Resolve a function value against the shared symbol table. *)
let name_of_vf ~symbols vf =
  let symtbl, _ = Genv.make_symtbl symbols in
  match vf with
  | Vptr (b, 0) ->
    Ident.Map.fold
      (fun id b' acc -> if b = b' then Some (Ident.name id) else acc)
      symtbl None
  | _ -> None

(** The [C]-level oracle: answers queries whose function value resolves
    to a primitive's symbol. *)
let c_oracle ~symbols (prims : primitive list) record : c_query -> c_reply option
    =
 fun q ->
  match name_of_vf ~symbols q.cq_vf with
  | None -> None
  | Some name -> (
    match find_prim prims name with
    | Some p when signature_equal q.cq_sg p.prim_sig -> (
      let ints =
        List.fold_right
          (fun v acc ->
            match (v, acc) with
            | Vint n, Some ns -> Some (n :: ns)
            | _ -> None)
          q.cq_args (Some [])
      in
      match ints with
      | Some args ->
        let res = p.prim_impl args in
        record { call_name = name; call_args = args; call_res = res };
        Some { cr_res = Vint res; cr_mem = q.cq_mem }
      | None -> None)
    | _ -> None)

(** {1 The A-level calling convention of a primitive}

    Shared by the [A]-level oracle and the synthesized partners of
    [Robust.Partner], whose faithful replies are this oracle's. *)

(** Decode the integer arguments of a query per the convention's
    argument registers ([None] if any argument is not an integer in a
    register: the primitives are integer-only). *)
let decode_int_args ~(sg : signature) (rs : Pregfile.t) : int32 list option =
  List.fold_right
    (fun l acc ->
      match (l, acc) with
      | Locations.R r, Some ns -> (
        match Pregfile.get (Mreg r) rs with
        | Vint n -> Some (n :: ns)
        | _ -> None)
      | _ -> None)
    (Conventions.loc_arguments sg) (Some [])

(** The reply of a well-behaved callee: result in the result register,
    [PC := RA], everything else (registers and memory) untouched. *)
let convention_reply ~(sg : signature) ~(res : value) (q : a_query) : a_reply =
  let rs' =
    q.aq_rs
    |> Pregfile.set (Mreg (Conventions.loc_result sg)) res
    |> Pregfile.set PC (Pregfile.get RA q.aq_rs)
  in
  { ar_rs = rs'; ar_mem = q.aq_mem }

(** The [A]-level oracle: decodes the arguments from the calling
    convention's argument registers, and returns per the convention. *)
let a_oracle ~symbols (prims : primitive list) record : a_query -> a_reply option
    =
 fun q ->
  match name_of_vf ~symbols (Pregfile.get PC q.aq_rs) with
  | None -> None
  | Some name -> (
    match find_prim prims name with
    | Some p -> (
      match decode_int_args ~sg:p.prim_sig q.aq_rs with
      | Some args ->
        let res = p.prim_impl args in
        record { call_name = name; call_args = args; call_res = res };
        Some (convention_reply ~sg:p.prim_sig ~res:(Vint res) q)
      | None -> None)
    | None -> None)
