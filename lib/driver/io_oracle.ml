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

    The [A]-level oracle reads the arguments and answers through
    {!Iface.Callconv}'s [ca_arguments] and [ca_reply] — i.e. it is the
    assembly-level axiomatization of the primitives, related to the
    [C]-level one exactly as the paper's eq. (7) prescribes. *)

open Support
open Memory.Mtypes
open Memory.Values
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

(** The blocks of the primitives' symbols under the shared symbol table:
    the domain of an environment that provides [prims]. *)
let export_table ~(symbols : Ident.t list) (prims : primitive list) :
    (block * primitive) list =
  let symtbl, _ = Genv.make_symtbl symbols in
  Ident.Map.fold
    (fun id b acc ->
      match List.find_opt (fun p -> p.prim_name = Ident.name id) prims with
      | Some p -> (b, p) :: acc
      | None -> acc)
    symtbl []

(** The primitive a function value calls, if any. *)
let find_export table = function
  | Vptr (b, 0) -> List.assoc_opt b table
  | _ -> None

(** The arguments as integers ([None] unless all are: the primitives are
    integer-only). *)
let int_args (vs : value list) : int32 list option =
  List.fold_right
    (fun v acc ->
      match (v, acc) with Vint n, Some ns -> Some (n :: ns) | _ -> None)
    vs (Some [])

(* Answer a call of [p] and log it. *)
let answer p record args =
  let res = p.prim_impl args in
  record { call_name = p.prim_name; call_args = args; call_res = res };
  Vint res

(** The [C]-level oracle: answers queries whose function value resolves
    to a primitive's symbol. *)
let c_oracle ~symbols (prims : primitive list) record : c_query -> c_reply option
    =
  let table = export_table ~symbols prims in
  fun q ->
    match find_export table q.cq_vf with
    | Some p when signature_equal q.cq_sg p.prim_sig ->
      Option.map
        (fun args -> { cr_res = answer p record args; cr_mem = q.cq_mem })
        (int_args q.cq_args)
    | _ -> None

(** The [A]-level oracle: reads the arguments where the calling
    convention puts them, registers and stack alike, and returns per the
    convention. *)
let a_oracle ~symbols (prims : primitive list) record : a_query -> a_reply option
    =
  let table = export_table ~symbols prims in
  fun q ->
    match find_export table (Pregfile.get PC q.aq_rs) with
    | Some p ->
      let sg = p.prim_sig in
      Option.map
        (fun args -> Callconv.ca_reply ~sg ~res:(answer p record args) q)
        (int_args (Callconv.ca_arguments sg q))
    | None -> None
