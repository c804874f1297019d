(** Program skeletons shared by all languages (CompCert's [AST]).

    A program is a list of global definitions (functions and variables)
    together with a distinguished [main]. Function definitions are either
    [Internal] (with a language-specific body ['fn]) or [External]
    (declared here, defined in another component or by the environment —
    these are what become {e outgoing questions} in the open semantics).

    The syntactic linking operator [+] of the paper (§3.1, Thm. 3.5)
    merges definition lists, resolving [External]/[Internal] pairs. *)

open Support
open Memory.Mtypes

type init_data =
  | Init_int8 of int32
  | Init_int16 of int32
  | Init_int32 of int32
  | Init_int64 of int64
  | Init_float32 of float
  | Init_float64 of float
  | Init_space of int
  | Init_addrof of Ident.t * int

let init_data_size = function
  | Init_int8 _ -> 1
  | Init_int16 _ -> 2
  | Init_int32 _ -> 4
  | Init_int64 _ -> 8
  | Init_float32 _ -> 4
  | Init_float64 _ -> 8
  | Init_space n -> max n 0
  | Init_addrof _ -> 8

let init_data_list_size l = List.fold_left (fun a d -> a + init_data_size d) 0 l

type 'v globvar = {
  gvar_info : 'v;  (** language-specific type information *)
  gvar_init : init_data list;
  gvar_readonly : bool;
}

(** External functions: known only by name and signature. Calls to them
    are the outgoing questions of a component's open semantics. *)
type external_function = { ef_name : Ident.t; ef_sig : signature }

type 'fn fundef = Internal of 'fn | External of external_function

let fundef_sig ~internal_sig = function
  | Internal f -> internal_sig f
  | External ef -> ef.ef_sig

type ('fn, 'v) globdef = Gfun of 'fn fundef | Gvar of 'v globvar

type ('fn, 'v) program = {
  prog_defs : (Ident.t * ('fn, 'v) globdef) list;
  prog_main : Ident.t;
}

let prog_defs_names p = List.map fst p.prog_defs

let find_def p id =
  List.assoc_opt id p.prog_defs

(** {1 Syntactic linking}

    [link p1 p2] merges the definitions of two translation units:
    - a definition present in only one unit is kept;
    - an [External] declaration links against an [Internal] definition
      with a matching signature;
    - two [External] declarations with equal signatures merge;
    - two [Internal] definitions of the same symbol clash;
    - variable definitions clash unless one of them is declaration-like
      ([Init_space]-only and matching size, a common-symbol approximation). *)

let link_fundef ~internal_sig id fd1 fd2 =
  match (fd1, fd2) with
  | Internal _, Internal _ ->
    Errors.error "multiple definitions of function %s" (Ident.name id)
  | Internal f, External ef | External ef, Internal f ->
    if signature_equal (internal_sig f) ef.ef_sig then Errors.ok (Internal f)
    else
      Errors.error "signature mismatch when linking function %s" (Ident.name id)
  | External ef1, External ef2 ->
    if signature_equal ef1.ef_sig ef2.ef_sig then Errors.ok (External ef1)
    else
      Errors.error "conflicting declarations of function %s" (Ident.name id)

let is_var_decl gv =
  List.for_all (function Init_space _ -> true | _ -> false) gv.gvar_init

let link_vardef id gv1 gv2 =
  let sz1 = init_data_list_size gv1.gvar_init in
  let sz2 = init_data_list_size gv2.gvar_init in
  if sz1 <> sz2 then
    Errors.error "size mismatch when linking variable %s" (Ident.name id)
  else if is_var_decl gv2 then Errors.ok gv1
  else if is_var_decl gv1 then Errors.ok gv2
  else Errors.error "multiple definitions of variable %s" (Ident.name id)

let link_def ~internal_sig id d1 d2 =
  match (d1, d2) with
  | Gfun fd1, Gfun fd2 ->
    Errors.map (fun fd -> Gfun fd) (link_fundef ~internal_sig id fd1 fd2)
  | Gvar gv1, Gvar gv2 -> Errors.map (fun gv -> Gvar gv) (link_vardef id gv1 gv2)
  | _ ->
    Errors.error "symbol %s defined both as function and variable"
      (Ident.name id)

let link ~internal_sig p1 p2 =
  let open Errors in
  let* merged =
    fold_list
      (fun acc (id, d2) ->
        match List.assoc_opt id acc with
        | None -> ok (acc @ [ (id, d2) ])
        | Some d1 ->
          let* d = link_def ~internal_sig id d1 d2 in
          ok (List.map (fun (id', d') -> if Ident.equal id id' then (id, d) else (id', d')) acc))
      p1.prog_defs p2.prog_defs
  in
  ok { prog_defs = merged; prog_main = p1.prog_main }

let link_list ~internal_sig = function
  | [] -> Errors.error "cannot link an empty list of programs"
  | p :: ps -> Errors.fold_list (fun acc q -> link ~internal_sig acc q) p ps

(** Transform the internal function bodies of a program (the shape of
    every compiler pass). *)
let transform_program (f : 'a -> 'b Errors.t) (p : ('a, 'v) program) :
    ('b, 'v) program Errors.t =
  let open Errors in
  let* defs =
    map_list
      (fun (id, d) ->
        match d with
        | Gfun (Internal fn) ->
          let* fn' = f fn in
          ok (id, Gfun (Internal fn'))
        | Gfun (External ef) -> ok (id, Gfun (External ef))
        | Gvar gv -> ok (id, Gvar gv))
      p.prog_defs
  in
  ok { p with prog_defs = defs }
