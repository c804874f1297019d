(** Abstract syntax of Clight (CompCert's [Clight]).

    Expressions are pure (side-effect-free); all side effects happen in
    statements. Every expression node carries its C type, established by
    the elaborator ([Ctyping]). Local variables are split into
    memory-resident variables ([fn_vars], addressable) and temporaries
    ([fn_temps], register-like, not addressable); the [SimplLocals] pass
    moves eligible variables from the former to the latter. *)

open Support
open Ctypes

type expr =
  | Econst_int of int32 * ty
  | Econst_long of int64 * ty
  | Econst_float of float * ty
  | Econst_single of float * ty
  | Evar of Ident.t * ty  (** memory-resident variable (local or global) *)
  | Etempvar of Ident.t * ty  (** temporary *)
  | Ederef of expr * ty
  | Eaddrof of expr * ty
  | Eunop of Cop.unary_operation * expr * ty
  | Ebinop of Cop.binary_operation * expr * expr * ty
  | Ecast of expr * ty
  | Esizeof of ty * ty

let typeof = function
  | Econst_int (_, t)
  | Econst_long (_, t)
  | Econst_float (_, t)
  | Econst_single (_, t)
  | Evar (_, t)
  | Etempvar (_, t)
  | Ederef (_, t)
  | Eaddrof (_, t)
  | Eunop (_, _, t)
  | Ebinop (_, _, _, t)
  | Ecast (_, t)
  | Esizeof (_, t) ->
    t

type stmt =
  | Sskip
  | Sassign of expr * expr  (** lvalue = rvalue, in memory *)
  | Sset of Ident.t * expr  (** temporary = rvalue *)
  | Scall of Ident.t option * expr * expr list
  | Ssequence of stmt * stmt
  | Sifthenelse of expr * stmt * stmt
  | Sloop of stmt * stmt
      (** infinite loop: body; continue-target. [break]/[continue] exit or
          advance it (CompCert encoding of while/for). *)
  | Sbreak
  | Scontinue
  | Sreturn of expr option

type coq_function = {
  fn_return : ty;
  fn_params : (Ident.t * ty) list;
  fn_vars : (Ident.t * ty) list;  (** memory-resident locals *)
  fn_temps : (Ident.t * ty) list;
  fn_body : stmt;
}

let fn_sig f =
  signature_of_type (List.map snd f.fn_params) f.fn_return

type program = (coq_function, ty) Iface.Ast.program

let internal_sig = fn_sig

(** Clight programs link through the generic operator with [fn_sig]. *)
let link p1 p2 = Iface.Ast.link ~internal_sig p1 p2
