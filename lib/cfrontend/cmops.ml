(** Machine-level operators shared by Csharpminor, Cminor and CminorSel
    (CompCert's [Cminor] operator syntax and [Cminorsel]'s evaluation).

    Unlike the type-directed operators of [Cop], these are monomorphic:
    each operator fixes the machine types of its operands. *)

open Memory
open Memory.Mtypes
open Memory.Values

type unary_operation =
  | Ocast8unsigned | Ocast8signed | Ocast16unsigned | Ocast16signed
  | Onegint | Onotint
  | Onegl | Onotl
  | Onegf | Oabsf
  | Onegfs
  | Osingleoffloat | Ofloatofsingle
  | Ointoffloat | Ofloatofint
  | Ointofsingle | Osingleofint
  | Olongoffloat | Ofloatoflong
  | Olongofint | Olongofintu | Ointoflong

type binary_operation =
  | Oadd | Osub | Omul | Odiv | Odivu | Omod | Omodu
  | Oand | Oor | Oxor | Oshl | Oshr | Oshru
  | Oaddl | Osubl | Omull | Odivl | Odivlu | Omodl | Omodlu
  | Oandl | Oorl | Oxorl | Oshll | Oshrl | Oshrlu
  | Oaddf | Osubf | Omulf | Odivf
  | Oaddfs | Osubfs | Omulfs | Odivfs
  | Ocmp of comparison
  | Ocmpu of comparison
  | Ocmpl of comparison
  | Ocmplu of comparison
  | Ocmpf of comparison
  | Ocmpfs of comparison

let eval_unop (op : unary_operation) (v : value) : value option =
  match op with
  | Ocast8unsigned -> Some (zero_ext 8 v)
  | Ocast8signed -> Some (sign_ext 8 v)
  | Ocast16unsigned -> Some (zero_ext 16 v)
  | Ocast16signed -> Some (sign_ext 16 v)
  | Onegint -> Some (neg v)
  | Onotint -> Some (notint v)
  | Onegl -> Some (negl v)
  | Onotl -> Some (notl v)
  | Onegf -> Some (negf v)
  | Oabsf -> Some (absf v)
  | Onegfs -> Some (negfs v)
  | Osingleoffloat -> Some (singleoffloat v)
  | Ofloatofsingle -> Some (floatofsingle v)
  | Ointoffloat -> intoffloat v
  | Ofloatofint -> Some (floatofint v)
  | Ointofsingle -> intofsingle v
  | Osingleofint -> Some (singleofint v)
  | Olongoffloat -> longoffloat v
  | Ofloatoflong -> Some (floatoflong v)
  | Olongofint -> Some (longofint v)
  | Olongofintu -> Some (longofintu v)
  | Ointoflong -> Some (intoflong v)

let eval_binop (op : binary_operation) (v1 : value) (v2 : value) (m : Mem.t) :
    value option =
  let some v = match v with Vundef -> None | v -> Some v in
  match op with
  | Oadd -> some (add v1 v2)
  | Osub -> some (sub v1 v2)
  | Omul -> some (mul v1 v2)
  | Odiv -> divs v1 v2
  | Odivu -> divu v1 v2
  | Omod -> mods v1 v2
  | Omodu -> modu v1 v2
  | Oand -> some (and_ v1 v2)
  | Oor -> some (or_ v1 v2)
  | Oxor -> some (xor v1 v2)
  | Oshl -> some (shl v1 v2)
  | Oshr -> some (shr v1 v2)
  | Oshru -> some (shru v1 v2)
  | Oaddl -> some (addl v1 v2)
  | Osubl -> some (subl v1 v2)
  | Omull -> some (mull v1 v2)
  | Odivl -> divls v1 v2
  | Odivlu -> divlu v1 v2
  | Omodl -> modls v1 v2
  | Omodlu -> modlu v1 v2
  | Oandl -> some (andl v1 v2)
  | Oorl -> some (orl v1 v2)
  | Oxorl -> some (xorl v1 v2)
  | Oshll -> some (shll v1 v2)
  | Oshrl -> some (shrl v1 v2)
  | Oshrlu -> some (shrlu v1 v2)
  | Oaddf -> some (addf v1 v2)
  | Osubf -> some (subf v1 v2)
  | Omulf -> some (mulf v1 v2)
  | Odivf -> some (divf v1 v2)
  | Oaddfs -> some (addfs v1 v2)
  | Osubfs -> some (subfs v1 v2)
  | Omulfs -> some (mulfs v1 v2)
  | Odivfs -> some (divfs v1 v2)
  | Ocmp c -> Option.map of_bool (cmp_bool c v1 v2)
  | Ocmpu c -> Option.map of_bool (cmpu_bool c v1 v2)
  | Ocmpl c -> Option.map of_bool (cmpl_bool c v1 v2)
  | Ocmplu c -> Option.map of_bool (cmplu_bool ~valid:Mem.weak_valid_pointer m c v1 v2)
  | Ocmpf c -> Option.map of_bool (cmpf_bool c v1 v2)
  | Ocmpfs c -> Option.map of_bool (cmpfs_bool c v1 v2)

let pp_unop fmt op =
  Format.pp_print_string fmt
    (match op with
    | Ocast8unsigned -> "cast8u" | Ocast8signed -> "cast8s"
    | Ocast16unsigned -> "cast16u" | Ocast16signed -> "cast16s"
    | Onegint -> "negint" | Onotint -> "notint"
    | Onegl -> "negl" | Onotl -> "notl"
    | Onegf -> "negf" | Oabsf -> "absf" | Onegfs -> "negfs"
    | Osingleoffloat -> "singleoffloat" | Ofloatofsingle -> "floatofsingle"
    | Ointoffloat -> "intoffloat" | Ofloatofint -> "floatofint"
    | Ointofsingle -> "intofsingle" | Osingleofint -> "singleofint"
    | Olongoffloat -> "longoffloat" | Ofloatoflong -> "floatoflong"
    | Olongofint -> "longofint" | Olongofintu -> "longofintu"
    | Ointoflong -> "intoflong")

let pp_binop fmt op =
  let cmp s c = Format.asprintf "%s%a" s pp_comparison c in
  Format.pp_print_string fmt
    (match op with
    | Oadd -> "+" | Osub -> "-" | Omul -> "*" | Odiv -> "/s" | Odivu -> "/u"
    | Omod -> "%s" | Omodu -> "%u" | Oand -> "&" | Oor -> "|" | Oxor -> "^"
    | Oshl -> "<<" | Oshr -> ">>s" | Oshru -> ">>u"
    | Oaddl -> "+l" | Osubl -> "-l" | Omull -> "*l" | Odivl -> "/ls"
    | Odivlu -> "/lu" | Omodl -> "%ls" | Omodlu -> "%lu" | Oandl -> "&l"
    | Oorl -> "|l" | Oxorl -> "^l" | Oshll -> "<<l" | Oshrl -> ">>ls"
    | Oshrlu -> ">>lu"
    | Oaddf -> "+f" | Osubf -> "-f" | Omulf -> "*f" | Odivf -> "/f"
    | Oaddfs -> "+fs" | Osubfs -> "-fs" | Omulfs -> "*fs" | Odivfs -> "/fs"
    | Ocmp c -> cmp "cmp" c
    | Ocmpu c -> cmp "cmpu" c
    | Ocmpl c -> cmp "cmpl" c
    | Ocmplu c -> cmp "cmplu" c
    | Ocmpf c -> cmp "cmpf" c
    | Ocmpfs c -> cmp "cmpfs" c)
