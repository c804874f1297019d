(** Machine operations, addressing modes and conditions (CompCert's
    [Op], x86-64-flavored).

    These are the operators of CminorSel, RTL, LTL, Linear, Mach and Asm.
    The [Selection] pass translates [Cmops] operators into these,
    recognizing immediate forms and addressing modes. *)

open Support
open Memory
open Memory.Mtypes
open Memory.Values

type condition =
  | Ccomp of comparison  (** signed 32-bit *)
  | Ccompu of comparison
  | Ccompimm of comparison * int32
  | Ccompuimm of comparison * int32
  | Ccompl of comparison  (** signed 64-bit *)
  | Ccomplu of comparison
  | Ccomplimm of comparison * int64
  | Ccompluimm of comparison * int64
  | Ccompf of comparison
  | Ccompfs of comparison
  | Cmaskzero of int32
  | Cmasknotzero of int32

type addressing =
  | Aindexed of int  (** r1 + ofs *)
  | Aindexed2 of int  (** r1 + r2 + ofs *)
  | Ascaled of int * int  (** r1 * scale + ofs *)
  | Aindexed2scaled of int * int  (** r1 + r2 * scale + ofs *)
  | Aglobal of Ident.t * int
  | Ainstack of int

type operation =
  | Omove
  | Ointconst of int32
  | Olongconst of int64
  | Ofloatconst of float
  | Osingleconst of float
  | Oaddrsymbol of Ident.t * int
  | Oaddrstack of int
  (* 32-bit integer arithmetic *)
  | Oadd | Oaddimm of int32
  | Osub
  | Omul | Omulimm of int32
  | Odiv | Odivu | Omod | Omodu
  | Oand | Oandimm of int32
  | Oor | Oorimm of int32
  | Oxor | Oxorimm of int32
  | Oshl | Oshlimm of int32
  | Oshr | Oshrimm of int32
  | Oshru | Oshruimm of int32
  | Oneg | Onot
  | Ocast8signed | Ocast8unsigned | Ocast16signed | Ocast16unsigned
  (* 64-bit integer arithmetic *)
  | Oaddl | Oaddlimm of int64
  | Osubl
  | Omull | Omullimm of int64
  | Odivl | Odivlu | Omodl | Omodlu
  | Oandl | Oandlimm of int64
  | Oorl | Oorlimm of int64
  | Oxorl | Oxorlimm of int64
  | Oshll | Oshllimm of int32
  | Oshrl | Oshrlimm of int32
  | Oshrlu | Oshrluimm of int32
  | Onegl | Onotl
  (* leaq-style address computation *)
  | Olea of addressing
  (* conversions *)
  | Olongofint | Olongofintu | Ointoflong
  | Ofloatofint | Ointoffloat
  | Ofloatoflong | Olongoffloat
  | Osingleoffloat | Ofloatofsingle
  | Osingleofint | Ointofsingle
  (* floating point *)
  | Onegf | Oabsf | Oaddf | Osubf | Omulf | Odivf
  | Onegfs | Oaddfs | Osubfs | Omulfs | Odivfs
  (* conditions *)
  | Ocmp of condition

(** {1 Evaluation} *)

type genv_view = { find_symbol : Ident.t -> block option }

let eval_condition (cond : condition) (vl : value list) (m : Mem.t) : bool option =
  let valid b o = Mem.weak_valid_pointer m b o in
  match (cond, vl) with
  | Ccomp c, [ v1; v2 ] -> cmp_bool c v1 v2
  | Ccompu c, [ v1; v2 ] -> cmpu_bool c v1 v2
  | Ccompimm (c, n), [ v1 ] -> cmp_bool c v1 (Vint n)
  | Ccompuimm (c, n), [ v1 ] -> cmpu_bool c v1 (Vint n)
  | Ccompl c, [ v1; v2 ] -> cmpl_bool c v1 v2
  | Ccomplu c, [ v1; v2 ] -> cmplu_bool ~valid c v1 v2
  | Ccomplimm (c, n), [ v1 ] -> cmpl_bool c v1 (Vlong n)
  | Ccompluimm (c, n), [ v1 ] -> cmplu_bool ~valid c v1 (Vlong n)
  | Ccompf c, [ v1; v2 ] -> cmpf_bool c v1 v2
  | Ccompfs c, [ v1; v2 ] -> cmpfs_bool c v1 v2
  | Cmaskzero n, [ v1 ] -> (
    match and_ v1 (Vint n) with Vint r -> Some (r = 0l) | _ -> None)
  | Cmasknotzero n, [ v1 ] -> (
    match and_ v1 (Vint n) with Vint r -> Some (r <> 0l) | _ -> None)
  | _ -> None

let eval_addressing (ge : genv_view) (sp : value) (addr : addressing)
    (vl : value list) : value option =
  let scale v s =
    match v with Vlong n -> Some (Vlong (Int64.mul n (Int64.of_int s))) | _ -> None
  in
  match (addr, vl) with
  | Aindexed ofs, [ v1 ] -> Some (addl v1 (Vlong (Int64.of_int ofs)))
  | Aindexed2 ofs, [ v1; v2 ] -> Some (addl (addl v1 v2) (Vlong (Int64.of_int ofs)))
  | Ascaled (sc, ofs), [ v1 ] -> (
    match scale v1 sc with
    | Some v -> Some (addl v (Vlong (Int64.of_int ofs)))
    | None -> None)
  | Aindexed2scaled (sc, ofs), [ v1; v2 ] -> (
    match scale v2 sc with
    | Some v -> Some (addl (addl v1 v) (Vlong (Int64.of_int ofs)))
    | None -> None)
  | Aglobal (id, ofs), [] -> (
    match ge.find_symbol id with Some b -> Some (Vptr (b, ofs)) | None -> None)
  | Ainstack ofs, [] -> (
    match sp with Vptr (b, base) -> Some (Vptr (b, base + ofs)) | _ -> None)
  | _ -> None

let eval_operation (ge : genv_view) (sp : value) (op : operation)
    (vl : value list) (m : Mem.t) : value option =
  let b1 f = match vl with [ v1 ] -> f v1 | _ -> None in
  let b2 f = match vl with [ v1; v2 ] -> f v1 v2 | _ -> None in
  let t1 f = b1 (fun v -> Some (f v)) in
  let t2 f = b2 (fun v1 v2 -> Some (f v1 v2)) in
  match op with
  | Omove -> b1 (fun v -> Some v)
  | Ointconst n -> Some (Vint n)
  | Olongconst n -> Some (Vlong n)
  | Ofloatconst f -> Some (Vfloat f)
  | Osingleconst f -> Some (Vsingle f)
  | Oaddrsymbol (id, ofs) -> (
    match ge.find_symbol id with Some b -> Some (Vptr (b, ofs)) | None -> None)
  | Oaddrstack ofs -> (
    match sp with Vptr (b, base) -> Some (Vptr (b, base + ofs)) | _ -> None)
  | Oadd -> t2 add
  | Oaddimm n -> t1 (fun v -> add v (Vint n))
  | Osub -> t2 sub
  | Omul -> t2 mul
  | Omulimm n -> t1 (fun v -> mul v (Vint n))
  | Odiv -> b2 divs
  | Odivu -> b2 divu
  | Omod -> b2 mods
  | Omodu -> b2 modu
  | Oand -> t2 and_
  | Oandimm n -> t1 (fun v -> and_ v (Vint n))
  | Oor -> t2 or_
  | Oorimm n -> t1 (fun v -> or_ v (Vint n))
  | Oxor -> t2 xor
  | Oxorimm n -> t1 (fun v -> xor v (Vint n))
  | Oshl -> t2 shl
  | Oshlimm n -> t1 (fun v -> shl v (Vint n))
  | Oshr -> t2 shr
  | Oshrimm n -> t1 (fun v -> shr v (Vint n))
  | Oshru -> t2 shru
  | Oshruimm n -> t1 (fun v -> shru v (Vint n))
  | Oneg -> t1 neg
  | Onot -> t1 notint
  | Ocast8signed -> t1 (sign_ext 8)
  | Ocast8unsigned -> t1 (zero_ext 8)
  | Ocast16signed -> t1 (sign_ext 16)
  | Ocast16unsigned -> t1 (zero_ext 16)
  | Oaddl -> t2 addl
  | Oaddlimm n -> t1 (fun v -> addl v (Vlong n))
  | Osubl -> t2 subl
  | Omull -> t2 mull
  | Omullimm n -> t1 (fun v -> mull v (Vlong n))
  | Odivl -> b2 divls
  | Odivlu -> b2 divlu
  | Omodl -> b2 modls
  | Omodlu -> b2 modlu
  | Oandl -> t2 andl
  | Oandlimm n -> t1 (fun v -> andl v (Vlong n))
  | Oorl -> t2 orl
  | Oorlimm n -> t1 (fun v -> orl v (Vlong n))
  | Oxorl -> t2 xorl
  | Oxorlimm n -> t1 (fun v -> xorl v (Vlong n))
  | Oshll -> t2 shll
  | Oshllimm n -> t1 (fun v -> shll v (Vint n))
  | Oshrl -> t2 shrl
  | Oshrlimm n -> t1 (fun v -> shrl v (Vint n))
  | Oshrlu -> t2 shrlu
  | Oshrluimm n -> t1 (fun v -> shrlu v (Vint n))
  | Onegl -> t1 negl
  | Onotl -> t1 notl
  | Olea addr -> eval_addressing ge sp addr vl
  | Olongofint -> t1 longofint
  | Olongofintu -> t1 longofintu
  | Ointoflong -> t1 intoflong
  | Ofloatofint -> t1 floatofint
  | Ointoffloat -> b1 intoffloat
  | Ofloatoflong -> t1 floatoflong
  | Olongoffloat -> b1 longoffloat
  | Osingleoffloat -> t1 singleoffloat
  | Ofloatofsingle -> t1 floatofsingle
  | Osingleofint -> t1 singleofint
  | Ointofsingle -> b1 intofsingle
  | Onegf -> t1 negf
  | Oabsf -> t1 absf
  | Oaddf -> t2 addf
  | Osubf -> t2 subf
  | Omulf -> t2 mulf
  | Odivf -> t2 divf
  | Onegfs -> t1 negfs
  | Oaddfs -> t2 addfs
  | Osubfs -> t2 subfs
  | Omulfs -> t2 mulfs
  | Odivfs -> t2 divfs
  | Ocmp c -> (
    match eval_condition c vl m with
    | Some b -> Some (of_bool b)
    | None -> Some Vundef)

(** The machine type of an operation's result (used by the register
    allocator and the [wt] reasoning). *)
let type_of_operation = function
  | Omove -> None (* polymorphic: type of its argument *)
  | Ointconst _ | Oadd | Oaddimm _ | Osub | Omul | Omulimm _ | Odiv | Odivu
  | Omod | Omodu | Oand | Oandimm _ | Oor | Oorimm _ | Oxor | Oxorimm _
  | Oshl | Oshlimm _ | Oshr | Oshrimm _ | Oshru | Oshruimm _ | Oneg | Onot
  | Ocast8signed | Ocast8unsigned | Ocast16signed | Ocast16unsigned
  | Ointoflong | Ointoffloat | Ointofsingle | Ocmp _ ->
    Some Tint
  | Olongconst _ | Oaddrsymbol _ | Oaddrstack _ | Oaddl | Oaddlimm _ | Osubl
  | Omull | Omullimm _ | Odivl | Odivlu | Omodl | Omodlu | Oandl | Oandlimm _
  | Oorl | Oorlimm _ | Oxorl | Oxorlimm _ | Oshll | Oshllimm _ | Oshrl
  | Oshrlimm _ | Oshrlu | Oshrluimm _ | Onegl | Onotl | Olea _ | Olongofint
  | Olongofintu | Olongoffloat ->
    Some Tlong
  | Ofloatconst _ | Ofloatofint | Ofloatoflong | Ofloatofsingle | Onegf
  | Oabsf | Oaddf | Osubf | Omulf | Odivf ->
    Some Tfloat
  | Osingleconst _ | Osingleoffloat | Osingleofint | Onegfs | Oaddfs
  | Osubfs | Omulfs | Odivfs ->
    Some Tsingle

(** {1 Printing} *)

let pp_condition fmt (c : condition) =
  let p = Format.fprintf in
  match c with
  | Ccomp c -> p fmt "cmp%a" pp_comparison c
  | Ccompu c -> p fmt "cmpu%a" pp_comparison c
  | Ccompimm (c, n) -> p fmt "cmp%a[%ld]" pp_comparison c n
  | Ccompuimm (c, n) -> p fmt "cmpu%a[%ld]" pp_comparison c n
  | Ccompl c -> p fmt "cmpl%a" pp_comparison c
  | Ccomplu c -> p fmt "cmplu%a" pp_comparison c
  | Ccomplimm (c, n) -> p fmt "cmpl%a[%Ld]" pp_comparison c n
  | Ccompluimm (c, n) -> p fmt "cmplu%a[%Ld]" pp_comparison c n
  | Ccompf c -> p fmt "cmpf%a" pp_comparison c
  | Ccompfs c -> p fmt "cmpfs%a" pp_comparison c
  | Cmaskzero n -> p fmt "maskzero[%ld]" n
  | Cmasknotzero n -> p fmt "masknotzero[%ld]" n

let pp_addressing fmt (a : addressing) =
  let p = Format.fprintf in
  match a with
  | Aindexed ofs -> p fmt "indexed(%d)" ofs
  | Aindexed2 ofs -> p fmt "indexed2(%d)" ofs
  | Ascaled (sc, ofs) -> p fmt "scaled(%d,%d)" sc ofs
  | Aindexed2scaled (sc, ofs) -> p fmt "indexed2scaled(%d,%d)" sc ofs
  | Aglobal (id, ofs) -> p fmt "&%a+%d" Ident.pp id ofs
  | Ainstack ofs -> p fmt "stack(%d)" ofs

let pp_operation fmt (op : operation) =
  let p = Format.fprintf in
  match op with
  | Omove -> p fmt "move"
  | Ointconst n -> p fmt "%ld" n
  | Olongconst n -> p fmt "%LdL" n
  | Ofloatconst f -> p fmt "%g" f
  | Osingleconst f -> p fmt "%gf" f
  | Oaddrsymbol (id, ofs) -> p fmt "&%a+%d" Ident.pp id ofs
  | Oaddrstack ofs -> p fmt "&stack+%d" ofs
  | Oadd -> p fmt "add"
  | Oaddimm n -> p fmt "add[%ld]" n
  | Osub -> p fmt "sub"
  | Omul -> p fmt "mul"
  | Omulimm n -> p fmt "mul[%ld]" n
  | Odiv -> p fmt "div" | Odivu -> p fmt "divu"
  | Omod -> p fmt "mod" | Omodu -> p fmt "modu"
  | Oand -> p fmt "and" | Oandimm n -> p fmt "and[%ld]" n
  | Oor -> p fmt "or" | Oorimm n -> p fmt "or[%ld]" n
  | Oxor -> p fmt "xor" | Oxorimm n -> p fmt "xor[%ld]" n
  | Oshl -> p fmt "shl" | Oshlimm n -> p fmt "shl[%ld]" n
  | Oshr -> p fmt "shr" | Oshrimm n -> p fmt "shr[%ld]" n
  | Oshru -> p fmt "shru" | Oshruimm n -> p fmt "shru[%ld]" n
  | Oneg -> p fmt "neg" | Onot -> p fmt "not"
  | Ocast8signed -> p fmt "cast8s" | Ocast8unsigned -> p fmt "cast8u"
  | Ocast16signed -> p fmt "cast16s" | Ocast16unsigned -> p fmt "cast16u"
  | Oaddl -> p fmt "addl" | Oaddlimm n -> p fmt "addl[%Ld]" n
  | Osubl -> p fmt "subl"
  | Omull -> p fmt "mull" | Omullimm n -> p fmt "mull[%Ld]" n
  | Odivl -> p fmt "divl" | Odivlu -> p fmt "divlu"
  | Omodl -> p fmt "modl" | Omodlu -> p fmt "modlu"
  | Oandl -> p fmt "andl" | Oandlimm n -> p fmt "andl[%Ld]" n
  | Oorl -> p fmt "orl" | Oorlimm n -> p fmt "orl[%Ld]" n
  | Oxorl -> p fmt "xorl" | Oxorlimm n -> p fmt "xorl[%Ld]" n
  | Oshll -> p fmt "shll" | Oshllimm n -> p fmt "shll[%ld]" n
  | Oshrl -> p fmt "shrl" | Oshrlimm n -> p fmt "shrl[%ld]" n
  | Oshrlu -> p fmt "shrlu" | Oshrluimm n -> p fmt "shrlu[%ld]" n
  | Onegl -> p fmt "negl" | Onotl -> p fmt "notl"
  | Olea a -> p fmt "lea %a" pp_addressing a
  | Olongofint -> p fmt "longofint" | Olongofintu -> p fmt "longofintu"
  | Ointoflong -> p fmt "intoflong"
  | Ofloatofint -> p fmt "floatofint" | Ointoffloat -> p fmt "intoffloat"
  | Ofloatoflong -> p fmt "floatoflong" | Olongoffloat -> p fmt "longoffloat"
  | Osingleoffloat -> p fmt "singleoffloat"
  | Ofloatofsingle -> p fmt "floatofsingle"
  | Osingleofint -> p fmt "singleofint" | Ointofsingle -> p fmt "intofsingle"
  | Onegf -> p fmt "negf" | Oabsf -> p fmt "absf"
  | Oaddf -> p fmt "addf" | Osubf -> p fmt "subf"
  | Omulf -> p fmt "mulf" | Odivf -> p fmt "divf"
  | Onegfs -> p fmt "negfs"
  | Oaddfs -> p fmt "addfs" | Osubfs -> p fmt "subfs"
  | Omulfs -> p fmt "mulfs" | Odivfs -> p fmt "divfs"
  | Ocmp c -> p fmt "cmp(%a)" pp_condition c
