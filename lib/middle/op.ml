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

(** {2 Operators and conditions by arity}

    [arity op] is the [Values] function that [eval_operation] applies
    for [op], with the operands it takes: an immediate becomes the
    function's constant second operand. [test cond] does the same for a
    condition. [eval_operation] and [eval_condition] read these tables,
    so each operator's semantics is written once; the threaded Asm
    decoder reads them too, once per instruction, and executes the
    function it finds on the registers. *)

type arity =
  | Move  (** one operand, returned as is *)
  | Const of value  (** a constant; any operands are ignored *)
  | Symbol of Ident.t * int  (** a global's address; operands ignored *)
  | Stack of int  (** an offset from [sp]; operands ignored *)
  | Unary of (value -> value)
  | Binary of (value -> value -> value)
  | Binary_imm of (value -> value -> value) * value
      (** one operand, and the immediate as the second *)
  | Unary_partial of (value -> value option)  (** [None] is stuck *)
  | Binary_partial of (value -> value -> value option)
  | Lea of addressing  (** the address as a value *)
  | Cmp of condition  (** the condition as [0], [1] or [Vundef] *)

(* The casts, applied to their width once. *)
let cast8signed = sign_ext 8
let cast8unsigned = zero_ext 8
let cast16signed = sign_ext 16
let cast16unsigned = zero_ext 16

let arity (op : operation) : arity =
  match op with
  | Omove -> Move
  | Ointconst n -> Const (Vint n)
  | Olongconst n -> Const (Vlong n)
  | Ofloatconst f -> Const (Vfloat f)
  | Osingleconst f -> Const (Vsingle f)
  | Oaddrsymbol (id, ofs) -> Symbol (id, ofs)
  | Oaddrstack ofs -> Stack ofs
  | Oadd -> Binary add
  | Oaddimm n -> Binary_imm (add, Vint n)
  | Osub -> Binary sub
  | Omul -> Binary mul
  | Omulimm n -> Binary_imm (mul, Vint n)
  | Odiv -> Binary_partial divs
  | Odivu -> Binary_partial divu
  | Omod -> Binary_partial mods
  | Omodu -> Binary_partial modu
  | Oand -> Binary and_
  | Oandimm n -> Binary_imm (and_, Vint n)
  | Oor -> Binary or_
  | Oorimm n -> Binary_imm (or_, Vint n)
  | Oxor -> Binary xor
  | Oxorimm n -> Binary_imm (xor, Vint n)
  | Oshl -> Binary shl
  | Oshlimm n -> Binary_imm (shl, Vint n)
  | Oshr -> Binary shr
  | Oshrimm n -> Binary_imm (shr, Vint n)
  | Oshru -> Binary shru
  | Oshruimm n -> Binary_imm (shru, Vint n)
  | Oneg -> Unary neg
  | Onot -> Unary notint
  | Ocast8signed -> Unary cast8signed
  | Ocast8unsigned -> Unary cast8unsigned
  | Ocast16signed -> Unary cast16signed
  | Ocast16unsigned -> Unary cast16unsigned
  | Oaddl -> Binary addl
  | Oaddlimm n -> Binary_imm (addl, Vlong n)
  | Osubl -> Binary subl
  | Omull -> Binary mull
  | Omullimm n -> Binary_imm (mull, Vlong n)
  | Odivl -> Binary_partial divls
  | Odivlu -> Binary_partial divlu
  | Omodl -> Binary_partial modls
  | Omodlu -> Binary_partial modlu
  | Oandl -> Binary andl
  | Oandlimm n -> Binary_imm (andl, Vlong n)
  | Oorl -> Binary orl
  | Oorlimm n -> Binary_imm (orl, Vlong n)
  | Oxorl -> Binary xorl
  | Oxorlimm n -> Binary_imm (xorl, Vlong n)
  | Oshll -> Binary shll
  | Oshllimm n -> Binary_imm (shll, Vint n)
  | Oshrl -> Binary shrl
  | Oshrlimm n -> Binary_imm (shrl, Vint n)
  | Oshrlu -> Binary shrlu
  | Oshrluimm n -> Binary_imm (shrlu, Vint n)
  | Onegl -> Unary negl
  | Onotl -> Unary notl
  | Olea addr -> Lea addr
  | Olongofint -> Unary longofint
  | Olongofintu -> Unary longofintu
  | Ointoflong -> Unary intoflong
  | Ofloatofint -> Unary floatofint
  | Ointoffloat -> Unary_partial intoffloat
  | Ofloatoflong -> Unary floatoflong
  | Olongoffloat -> Unary_partial longoffloat
  | Osingleoffloat -> Unary singleoffloat
  | Ofloatofsingle -> Unary floatofsingle
  | Osingleofint -> Unary singleofint
  | Ointofsingle -> Unary_partial intofsingle
  | Onegf -> Unary negf
  | Oabsf -> Unary absf
  | Oaddf -> Binary addf
  | Osubf -> Binary subf
  | Omulf -> Binary mulf
  | Odivf -> Binary divf
  | Onegfs -> Unary negfs
  | Oaddfs -> Binary addfs
  | Osubfs -> Binary subfs
  | Omulfs -> Binary mulfs
  | Odivfs -> Binary divfs
  | Ocmp c -> Cmp c

(** A condition by arity: the comparison it applies, of two operands
    or of one operand and an immediate. The memory is read only by the
    unsigned 64-bit comparisons, for the weak validity of pointers. *)
type test =
  | Test2 of (Mem.t -> value -> value -> bool option)
  | Test_imm of (Mem.t -> value -> value -> bool option) * value

let maskzero _ v n = match and_ v n with Vint r -> some_bool (r = 0l) | _ -> None
let masknotzero _ v n = match and_ v n with Vint r -> some_bool (r <> 0l) | _ -> None

let test (cond : condition) : test =
  match cond with
  | Ccomp c -> Test2 (fun _ v1 v2 -> cmp_bool c v1 v2)
  | Ccompu c -> Test2 (fun _ v1 v2 -> cmpu_bool c v1 v2)
  | Ccompimm (c, n) -> Test_imm ((fun _ v1 v2 -> cmp_bool c v1 v2), Vint n)
  | Ccompuimm (c, n) -> Test_imm ((fun _ v1 v2 -> cmpu_bool c v1 v2), Vint n)
  | Ccompl c -> Test2 (fun _ v1 v2 -> cmpl_bool c v1 v2)
  | Ccomplu c -> Test2 (fun m v1 v2 -> cmplu_bool ~valid:Mem.weak_valid_pointer m c v1 v2)
  | Ccomplimm (c, n) -> Test_imm ((fun _ v1 v2 -> cmpl_bool c v1 v2), Vlong n)
  | Ccompluimm (c, n) ->
    Test_imm ((fun m v1 v2 -> cmplu_bool ~valid:Mem.weak_valid_pointer m c v1 v2), Vlong n)
  | Ccompf c -> Test2 (fun _ v1 v2 -> cmpf_bool c v1 v2)
  | Ccompfs c -> Test2 (fun _ v1 v2 -> cmpfs_bool c v1 v2)
  | Cmaskzero n -> Test_imm (maskzero, Vint n)
  | Cmasknotzero n -> Test_imm (masknotzero, Vint n)

(** {2 The reference evaluators} *)

let eval_condition (cond : condition) (vl : value list) (m : Mem.t) : bool option =
  match (test cond, vl) with
  | Test2 f, [ v1; v2 ] -> f m v1 v2
  | Test_imm (f, n), [ v1 ] -> f m v1 n
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
  match (arity op, vl) with
  | Move, [ v ] -> Some v
  | Const v, _ -> Some v
  | Symbol (id, ofs), _ -> (
    match ge.find_symbol id with Some b -> Some (Vptr (b, ofs)) | None -> None)
  | Stack ofs, _ -> (
    match sp with Vptr (b, base) -> Some (Vptr (b, base + ofs)) | _ -> None)
  | Unary f, [ v ] -> Some (f v)
  | Binary f, [ v1; v2 ] -> Some (f v1 v2)
  | Binary_imm (f, n), [ v ] -> Some (f v n)
  | Unary_partial f, [ v ] -> f v
  | Binary_partial f, [ v1; v2 ] -> f v1 v2
  | Lea addr, _ -> eval_addressing ge sp addr vl
  | Cmp c, _ -> (
    match eval_condition c vl m with Some b -> Some (of_bool b) | None -> Some Vundef)
  | (Move | Unary _ | Binary _ | Binary_imm _ | Unary_partial _ | Binary_partial _), _
    ->
    None

(** Operator equality and order, comparing float constants by their
    bits ({!Values.equal}); on every other operator they agree with
    [( = )] and [compare], since the rest is first-order data without
    floats. *)
let compare_operation (a : operation) (b : operation) =
  match (a, b) with
  | Ofloatconst x, Ofloatconst y | Osingleconst x, Osingleconst y ->
    Int64.compare (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> compare a b

let equal_operation a b = compare_operation a b = 0

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
