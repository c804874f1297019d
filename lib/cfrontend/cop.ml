(** Type-directed semantics of C operators (CompCert's [Cop]).

    Casts, arithmetic with the usual conversions, pointer arithmetic, and
    comparisons — all defined over runtime values classified by their C
    types. Partial operations return [None] (undefined behavior). *)

open Memory
open Memory.Values
open Memory.Mtypes
open Ctypes

type unary_operation = Onotbool | Onotint | Oneg | Oabsfloat

type binary_operation =
  | Oadd | Osub | Omul | Odiv | Omod
  | Oand | Oor | Oxor | Oshl | Oshr
  | Oeq | One | Olt | Ogt | Ole | Oge

let pp_unop fmt op =
  Format.pp_print_string fmt
    (match op with Onotbool -> "!" | Onotint -> "~" | Oneg -> "-" | Oabsfloat -> "__abs")

let pp_binop fmt op =
  Format.pp_print_string fmt
    (match op with
    | Oadd -> "+" | Osub -> "-" | Omul -> "*" | Odiv -> "/" | Omod -> "%"
    | Oand -> "&" | Oor -> "|" | Oxor -> "^" | Oshl -> "<<" | Oshr -> ">>"
    | Oeq -> "==" | One -> "!=" | Olt -> "<" | Ogt -> ">" | Ole -> "<=" | Oge -> ">=")

(** {1 Classification of arithmetic} *)

type classification =
  | Cl_i of signedness  (** 32-bit integer computation *)
  | Cl_l of signedness  (** 64-bit integer computation *)
  | Cl_f  (** double *)
  | Cl_s  (** single *)
  | Cl_default

let classify_arith t1 t2 =
  match (t1, t2) with
  | Tfloat, _ | _, Tfloat -> Cl_f
  | Tsingle, _ | _, Tsingle -> Cl_s
  | Tlong g1, Tlong g2 ->
    Cl_l (if g1 = Unsigned || g2 = Unsigned then Unsigned else Signed)
  | Tlong g, Tint _ | Tint _, Tlong g -> Cl_l g
  | Tint (_, g1), Tint (_, g2) ->
    (* After promotion, both are 32-bit; unsigned wins only at I32. *)
    let u1 = (match t1 with Tint (I32, Unsigned) -> true | _ -> false) in
    let u2 = (match t2 with Tint (I32, Unsigned) -> true | _ -> false) in
    ignore g1; ignore g2;
    Cl_i (if u1 || u2 then Unsigned else Signed)
  | _ -> Cl_default

(** {1 Casts} *)

let cast_int_int sz sg v =
  match sz with
  | I8 -> (match sg with Signed -> sign_ext 8 v | Unsigned -> zero_ext 8 v)
  | I16 -> (match sg with Signed -> sign_ext 16 v | Unsigned -> zero_ext 16 v)
  | I32 -> v

(** [sem_cast v t_from t_to]: the value of [(t_to) v] where [v : t_from]. *)
let sem_cast (v : value) (tfrom : ty) (tto : ty) : value option =
  match (tfrom, tto) with
  | (Tint _ | Tlong _ | Tfloat | Tsingle | Tpointer _ | Tarray _ | Tfunction _), Tvoid
    ->
    Some v
  | Tint _, Tint (sz, sg) -> (
    match v with Vint _ -> Some (cast_int_int sz sg v) | _ -> None)
  | Tlong _, Tint (sz, sg) -> (
    match v with Vlong _ -> Some (cast_int_int sz sg (intoflong v)) | _ -> None)
  | Tfloat, Tint (sz, sg) -> (
    match intoffloat v with
    | Some v' -> Some (cast_int_int sz sg v')
    | None -> None)
  | Tsingle, Tint (sz, sg) -> (
    match intofsingle v with
    | Some v' -> Some (cast_int_int sz sg v')
    | None -> None)
  | Tint (_, sg), Tlong _ -> (
    match v with
    | Vint _ -> Some (if sg = Unsigned then longofintu v else longofint v)
    | _ -> None)
  | Tlong _, Tlong _ -> ( match v with Vlong _ -> Some v | _ -> None)
  | Tfloat, Tlong _ -> longoffloat v
  | Tsingle, Tlong _ -> ( match v with Vsingle f -> longoffloat (Vfloat f) | _ -> None)
  | Tint (_, sg), Tfloat -> (
    match v with
    | Vint n ->
      Some
        (if sg = Unsigned then Vfloat (Int64.to_float (Int64.logand (Int64.of_int32 n) 0xFFFFFFFFL))
         else floatofint v)
    | _ -> None)
  | Tlong _, Tfloat -> ( match v with Vlong _ -> Some (floatoflong v) | _ -> None)
  | Tfloat, Tfloat -> ( match v with Vfloat _ -> Some v | _ -> None)
  | Tsingle, Tfloat -> ( match v with Vsingle _ -> Some (floatofsingle v) | _ -> None)
  | Tint (_, sg), Tsingle -> (
    match v with
    | Vint n ->
      Some
        (if sg = Unsigned then
           Vsingle (to_single (Int64.to_float (Int64.logand (Int64.of_int32 n) 0xFFFFFFFFL)))
         else singleofint v)
    | _ -> None)
  | Tlong _, Tsingle -> (
    match v with Vlong n -> Some (Vsingle (to_single (Int64.to_float n))) | _ -> None)
  | Tfloat, Tsingle -> ( match v with Vfloat _ -> Some (singleoffloat v) | _ -> None)
  | Tsingle, Tsingle -> ( match v with Vsingle _ -> Some v | _ -> None)
  | (Tpointer _ | Tarray _ | Tfunction _), (Tpointer _) -> (
    match v with Vptr _ | Vlong _ -> Some v | _ -> None)
  | Tlong _, Tpointer _ -> ( match v with Vlong _ -> Some v | _ -> None)
  | Tint _, Tpointer _ -> (
    (* Integer-to-pointer casts: only constant 0 (null). *)
    match v with Vint 0l -> Some (Vlong 0L) | _ -> None)
  | (Tpointer _ | Tarray _ | Tfunction _), Tlong _ -> (
    match v with Vptr _ | Vlong _ -> Some v | _ -> None)
  | _ -> None

(** {1 Truth values} *)

let bool_val (v : value) (t : ty) (m : Mem.t) : bool option =
  match (t, v) with
  | Tint _, Vint n -> Some (n <> 0l)
  | Tlong _, Vlong n -> Some (n <> 0L)
  | Tfloat, Vfloat f -> Some (f <> 0.0)
  | Tsingle, Vsingle f -> Some (f <> 0.0)
  | (Tpointer _ | Tarray _ | Tfunction _), Vlong n -> Some (n <> 0L)
  | (Tpointer _ | Tarray _ | Tfunction _), Vptr (b, o) ->
    if Mem.weak_valid_pointer m b o then Some true else None
  | _ -> None

(** {1 Unary operators} *)

let sem_notbool v t m =
  match bool_val v t m with Some b -> Some (of_bool (not b)) | None -> None

let sem_notint v t =
  match (classify_arith t t, v) with
  | Cl_i _, Vint _ -> Some (notint v)
  | Cl_l _, Vlong _ -> Some (notl v)
  | _ -> None

let sem_neg v t =
  match (classify_arith t t, v) with
  | Cl_i _, Vint _ -> Some (neg v)
  | Cl_l _, Vlong _ -> Some (negl v)
  | Cl_f, Vfloat _ -> Some (negf v)
  | Cl_s, Vsingle _ -> Some (negfs v)
  | _ -> None

let sem_absfloat v t =
  match (classify_arith t t, v) with
  | Cl_f, Vfloat _ -> Some (absf v)
  | Cl_i _, Vint n -> Some (Vfloat (Float.abs (Int32.to_float n)))
  | _ -> None

let sem_unop op v t m =
  match op with
  | Onotbool -> sem_notbool v t m
  | Onotint -> sem_notint v t
  | Oneg -> sem_neg v t
  | Oabsfloat -> sem_absfloat v t

(** {1 Binary operators} *)

(* Promote both operands to the common arithmetic type. *)
let arith_conv cls v t =
  match cls with
  | Cl_i _ -> sem_cast v t tint
  | Cl_l g -> sem_cast v t (Tlong g)
  | Cl_f -> sem_cast v t Tfloat
  | Cl_s -> sem_cast v t Tsingle
  | _ -> None

let sem_binarith ~int_op ~long_op ~float_op ~single_op v1 t1 v2 t2 =
  let cls = classify_arith t1 t2 in
  match (arith_conv cls v1 t1, arith_conv cls v2 t2) with
  | Some v1', Some v2' -> (
    match cls with
    | Cl_i g -> int_op g v1' v2'
    | Cl_l g -> long_op g v1' v2'
    | Cl_f -> float_op v1' v2'
    | Cl_s -> single_op v1' v2'
    | _ -> None)
  | _ -> None

let is_pointer_ty = function Tpointer _ | Tarray _ -> true | _ -> false

let pointee = function
  | Tpointer t -> Some t
  | Tarray (t, _) -> Some t
  | _ -> None

let ptr_add t v1 v2 =
  (* v1 : pointer to t, v2 : integer index *)
  match pointee t with
  | None -> None
  | Some te -> (
    let sz = Int64.of_int (sizeof te) in
    match v2 with
    | Vint n -> Some (addl v1 (Vlong (Int64.mul sz (Int64.of_int32 n))))
    | Vlong n -> Some (addl v1 (Vlong (Int64.mul sz n)))
    | _ -> None)

let sem_add v1 t1 v2 t2 =
  if is_pointer_ty t1 && not (is_pointer_ty t2) then ptr_add t1 v1 v2
  else if is_pointer_ty t2 && not (is_pointer_ty t1) then ptr_add t2 v2 v1
  else
    sem_binarith
      ~int_op:(fun _ a b -> Some (add a b))
      ~long_op:(fun _ a b -> Some (addl a b))
      ~float_op:(fun a b -> Some (addf a b))
      ~single_op:(fun a b -> Some (addfs a b))
      v1 t1 v2 t2

let sem_sub v1 t1 v2 t2 =
  if is_pointer_ty t1 && not (is_pointer_ty t2) then (
    match v2 with
    | Vint n -> ptr_add t1 v1 (Vint (Int32.neg n))
    | Vlong n -> ptr_add t1 v1 (Vlong (Int64.neg n))
    | _ -> None)
  else if is_pointer_ty t1 && is_pointer_ty t2 then (
    (* Pointer difference, scaled by element size. *)
    match (pointee t1, subl v1 v2) with
    | Some te, Vlong d ->
      let sz = Int64.of_int (sizeof te) in
      if sz = 0L || Int64.rem d sz <> 0L then None
      else Some (Vlong (Int64.div d sz))
    | _ -> None)
  else
    sem_binarith
      ~int_op:(fun _ a b -> Some (sub a b))
      ~long_op:(fun _ a b -> Some (subl a b))
      ~float_op:(fun a b -> Some (subf a b))
      ~single_op:(fun a b -> Some (subfs a b))
      v1 t1 v2 t2

let sem_mul v1 t1 v2 t2 =
  sem_binarith
    ~int_op:(fun _ a b -> Some (mul a b))
    ~long_op:(fun _ a b -> Some (mull a b))
    ~float_op:(fun a b -> Some (mulf a b))
    ~single_op:(fun a b -> Some (mulfs a b))
    v1 t1 v2 t2

let sem_div v1 t1 v2 t2 =
  sem_binarith
    ~int_op:(fun g a b -> if g = Unsigned then divu a b else divs a b)
    ~long_op:(fun g a b -> if g = Unsigned then divlu a b else divls a b)
    ~float_op:(fun a b -> Some (divf a b))
    ~single_op:(fun a b -> Some (divfs a b))
    v1 t1 v2 t2

let sem_mod v1 t1 v2 t2 =
  sem_binarith
    ~int_op:(fun g a b -> if g = Unsigned then modu a b else mods a b)
    ~long_op:(fun g a b -> if g = Unsigned then modlu a b else modls a b)
    ~float_op:(fun _ _ -> None)
    ~single_op:(fun _ _ -> None)
    v1 t1 v2 t2

let sem_bitwise op v1 t1 v2 t2 =
  let i32 f = fun (_ : signedness) a b -> Some (f a b) in
  let i64 f = fun (_ : signedness) a b -> Some (f a b) in
  let none _ _ = None in
  match op with
  | `And -> sem_binarith ~int_op:(i32 and_) ~long_op:(i64 andl) ~float_op:none ~single_op:none v1 t1 v2 t2
  | `Or -> sem_binarith ~int_op:(i32 or_) ~long_op:(i64 orl) ~float_op:none ~single_op:none v1 t1 v2 t2
  | `Xor -> sem_binarith ~int_op:(i32 xor) ~long_op:(i64 xorl) ~float_op:none ~single_op:none v1 t1 v2 t2

(* Shifts do not apply the usual conversions to the right operand. *)
let sem_shift ~int_op ~long_op v1 t1 v2 t2 =
  let amount =
    match v2 with
    | Vint n -> Some n
    | Vlong n -> Some (Int64.to_int32 n)
    | _ -> None
  in
  match (classify_arith t1 t1, v1, amount, t2) with
  | Cl_i g, Vint _, Some n, (Tint _ | Tlong _) ->
    if Int32.unsigned_compare n 32l < 0 then int_op g v1 (Vint n) else None
  | Cl_l g, Vlong _, Some n, (Tint _ | Tlong _) ->
    if Int32.unsigned_compare n 64l < 0 then long_op g v1 (Vint n) else None
  | _ -> None

let sem_shl v1 t1 v2 t2 =
  sem_shift
    ~int_op:(fun _ a n -> Some (shl a n))
    ~long_op:(fun _ a n -> Some (shll a n))
    v1 t1 v2 t2

let sem_shr v1 t1 v2 t2 =
  sem_shift
    ~int_op:(fun g a n -> Some (if g = Unsigned then shru a n else shr a n))
    ~long_op:(fun g a n -> Some (if g = Unsigned then shrlu a n else shrl a n))
    v1 t1 v2 t2

let sem_cmp c v1 t1 v2 t2 m =
  if is_pointer_ty t1 || is_pointer_ty t2 then
    (* Pointer comparison at 64 bits. *)
    let norm v t =
      match (v, t) with
      | Vint n, Tint (_, Unsigned) -> Some (Vlong (Int64.logand (Int64.of_int32 n) 0xFFFFFFFFL))
      | Vint n, Tint (_, Signed) -> Some (Vlong (Int64.of_int32 n))
      | (Vlong _ | Vptr _), _ -> Some v
      | _ -> None
    in
    match (norm v1 t1, norm v2 t2) with
    | Some v1', Some v2' -> (
      match cmplu_bool ~valid:Mem.weak_valid_pointer m c v1' v2' with
      | Some b -> Some (of_bool b)
      | None -> None)
    | _ -> None
  else
    sem_binarith
      ~int_op:(fun g a b ->
        let r = if g = Unsigned then cmpu_bool c a b else cmp_bool c a b in
        Option.map of_bool r)
      ~long_op:(fun g a b ->
        let r =
          if g = Unsigned then cmplu_bool ~valid:Mem.weak_valid_pointer m c a b
          else cmpl_bool c a b
        in
        Option.map of_bool r)
      ~float_op:(fun a b -> Option.map of_bool (cmpf_bool c a b))
      ~single_op:(fun a b -> Option.map of_bool (cmpfs_bool c a b))
      v1 t1 v2 t2

let sem_binop op v1 t1 v2 t2 (m : Mem.t) : value option =
  match op with
  | Oadd -> sem_add v1 t1 v2 t2
  | Osub -> sem_sub v1 t1 v2 t2
  | Omul -> sem_mul v1 t1 v2 t2
  | Odiv -> sem_div v1 t1 v2 t2
  | Omod -> sem_mod v1 t1 v2 t2
  | Oand -> sem_bitwise `And v1 t1 v2 t2
  | Oor -> sem_bitwise `Or v1 t1 v2 t2
  | Oxor -> sem_bitwise `Xor v1 t1 v2 t2
  | Oshl -> sem_shl v1 t1 v2 t2
  | Oshr -> sem_shr v1 t1 v2 t2
  | Oeq -> sem_cmp Ceq v1 t1 v2 t2 m
  | One -> sem_cmp Cne v1 t1 v2 t2 m
  | Olt -> sem_cmp Clt v1 t1 v2 t2 m
  | Ogt -> sem_cmp Cgt v1 t1 v2 t2 m
  | Ole -> sem_cmp Cle v1 t1 v2 t2 m
  | Oge -> sem_cmp Cge v1 t1 v2 t2 m

(** The C type resulting from a binary operation (used by elaboration). *)
let type_binop op t1 t2 =
  match op with
  | Oeq | One | Olt | Ogt | Ole | Oge -> tint
  | Oadd when is_pointer_ty t1 -> Tpointer (Option.get (pointee t1))
  | Oadd when is_pointer_ty t2 -> Tpointer (Option.get (pointee t2))
  | Osub when is_pointer_ty t1 && is_pointer_ty t2 -> tlong
  | Osub when is_pointer_ty t1 -> Tpointer (Option.get (pointee t1))
  | Oshl | Oshr -> (
    match classify_arith t1 t1 with
    | Cl_l g -> Tlong g
    | Cl_i Unsigned -> tuint
    | _ -> tint)
  | _ -> (
    match classify_arith t1 t2 with
    | Cl_i Signed -> tint
    | Cl_i Unsigned -> tuint
    | Cl_l Signed -> tlong
    | Cl_l Unsigned -> tulong
    | Cl_f -> Tfloat
    | Cl_s -> Tsingle
    | _ -> tint)
