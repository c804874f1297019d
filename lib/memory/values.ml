(** Runtime values and their operations (CompCert's [Values] library).

    A value is either an undefined value [Vundef], a 32- or 64-bit machine
    integer, a double- or single-precision float, or a pointer [Vptr (b, o)]
    into block [b] of the memory model at byte offset [o]. On our 64-bit
    target, pointers participate in 64-bit ("long") arithmetic. *)

open Mtypes

type block = int

type value =
  | Vundef
  | Vint of int32
  | Vlong of int64
  | Vfloat of float  (** double precision *)
  | Vsingle of float  (** single precision, kept 32-bit-rounded *)
  | Vptr of block * int

let vtrue = Vint 1l
let vfalse = Vint 0l
let of_bool b = if b then vtrue else vfalse

let pp fmt = function
  | Vundef -> Format.pp_print_string fmt "undef"
  | Vint n -> Format.fprintf fmt "%ld" n
  | Vlong n -> Format.fprintf fmt "%LdL" n
  | Vfloat f -> Format.fprintf fmt "%g" f
  | Vsingle f -> Format.fprintf fmt "%gf" f
  | Vptr (b, o) -> Format.fprintf fmt "&b%d+%d" b o

let to_string v = Format.asprintf "%a" pp v

(** Value equality, comparing float payloads by their bits, as
    CompCert's [Float.eq_dec] does: [0.0] and [-0.0] differ, and a NaN
    equals a NaN with the same bits. OCaml's [( = )] and [compare] get
    both cases wrong for this purpose, so no value comparison that must
    be exact reads them. *)
let equal (a : value) (b : value) =
  match (a, b) with
  | Vundef, Vundef -> true
  | Vint x, Vint y -> Int32.equal x y
  | Vlong x, Vlong y -> Int64.equal x y
  | Vfloat x, Vfloat y | Vsingle x, Vsingle y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Vptr (b1, o1), Vptr (b2, o2) -> b1 = b2 && o1 = o2
  | _ -> false

(** Round a float to single precision. *)
let to_single f = Int32.float_of_bits (Int32.bits_of_float f)

(** {1 Typing} *)

let has_type v t =
  match (v, t) with
  | Vundef, _ -> true
  | _, Tany64 -> true
  | Vint _, Tint -> true
  | Vlong _, Tlong -> true
  | Vptr _, Tlong -> true
  | Vfloat _, Tfloat -> true
  | Vsingle _, Tsingle -> true
  | _ -> false

let has_type_list vs ts =
  List.length vs = List.length ts && List.for_all2 has_type vs ts

let has_rettype v = function
  | Some t -> has_type v t
  | None -> true

(** {1 Value refinement}

    [lessdef v1 v2] is the refinement order [≤v] of the paper (§3.1):
    [Vundef] may be refined into any value. *)

let lessdef v1 v2 = match v1 with Vundef -> true | _ -> equal v1 v2
let lessdef_list l1 l2 =
  List.length l1 = List.length l2 && List.for_all2 lessdef l1 l2

(** {1 32-bit integer arithmetic} *)

let add v1 v2 =
  match (v1, v2) with
  | Vint a, Vint b -> Vint (Int32.add a b)
  | _ -> Vundef

let sub v1 v2 =
  match (v1, v2) with
  | Vint a, Vint b -> Vint (Int32.sub a b)
  | _ -> Vundef

let mul v1 v2 =
  match (v1, v2) with
  | Vint a, Vint b -> Vint (Int32.mul a b)
  | _ -> Vundef

let neg = function Vint a -> Vint (Int32.neg a) | _ -> Vundef

(* Division and modulus are partial: division by zero and the overflowing
   [min_int / -1] yield [None], mirroring CompCert. *)
let divs v1 v2 =
  match (v1, v2) with
  | Vint a, Vint b ->
    if b = 0l || (a = Int32.min_int && b = -1l) then None
    else Some (Vint (Int32.div a b))
  | _ -> None

let mods v1 v2 =
  match (v1, v2) with
  | Vint a, Vint b ->
    if b = 0l || (a = Int32.min_int && b = -1l) then None
    else Some (Vint (Int32.rem a b))
  | _ -> None

let divu v1 v2 =
  match (v1, v2) with
  | Vint a, Vint b ->
    if b = 0l then None else Some (Vint (Int32.unsigned_div a b))
  | _ -> None

let modu v1 v2 =
  match (v1, v2) with
  | Vint a, Vint b ->
    if b = 0l then None else Some (Vint (Int32.unsigned_rem a b))
  | _ -> None

let and_ v1 v2 =
  match (v1, v2) with
  | Vint a, Vint b -> Vint (Int32.logand a b)
  | _ -> Vundef

let or_ v1 v2 =
  match (v1, v2) with
  | Vint a, Vint b -> Vint (Int32.logor a b)
  | _ -> Vundef

let xor v1 v2 =
  match (v1, v2) with
  | Vint a, Vint b -> Vint (Int32.logxor a b)
  | _ -> Vundef

let notint = function Vint a -> Vint (Int32.lognot a) | _ -> Vundef

let shl v1 v2 =
  match (v1, v2) with
  | Vint a, Vint b when Int32.unsigned_to_int b <> None && Int32.to_int b < 32 ->
    Vint (Int32.shift_left a (Int32.to_int b))
  | _ -> Vundef

let shr v1 v2 =
  match (v1, v2) with
  | Vint a, Vint b when Int32.unsigned_to_int b <> None && Int32.to_int b < 32 ->
    Vint (Int32.shift_right a (Int32.to_int b))
  | _ -> Vundef

let shru v1 v2 =
  match (v1, v2) with
  | Vint a, Vint b when Int32.unsigned_to_int b <> None && Int32.to_int b < 32 ->
    Vint (Int32.shift_right_logical a (Int32.to_int b))
  | _ -> Vundef

(** Sign/zero extensions used by small-integer loads and casts. *)
let sign_ext nbits = function
  | Vint a ->
    let shift = 32 - nbits in
    Vint (Int32.shift_right (Int32.shift_left a shift) shift)
  | _ -> Vundef

let zero_ext nbits = function
  | Vint a ->
    let shift = 32 - nbits in
    Vint (Int32.shift_right_logical (Int32.shift_left a shift) shift)
  | _ -> Vundef

(** {1 64-bit integer and pointer arithmetic} *)

let addl v1 v2 =
  match (v1, v2) with
  | Vlong a, Vlong b -> Vlong (Int64.add a b)
  | Vptr (b, o), Vlong n | Vlong n, Vptr (b, o) -> Vptr (b, o + Int64.to_int n)
  | _ -> Vundef

let subl v1 v2 =
  match (v1, v2) with
  | Vlong a, Vlong b -> Vlong (Int64.sub a b)
  | Vptr (b, o), Vlong n -> Vptr (b, o - Int64.to_int n)
  | Vptr (b1, o1), Vptr (b2, o2) when b1 = b2 -> Vlong (Int64.of_int (o1 - o2))
  | _ -> Vundef

let mull v1 v2 =
  match (v1, v2) with
  | Vlong a, Vlong b -> Vlong (Int64.mul a b)
  | _ -> Vundef

let negl = function Vlong a -> Vlong (Int64.neg a) | _ -> Vundef

let divls v1 v2 =
  match (v1, v2) with
  | Vlong a, Vlong b ->
    if b = 0L || (a = Int64.min_int && b = -1L) then None
    else Some (Vlong (Int64.div a b))
  | _ -> None

let modls v1 v2 =
  match (v1, v2) with
  | Vlong a, Vlong b ->
    if b = 0L || (a = Int64.min_int && b = -1L) then None
    else Some (Vlong (Int64.rem a b))
  | _ -> None

let divlu v1 v2 =
  match (v1, v2) with
  | Vlong a, Vlong b ->
    if b = 0L then None else Some (Vlong (Int64.unsigned_div a b))
  | _ -> None

let modlu v1 v2 =
  match (v1, v2) with
  | Vlong a, Vlong b ->
    if b = 0L then None else Some (Vlong (Int64.unsigned_rem a b))
  | _ -> None

let andl v1 v2 =
  match (v1, v2) with
  | Vlong a, Vlong b -> Vlong (Int64.logand a b)
  | _ -> Vundef

let orl v1 v2 =
  match (v1, v2) with
  | Vlong a, Vlong b -> Vlong (Int64.logor a b)
  | _ -> Vundef

let xorl v1 v2 =
  match (v1, v2) with
  | Vlong a, Vlong b -> Vlong (Int64.logxor a b)
  | _ -> Vundef

let notl = function Vlong a -> Vlong (Int64.lognot a) | _ -> Vundef

let shll v1 v2 =
  match (v1, v2) with
  | Vlong a, Vint b when Int32.unsigned_to_int b <> None && Int32.to_int b < 64 ->
    Vlong (Int64.shift_left a (Int32.to_int b))
  | _ -> Vundef

let shrl v1 v2 =
  match (v1, v2) with
  | Vlong a, Vint b when Int32.unsigned_to_int b <> None && Int32.to_int b < 64 ->
    Vlong (Int64.shift_right a (Int32.to_int b))
  | _ -> Vundef

let shrlu v1 v2 =
  match (v1, v2) with
  | Vlong a, Vint b when Int32.unsigned_to_int b <> None && Int32.to_int b < 64 ->
    Vlong (Int64.shift_right_logical a (Int32.to_int b))
  | _ -> Vundef

(** {1 Floating-point arithmetic} *)

let addf v1 v2 =
  match (v1, v2) with Vfloat a, Vfloat b -> Vfloat (a +. b) | _ -> Vundef

let subf v1 v2 =
  match (v1, v2) with Vfloat a, Vfloat b -> Vfloat (a -. b) | _ -> Vundef

let mulf v1 v2 =
  match (v1, v2) with Vfloat a, Vfloat b -> Vfloat (a *. b) | _ -> Vundef

let divf v1 v2 =
  match (v1, v2) with Vfloat a, Vfloat b -> Vfloat (a /. b) | _ -> Vundef

let negf = function Vfloat a -> Vfloat (-.a) | _ -> Vundef
let absf = function Vfloat a -> Vfloat (Float.abs a) | _ -> Vundef

let addfs v1 v2 =
  match (v1, v2) with
  | Vsingle a, Vsingle b -> Vsingle (to_single (a +. b))
  | _ -> Vundef

let subfs v1 v2 =
  match (v1, v2) with
  | Vsingle a, Vsingle b -> Vsingle (to_single (a -. b))
  | _ -> Vundef

let mulfs v1 v2 =
  match (v1, v2) with
  | Vsingle a, Vsingle b -> Vsingle (to_single (a *. b))
  | _ -> Vundef

let divfs v1 v2 =
  match (v1, v2) with
  | Vsingle a, Vsingle b -> Vsingle (to_single (a /. b))
  | _ -> Vundef

let negfs = function Vsingle a -> Vsingle (-.a) | _ -> Vundef

(** {1 Conversions} *)

let longofint = function
  | Vint n -> Vlong (Int64.of_int32 n)
  | _ -> Vundef

let longofintu = function
  | Vint n -> Vlong (Int64.logand (Int64.of_int32 n) 0xFFFFFFFFL)
  | _ -> Vundef

let intoflong = function Vlong n -> Vint (Int64.to_int32 n) | _ -> Vundef

let floatofint = function Vint n -> Vfloat (Int32.to_float n) | _ -> Vundef

let intoffloat = function
  | Vfloat f ->
    if Float.is_nan f || f >= 2147483648.0 || f < -2147483904.0 then None
    else Some (Vint (Int32.of_float f))
  | _ -> None

let floatoflong = function Vlong n -> Vfloat (Int64.to_float n) | _ -> Vundef

let longoffloat = function
  | Vfloat f ->
    if Float.is_nan f || f >= 9.2233720368547758e18 || f < -9.3e18 then None
    else Some (Vlong (Int64.of_float f))
  | _ -> None

let singleoffloat = function Vfloat f -> Vsingle (to_single f) | _ -> Vundef
let floatofsingle = function Vsingle f -> Vfloat f | _ -> Vundef
let singleofint = function Vint n -> Vsingle (to_single (Int32.to_float n)) | _ -> Vundef

let intofsingle = function
  | Vsingle f ->
    if Float.is_nan f || f >= 2147483648.0 || f < -2147483904.0 then None
    else Some (Vint (Int32.of_float f))
  | _ -> None

(** {1 Comparisons}

    Pointer comparisons are only defined within a common block (the paper's
    memory model is block-structured; inter-block ordering is unspecified).
    Equality across distinct blocks requires validity of both pointers,
    which the caller-provided [valid m] predicate checks in the memory
    [m]; taking [m] as an argument, it needs no closure per comparison. *)

(* The two defined outcomes of a comparison, allocated once: a
   comparison builds no option. *)
let some_true = Some true
let some_false = Some false
let some_bool b = if b then some_true else some_false

let cmp_bool_of_int c (n : int) =
  match c with
  | Ceq -> n = 0
  | Cne -> n <> 0
  | Clt -> n < 0
  | Cle -> n <= 0
  | Cgt -> n > 0
  | Cge -> n >= 0

let cmp_bool c v1 v2 =
  match (v1, v2) with
  | Vint a, Vint b -> some_bool (cmp_bool_of_int c (Int32.compare a b))
  | _ -> None

let cmpu_bool c v1 v2 =
  match (v1, v2) with
  | Vint a, Vint b -> some_bool (cmp_bool_of_int c (Int32.unsigned_compare a b))
  | _ -> None

let cmpl_bool c v1 v2 =
  match (v1, v2) with
  | Vlong a, Vlong b -> some_bool (cmp_bool_of_int c (Int64.compare a b))
  | _ -> None

let cmplu_bool ~valid m c v1 v2 =
  match (v1, v2) with
  | Vlong a, Vlong b -> some_bool (cmp_bool_of_int c (Int64.unsigned_compare a b))
  | Vptr (b1, o1), Vptr (b2, o2) ->
    if b1 = b2 then
      if valid m b1 o1 && valid m b2 o2 then
        some_bool (cmp_bool_of_int c (Int.compare o1 o2))
      else None
    else if valid m b1 o1 && valid m b2 o2 then
      match c with Ceq -> some_false | Cne -> some_true | _ -> None
    else None
  | Vptr (b1, o1), Vlong 0L | Vlong 0L, Vptr (b1, o1) ->
    if valid m b1 o1 then
      match c with Ceq -> some_false | Cne -> some_true | _ -> None
    else None
  | _ -> None

let cmpf_bool c v1 v2 =
  match (v1, v2) with
  | Vfloat a, Vfloat b ->
    some_bool
      (match c with
      | Ceq -> a = b
      | Cne -> a <> b
      | Clt -> a < b
      | Cle -> a <= b
      | Cgt -> a > b
      | Cge -> a >= b)
  | _ -> None

let cmpfs_bool c v1 v2 =
  match (v1, v2) with
  | Vsingle a, Vsingle b -> cmpf_bool c (Vfloat a) (Vfloat b)
  | _ -> None

(** Normalize a value to a register type: keep values matching the type,
    turn everything else into [Vundef]. Used when reading uninitialized
    or ill-typed machine registers. *)
let load_result_typ t v = if has_type v t then v else Vundef
