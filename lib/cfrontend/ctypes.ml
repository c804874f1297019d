(** C type expressions (CompCert's [Ctypes], restricted).

    Supported: void; integer types of 8/16/32 bits (signed/unsigned) and
    64-bit [long]; [double] and [float]; pointers; arrays; function types.
    Structs, unions and varargs are out of scope (documented in
    DESIGN.md). *)

open Memory.Memdata
module MT = Memory.Mtypes

type intsize = I8 | I16 | I32
type signedness = Signed | Unsigned

type ty =
  | Tvoid
  | Tint of intsize * signedness
  | Tlong of signedness
  | Tfloat  (** double *)
  | Tsingle  (** float *)
  | Tpointer of ty
  | Tarray of ty * int
  | Tfunction of ty list * ty

let tint = Tint (I32, Signed)
let tuint = Tint (I32, Unsigned)
let tlong = Tlong Signed
let tulong = Tlong Unsigned

let rec sizeof = function
  | Tvoid -> 1
  | Tint (I8, _) -> 1
  | Tint (I16, _) -> 2
  | Tint (I32, _) -> 4
  | Tlong _ -> 8
  | Tfloat -> 8
  | Tsingle -> 4
  | Tpointer _ -> 8
  | Tarray (t, n) -> sizeof t * max n 0
  | Tfunction _ -> 1

let rec alignof = function
  | Tvoid -> 1
  | Tint (I8, _) -> 1
  | Tint (I16, _) -> 2
  | Tint (I32, _) -> 4
  | Tlong _ -> 8
  | Tfloat -> 8
  | Tsingle -> 4
  | Tpointer _ -> 8
  | Tarray (t, _) -> alignof t
  | Tfunction _ -> 1

(** How an object of a given type is accessed. *)
type mode =
  | By_value of chunk  (** load/store with this chunk *)
  | By_reference  (** the l-value itself is the value (arrays, functions) *)
  | By_nothing

let access_mode = function
  | Tint (I8, Signed) -> By_value Mint8signed
  | Tint (I8, Unsigned) -> By_value Mint8unsigned
  | Tint (I16, Signed) -> By_value Mint16signed
  | Tint (I16, Unsigned) -> By_value Mint16unsigned
  | Tint (I32, _) -> By_value Mint32
  | Tlong _ -> By_value Mint64
  | Tfloat -> By_value Mfloat64
  | Tsingle -> By_value Mfloat32
  | Tpointer _ -> By_value Mint64
  | Tarray _ | Tfunction _ -> By_reference
  | Tvoid -> By_nothing

(** The machine-level type carrying values of a C type. *)
let typ_of_type = function
  | Tint _ -> MT.Tint
  | Tlong _ | Tpointer _ | Tarray _ | Tfunction _ -> MT.Tlong
  | Tfloat -> MT.Tfloat
  | Tsingle -> MT.Tsingle
  | Tvoid -> MT.Tint

let rec ty_equal a b =
  match (a, b) with
  | Tvoid, Tvoid | Tfloat, Tfloat | Tsingle, Tsingle -> true
  | Tint (s1, g1), Tint (s2, g2) -> s1 = s2 && g1 = g2
  | Tlong g1, Tlong g2 -> g1 = g2
  | Tpointer t1, Tpointer t2 -> ty_equal t1 t2
  | Tarray (t1, n1), Tarray (t2, n2) -> ty_equal t1 t2 && n1 = n2
  | Tfunction (a1, r1), Tfunction (a2, r2) ->
    List.length a1 = List.length a2
    && List.for_all2 ty_equal a1 a2 && ty_equal r1 r2
  | _ -> false

(** Signature of a function type, at the machine level. *)
let signature_of_type args res =
  {
    MT.sig_args = List.map typ_of_type args;
    MT.sig_res = (match res with Tvoid -> None | t -> Some (typ_of_type t));
  }

let rec pp_ty fmt = function
  | Tvoid -> Format.pp_print_string fmt "void"
  | Tint (I8, Signed) -> Format.pp_print_string fmt "char"
  | Tint (I8, Unsigned) -> Format.pp_print_string fmt "unsigned char"
  | Tint (I16, Signed) -> Format.pp_print_string fmt "short"
  | Tint (I16, Unsigned) -> Format.pp_print_string fmt "unsigned short"
  | Tint (I32, Signed) -> Format.pp_print_string fmt "int"
  | Tint (I32, Unsigned) -> Format.pp_print_string fmt "unsigned int"
  | Tlong Signed -> Format.pp_print_string fmt "long"
  | Tlong Unsigned -> Format.pp_print_string fmt "unsigned long"
  | Tfloat -> Format.pp_print_string fmt "double"
  | Tsingle -> Format.pp_print_string fmt "float"
  | Tpointer t -> Format.fprintf fmt "%a*" pp_ty t
  | Tarray (t, n) -> Format.fprintf fmt "%a[%d]" pp_ty t n
  | Tfunction (args, res) ->
    Format.fprintf fmt "%a(*)(%a)" pp_ty res
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         pp_ty)
      args
