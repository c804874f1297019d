(** Memory chunks and the byte-level representation of stored values
    (CompCert's [Memdata]).

    A memory access is described by a {e chunk} giving its size, alignment
    and the reinterpretation applied on load. In-memory contents are
    sequences of {e memvals}: concrete bytes, undefined bytes, or opaque
    fragments of a pointer value (pointers are not byte-decomposable since
    block identifiers are abstract). *)

open Mtypes
open Values

type chunk =
  | Mint8signed
  | Mint8unsigned
  | Mint16signed
  | Mint16unsigned
  | Mint32
  | Mint64
  | Mfloat32
  | Mfloat64
  | Many32
  | Many64

let size_chunk = function
  | Mint8signed | Mint8unsigned -> 1
  | Mint16signed | Mint16unsigned -> 2
  | Mint32 | Mfloat32 | Many32 -> 4
  | Mint64 | Mfloat64 | Many64 -> 8

let align_chunk = function
  | Mint8signed | Mint8unsigned -> 1
  | Mint16signed | Mint16unsigned -> 2
  | Mint32 | Mfloat32 | Many32 -> 4
  | Mint64 | Mfloat64 | Many64 -> 8

let type_of_chunk = function
  | Mint8signed | Mint8unsigned | Mint16signed | Mint16unsigned | Mint32
  | Many32 ->
    Tint
  | Mint64 | Many64 -> Tlong
  | Mfloat32 -> Tsingle
  | Mfloat64 -> Tfloat

let chunk_of_type = function
  | Tint -> Mint32
  | Tlong -> Mint64
  | Tfloat -> Mfloat64
  | Tsingle -> Mfloat32
  | Tany64 -> Many64

let pp_chunk fmt c =
  Format.pp_print_string fmt
    (match c with
    | Mint8signed -> "int8s"
    | Mint8unsigned -> "int8u"
    | Mint16signed -> "int16s"
    | Mint16unsigned -> "int16u"
    | Mint32 -> "int32"
    | Mint64 -> "int64"
    | Mfloat32 -> "float32"
    | Mfloat64 -> "float64"
    | Many32 -> "any32"
    | Many64 -> "any64")

(** Fragment quantities: a pointer stored in memory occupies 8 abstract
    fragment bytes [Fragment (v, Q64, 7) ... Fragment (v, Q64, 0)]. *)
type quantity = Q32 | Q64

let size_quantity = function Q32 -> 4 | Q64 -> 8

type memval =
  | Undef
  | Byte of int  (** one concrete byte, 0..255 *)
  | Fragment of value * quantity * int

(** Memval equality, with fragment values compared by {!Values.equal}
    (floats by their bits). *)
let memval_equal a b =
  match (a, b) with
  | Undef, Undef -> true
  | Byte x, Byte y -> x = y
  | Fragment (v, q, i), Fragment (v', q', i') -> Values.equal v v' && q = q' && i = i'
  | _ -> false

(** {1 Byte-level encoding} *)

let rec bytes_of_int64 count (n : int64) =
  if count = 0 then []
  else
    Int64.to_int (Int64.logand n 0xFFL)
    :: bytes_of_int64 (count - 1) (Int64.shift_right_logical n 8)

let rec int64_of_bytes = function
  | [] -> 0L
  | b :: rest ->
    Int64.logor (Int64.of_int b) (Int64.shift_left (int64_of_bytes rest) 8)

(* The 256 [Byte] memvals, built once: encoding a byte is a table read
   instead of an allocation. *)
let byte_memvals = Array.init 256 (fun b -> Byte b)

(** [byte b] is [Byte b] for [0 <= b < 256], without allocating. *)
let byte b = byte_memvals.(b)

let inj_bytes bl = List.map byte bl

let proj_bytes mvl =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Byte b :: rest -> go (b :: acc) rest
    | _ -> None
  in
  go [] mvl

let inj_value q v =
  let n = size_quantity q in
  List.init n (fun i -> Fragment (v, q, n - 1 - i))

(* A stored value can be recovered from fragments only if all fragments
   carry the same value and quantity and appear in decreasing index order
   [n-1, ..., 0]. *)
let proj_value q mvl =
  let n = size_quantity q in
  match mvl with
  | Fragment (v0, _, _) :: _ when List.length mvl = n ->
    let ok =
      List.for_all2
        (fun mv expected_idx ->
          match mv with
          | Fragment (v', q', idx) -> Values.equal v' v0 && q' = q && idx = expected_idx
          | _ -> false)
        mvl
        (List.init n (fun i -> n - 1 - i))
    in
    if ok then Some v0 else None
  | _ -> None

let encode_val chunk v : memval list =
  let sz = size_chunk chunk in
  match (v, chunk) with
  | Vint n, (Mint8signed | Mint8unsigned | Mint16signed | Mint16unsigned | Mint32)
    ->
    inj_bytes (bytes_of_int64 sz (Int64.logand (Int64.of_int32 n) 0xFFFFFFFFL))
  | Vlong n, Mint64 -> inj_bytes (bytes_of_int64 8 n)
  | Vsingle f, Mfloat32 ->
    inj_bytes
      (bytes_of_int64 4
         (Int64.logand (Int64.of_int32 (Int32.bits_of_float f)) 0xFFFFFFFFL))
  | Vfloat f, Mfloat64 -> inj_bytes (bytes_of_int64 8 (Int64.bits_of_float f))
  | Vptr _, Mint64 -> inj_value Q64 v
  | Vptr _, Many64 -> inj_value Q64 v
  | _, Many32 -> inj_value Q32 v
  | _, Many64 -> inj_value Q64 v
  | _ -> List.init sz (fun _ -> Undef)

let decode_val chunk (mvl : memval list) : value =
  match proj_bytes mvl with
  | Some bl -> (
    let n = int64_of_bytes bl in
    match chunk with
    | Mint8signed -> sign_ext 8 (Vint (Int64.to_int32 n))
    | Mint8unsigned -> zero_ext 8 (Vint (Int64.to_int32 n))
    | Mint16signed -> sign_ext 16 (Vint (Int64.to_int32 n))
    | Mint16unsigned -> zero_ext 16 (Vint (Int64.to_int32 n))
    | Mint32 -> Vint (Int64.to_int32 n)
    | Mint64 -> Vlong n
    | Mfloat32 -> Vsingle (Int32.float_of_bits (Int64.to_int32 n))
    | Mfloat64 -> Vfloat (Int64.float_of_bits n)
    | Many32 | Many64 -> Vundef)
  | None -> (
    match chunk with
    | Mint64 | Many64 -> (
      match proj_value Q64 mvl with
      | Some (Vptr _ as v) -> v
      | Some v -> if chunk = Many64 then v else Vundef
      | None -> Vundef)
    | Many32 -> (
      match proj_value Q32 mvl with Some v -> v | None -> Vundef)
    | _ -> Vundef)
