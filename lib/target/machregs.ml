(** Machine registers of the abstract x86-64-flavored target
    (DESIGN.md system #4, CompCert's [Machregs]).

    The allocatable machine registers: 14 integer registers (the 16
    architectural ones minus SP, which is a dedicated [preg] above Mach,
    and R11, the assembler scratch invisible above Asm) and 8 SSE
    registers. The callee-save partition follows the System V AMD64 ABI:
    BX, BP and R12–R15 survive calls; everything else — including all
    float registers — is destroyed. *)

open Memory.Mtypes
open Memory.Values

type mreg =
  (* integer registers *)
  | AX | BX | CX | DX | SI | DI | BP
  | R8 | R9 | R10 | R12 | R13 | R14 | R15
  (* float (SSE) registers *)
  | X0 | X1 | X2 | X3 | X4 | X5 | X6 | X7

let all_mregs =
  [
    AX; BX; CX; DX; SI; DI; BP;
    R8; R9; R10; R12; R13; R14; R15;
    X0; X1; X2; X3; X4; X5; X6; X7;
  ]

let mreg_name = function
  | AX -> "ax" | BX -> "bx" | CX -> "cx" | DX -> "dx"
  | SI -> "si" | DI -> "di" | BP -> "bp"
  | R8 -> "r8" | R9 -> "r9" | R10 -> "r10"
  | R12 -> "r12" | R13 -> "r13" | R14 -> "r14" | R15 -> "r15"
  | X0 -> "x0" | X1 -> "x1" | X2 -> "x2" | X3 -> "x3"
  | X4 -> "x4" | X5 -> "x5" | X6 -> "x6" | X7 -> "x7"

let pp_mreg fmt r = Format.pp_print_string fmt (mreg_name r)
let compare_mreg : mreg -> mreg -> int = Stdlib.compare

let num_mregs = 22

(** Dense ordinal of a machine register, in [0, num_mregs). *)
let mreg_index = function
  | AX -> 0 | BX -> 1 | CX -> 2 | DX -> 3
  | SI -> 4 | DI -> 5 | BP -> 6
  | R8 -> 7 | R9 -> 8 | R10 -> 9
  | R12 -> 10 | R13 -> 11 | R14 -> 12 | R15 -> 13
  | X0 -> 14 | X1 -> 15 | X2 -> 16 | X3 -> 17
  | X4 -> 18 | X5 -> 19 | X6 -> 20 | X7 -> 21

let is_float_mreg = function
  | X0 | X1 | X2 | X3 | X4 | X5 | X6 | X7 -> true
  | _ -> false

let is_float_typ = function
  | Tfloat | Tsingle -> true
  | Tint | Tlong | Tany64 -> false

(** System V AMD64 callee-save registers. *)
let callee_save_regs = [ BX; BP; R12; R13; R14; R15 ]

(* Probed per candidate register in the allocator's scan loop and per
   equation in the validator's caller-save kill, so it must be a table
   lookup, not a structural list search. *)
let callee_save_tbl =
  let t = Array.make num_mregs false in
  List.iter (fun r -> t.(mreg_index r) <- true) callee_save_regs;
  t

let is_callee_save r = callee_save_tbl.(mreg_index r)

(** Registers whose value is clobbered by a function call. *)
let destroyed_at_call =
  List.filter (fun r -> not (is_callee_save r)) all_mregs

(** {1 Machine register files}

    A total map from machine registers to values, defaulting to
    [Vundef]. This is the register-file component of the [M] language
    interface (paper, Table 2). *)

module Regfile = struct
  (* A dense array indexed by [mreg_index], updated copy-on-write: [set]
     copies the 22-word array, so values remain purely functional while
     [get]/[set] are O(1) with no comparator calls. The array is never
     mutated after [set] returns it. *)
  type t = value array

  let init : t = Array.make num_mregs Vundef
  let get r (rf : t) = rf.(mreg_index r)

  let set r v (rf : t) : t =
    let i = mreg_index r in
    if rf.(i) == v then rf
    else begin
      let rf' = Array.copy rf in
      rf'.(i) <- v;
      rf'
    end

  (* Snapshot for the mutable-execution cores (copy-on-observe): a
     mutating interpreter must hand out copies at query/reply
     boundaries, never its live array. *)
  let copy : t -> t = Array.copy

  (* In-place write, for interpreters that own their register file
     exclusively between observation points. Never call this on an
     array obtained from [init] or shared through [set]'s no-op path. *)
  let update r v (rf : t) : t =
    rf.(mreg_index r) <- v;
    rf

  (** The callee-save rule of a return: callee-save registers from
      [caller], every other register (results included) from [callee].
      A fresh array. *)
  let return_regs (caller : t) (callee : t) : t =
    Array.mapi (fun i v -> if callee_save_tbl.(i) then caller.(i) else v) callee

  let equal (a : t) (b : t) =
    a == b
    ||
    let rec go i = i >= num_mregs || (Memory.Values.equal a.(i) b.(i) && go (i + 1)) in
    go 0

  (** [rs] holds [caller]'s callee-save registers, the registers
      [return_regs] takes from the caller. *)
  let keeps_callee_save ~(caller : t) (rs : t) =
    let rec go i =
      i >= num_mregs || ((not callee_save_tbl.(i) || rs.(i) = caller.(i)) && go (i + 1))
    in
    go 0

  let for_all2 (p : value -> value -> bool) (a : t) (b : t) = Array.for_all2 p a b

  (* The defined registers, each as " r=v". *)
  let pp_bindings fmt (rf : t) =
    List.iter
      (fun r ->
        match get r rf with
        | Vundef -> ()
        | v -> Format.fprintf fmt " %a=%a" pp_mreg r Memory.Values.pp v)
      all_mregs

  let pp fmt (rf : t) = Format.fprintf fmt "@[<h>{%a }@]" pp_bindings rf
end
