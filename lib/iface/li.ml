(** The concrete language interfaces of CompCertO (paper, Table 2).

    - [C]: function calls at the source level — function value, signature,
      argument values, memory. Used by Clight through RTL.
    - [L]: abstract locations — the arguments live in a location map.
      Used by LTL and Linear.
    - [M]: machine registers plus explicit stack pointer and return
      address. Used by Mach.
    - [A]: the full architectural register file (including PC, SP, RA)
      plus memory. Used by Asm. *)

open Memory
open Memory.Mtypes
open Memory.Values
open Target

(** {1 Interface C} *)

type c_query = {
  cq_vf : value;
  cq_sg : signature;
  cq_args : value list;
  cq_mem : Mem.t;
}

type c_reply = { cr_res : value; cr_mem : Mem.t }

let pp_c_query fmt q =
  Format.fprintf fmt "@[%a[%a](%a)@]" Values.pp q.cq_vf pp_signature q.cq_sg
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       Values.pp)
    q.cq_args

let pp_c_reply fmt r = Format.fprintf fmt "%a" Values.pp r.cr_res

(** {1 Interface L} *)

type l_query = {
  lq_vf : value;
  lq_sg : signature;
  lq_ls : Locations.Locset.t;
  lq_mem : Mem.t;
}

type l_reply = { lr_ls : Locations.Locset.t; lr_mem : Mem.t }

let pp_l_query fmt q =
  Format.fprintf fmt "@[%a[%a] %a@]" Values.pp q.lq_vf pp_signature q.lq_sg
    Locations.Locset.pp q.lq_ls

let pp_l_reply fmt r = Locations.Locset.pp fmt r.lr_ls

(** {1 Interface M} *)

type m_query = {
  mq_vf : value;
  mq_sp : value;  (** caller stack pointer; stack args live at [sp+0..] *)
  mq_ra : value;  (** return address *)
  mq_rs : Machregs.Regfile.t;
  mq_mem : Mem.t;
}

type m_reply = { mr_rs : Machregs.Regfile.t; mr_mem : Mem.t }

let pp_m_query fmt q =
  Format.fprintf fmt "@[%a sp=%a ra=%a %a@]" Values.pp q.mq_vf Values.pp q.mq_sp
    Values.pp q.mq_ra Machregs.Regfile.pp q.mq_rs

let pp_m_reply fmt r = Machregs.Regfile.pp fmt r.mr_rs

(** {1 Interface A}

    The architectural register file: machine registers plus the program
    counter, stack pointer and return-address register. *)

type preg =
  | PC
  | SP
  | RA
  | SCR  (** assembler scratch register (r11), invisible above Asm *)
  | Mreg of Machregs.mreg

let pp_preg fmt = function
  | PC -> Format.pp_print_string fmt "pc"
  | SP -> Format.pp_print_string fmt "sp"
  | RA -> Format.pp_print_string fmt "ra"
  | SCR -> Format.pp_print_string fmt "r11"
  | Mreg r -> Machregs.pp_mreg fmt r

let all_pregs =
  PC :: SP :: RA :: SCR :: List.map (fun r -> Mreg r) Machregs.all_mregs

(* The machine registers follow PC, SP, RA and SCR, in [mreg_index]
   order, so a [Machregs.Regfile.t] is a slice of a [Pregfile.t]. *)
let mreg_base = 4
let num_pregs = mreg_base + Machregs.num_mregs

(** Dense ordinal of an architectural register, in [0, num_pregs). *)
let preg_index = function
  | PC -> 0
  | SP -> 1
  | RA -> 2
  | SCR -> 3
  | Mreg r -> mreg_base + Machregs.mreg_index r

module Pregfile = struct
  (* A dense array indexed by [preg_index], updated copy-on-write (like
     [Machregs.Regfile]): O(1) [get]/[set] with no polymorphic-compare
     calls, an allocation-free [equal], and purely functional values —
     the array is never mutated after [set] returns it. This is the
     register file the Asm interpreter reads and writes on every step. *)
  type t = value array

  let init : t = Array.make num_pregs Vundef
  let get r (rf : t) = rf.(preg_index r)

  let set r v (rf : t) : t =
    let i = preg_index r in
    if rf.(i) == v then rf
    else begin
      let rf' = Array.copy rf in
      rf'.(i) <- v;
      rf'
    end

  let set_list rvs rf = List.fold_left (fun rf (r, v) -> set r v rf) rf rvs

  (* Snapshot for the mutable-execution cores: interpreters that update a
     register file in place must hand out copies at every observation
     point (query/reply marshaling), never the live array. *)
  let copy : t -> t = Array.copy

  (** The machine registers of [mrs], with PC, SP, RA and SCR undefined. *)
  let of_regfile (mrs : Machregs.Regfile.t) : t =
    Array.append (Array.make mreg_base Vundef) mrs

  let to_regfile (rf : t) : Machregs.Regfile.t =
    Array.sub rf mreg_base Machregs.num_mregs

  let equal (a : t) (b : t) =
    a == b
    ||
    let rec go i = i >= num_pregs || (Values.equal a.(i) b.(i) && go (i + 1)) in
    go 0

  let pp fmt rf =
    Format.fprintf fmt "@[<h>{";
    List.iter
      (fun r ->
        match get r rf with
        | Vundef -> ()
        | v -> Format.fprintf fmt " %a=%a" pp_preg r Values.pp v)
      all_pregs;
    Format.fprintf fmt " }@]"
end

type a_query = { aq_rs : Pregfile.t; aq_mem : Mem.t }
type a_reply = { ar_rs : Pregfile.t; ar_mem : Mem.t }

let pp_a_query fmt q = Pregfile.pp fmt q.aq_rs
let pp_a_reply fmt r = Pregfile.pp fmt r.ar_rs
