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

(** {1 Owned memory between interaction points}

    A semantics observes memory only where it interacts: questions and
    answers carry it (Def. 3.1, Table 2). So a run may write its memory
    in place between those points. [own_c], [own_l] and [own_m] make an
    LTS at [C ↠ C], [L ↠ L] or [M ↠ M] do so, with its transition rules
    unchanged: [init] and [after_external] thaw the memory they receive
    ({!Memory.Mem.thaw}), and [at_external] and [final] answer with that
    memory frozen ({!snapshot_mem}). The wrapped LTS has no handover.
    Every [step] of the LTS must use its memory linearly, as every
    interpreter's rules do. *)

(** [snapshot_mem m] freezes a payload memory. A memory that a run owns
    adds that run's {!Memory.Mem.write_stats} to the [mem.cow.in_place]
    and [mem.cow.copied] counters first, so they count each run once. *)
let snapshot_mem m =
  if Mem.owned m then begin
    let in_place, copied = Mem.write_stats m in
    Obs.Metrics.incr_counter ~by:in_place "mem.cow.in_place";
    Obs.Metrics.incr_counter ~by:copied "mem.cow.copied";
    Mem.freeze m
  end
  else m

(* [map_q f q] and [map_r f r] apply [f] to the memory of a question
   and of an answer. *)
let own ~map_q ~map_r (l : ('s, 'q, 'r, 'q, 'r) Core.Smallstep.lts) =
  {
    l with
    Core.Smallstep.init = (fun q -> l.init (map_q Mem.thaw q));
    at_external = (fun s -> Option.map (map_q snapshot_mem) (l.at_external s));
    after_external = (fun s r -> l.after_external s (map_r Mem.thaw r));
    final = (fun s -> Option.map (map_r snapshot_mem) (l.final s));
    handover = None;
  }

let own_c l =
  own l
    ~map_q:(fun f q -> { q with cq_mem = f q.cq_mem })
    ~map_r:(fun f r -> { r with cr_mem = f r.cr_mem })

let own_l l =
  own l
    ~map_q:(fun f q -> { q with lq_mem = f q.lq_mem })
    ~map_r:(fun f r -> { r with lr_mem = f r.lr_mem })

let own_m l =
  own l
    ~map_q:(fun f q -> { q with mq_mem = f q.mq_mem })
    ~map_r:(fun f r -> { r with mr_mem = f r.mr_mem })
