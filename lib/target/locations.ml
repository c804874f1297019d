(** Locations: machine registers and abstract stack slots, and location
    maps (DESIGN.md system #4, CompCert's [Locations]).

    A location is either a machine register or a typed stack slot. Slots
    come in three kinds, relative to an activation:

    - [Local]: spill slots private to the activation;
    - [Incoming]: the argument slots the activation receives (the
      caller's [Outgoing]);
    - [Outgoing]: the argument slots for calls the activation makes.

    Slots are indexed in 8-byte words ([typ_words t = 1] for every
    machine type on this 64-bit target), so two slots of the same kind
    overlap exactly when their word ranges intersect. *)

open Memory.Mtypes
open Memory.Values
open Machregs

type slot_kind = Local | Incoming | Outgoing

let pp_slot_kind fmt k =
  Format.pp_print_string fmt
    (match k with Local -> "local" | Incoming -> "incoming" | Outgoing -> "outgoing")

type loc =
  | R of mreg
  | S of slot_kind * int * typ

(* Constructor by constructor: register, kind and type are immediates,
   so no case reaches the runtime's polymorphic compare. *)
let loc_equal (a : loc) (b : loc) =
  match (a, b) with
  | R r1, R r2 -> r1 == r2
  | S (k1, o1, t1), S (k2, o2, t2) -> k1 == k2 && o1 = o2 && t1 == t2
  | (R _ | S _), _ -> false

(** [locs_overlap l1 l2]: do the two locations denote overlapping
    storage? Registers overlap only with themselves; slots of the same
    kind overlap when their word ranges intersect (two slots at the same
    offset with different types are {e distinct} locations over the
    {e same} storage). Registers never overlap slots. *)
let locs_overlap (l1 : loc) (l2 : loc) =
  match (l1, l2) with
  | R r1, R r2 -> r1 = r2
  | S (k1, o1, t1), S (k2, o2, t2) ->
    k1 = k2 && o1 < o2 + typ_words t2 && o2 < o1 + typ_words t1
  | R _, S _ | S _, R _ -> false

let pp_loc fmt = function
  | R r -> pp_mreg fmt r
  | S (k, o, t) -> Format.fprintf fmt "%a(%d):%a" pp_slot_kind k o pp_typ t

(** {1 Location maps}

    The locset component of the [L] language interface (paper, Table 2):
    a total map from locations to values, defaulting to [Vundef]. Its
    register half is the [M] interface's register file, so [LM]
    (Appendix C.2) relates the two register for register; its slots are
    three maps, one per kind, from a word offset to the value stored
    there and the type it was written at.

    Writes follow CompCert's [Locmap.set] discipline:

    - writing a register stores the value as-is;
    - writing a slot {e normalizes} the value by the slot's type (an
      ill-typed slot write stores [Vundef], mirroring the in-memory
      realization where a store followed by a differently-typed load
      yields garbage), and {e invalidates} every overlapping slot
      binding of a different type. Since [typ_words t = 1], the slots
      overlapping a slot are those at its kind and offset, so the write
      replaces one binding and a read at another type finds [Vundef]. *)

module Locset = struct
  module Slots = Map.Make (Int)

  type t = {
    regs : Regfile.t;
    local : (value * typ) Slots.t;
    incoming : (value * typ) Slots.t;
    outgoing : (value * typ) Slots.t;
  }

  let init : t =
    { regs = Regfile.init; local = Slots.empty; incoming = Slots.empty;
      outgoing = Slots.empty }

  let slots k ls =
    match k with Local -> ls.local | Incoming -> ls.incoming | Outgoing -> ls.outgoing

  (* [typ] has constant constructors only: [==] is its equality. *)
  let get_slot k ofs ty ls =
    match Slots.find_opt ofs (slots k ls) with
    | Some (v, ty') when ty' == ty -> v
    | _ -> Vundef

  let set_slot k ofs ty v ls =
    let s = Slots.add ofs ((if has_type v ty then v else Vundef), ty) (slots k ls) in
    match k with
    | Local -> { ls with local = s }
    | Incoming -> { ls with incoming = s }
    | Outgoing -> { ls with outgoing = s }

  (** A register write through [rset]: [Regfile.set], or
      [Regfile.update] on a register file the writer owns, which leaves
      the locset itself unchanged. *)
  let set_reg rset r v ls =
    let regs = rset r v ls.regs in
    if regs == ls.regs then ls else { ls with regs }

  let get (l : loc) (ls : t) =
    match l with R r -> Regfile.get r ls.regs | S (k, ofs, ty) -> get_slot k ofs ty ls

  let set (l : loc) (v : value) (ls : t) : t =
    match l with
    | R r -> set_reg Regfile.set r v ls
    | S (k, ofs, ty) -> set_slot k ofs ty v ls

  (** The same locset on a register file of its own, for an interpreter
      that writes it in place. *)
  let copy (ls : t) : t = { ls with regs = Regfile.copy ls.regs }

  (** The canonical locset after an environment call: callee-save
      registers keep their value, everything else (caller-save registers
      and all stack slots, which belong to the finished activation) is
      forgotten. *)
  let undef_caller_save (ls : t) : t =
    { init with regs = Regfile.return_regs ls.regs Regfile.init }

  let pp fmt (ls : t) =
    let pp_slots fmt k =
      Slots.iter
        (fun ofs (v, ty) ->
          match v with
          | Vundef -> ()
          | v -> Format.fprintf fmt " %a=%a" pp_loc (S (k, ofs, ty)) Memory.Values.pp v)
        (slots k ls)
    in
    Format.fprintf fmt "@[<h>{%a%a%a%a }@]" Regfile.pp_bindings ls.regs pp_slots
      Local pp_slots Incoming pp_slots Outgoing
end
