(** CompCert Kripke logical relations (paper §4.4), executable.

    A CKLR packages a Kripke frame [⟨W, ⇝⟩] with world-indexed relations
    on values and memory states; the frame conditions of Fig. 8 are
    checked by the property-based test suite. Instances: [ext]
    (extensions), [inj] (injections), [injp] (injections protecting
    unmapped/out-of-reach regions, §4.5), and [vaext]/[vainj] which
    additionally require read-only global data intact (Lemma 5.8). *)

open Memory

module type CKLR = sig
  type world

  val name : string
  val match_val : world -> Values.value -> Values.value -> bool
  val match_mem : world -> Mem.t -> Mem.t -> bool

  (** Accessibility [w ⇝ w']. *)
  val acc : world -> world -> bool

  (** Canonical (identity-shaped) world and target memory for entering a
      component on a given source memory. *)
  val init : Mem.t -> world * Mem.t

  (** Canonical target value related to a source value. *)
  val map_val : world -> Values.value -> Values.value option

  (** Canonical world evolution for the [^] modality: blocks allocated in
      lockstep on both sides are related identically. *)
  val grow : world -> Mem.t -> Mem.t -> world

  val pp_world : Format.formatter -> world -> unit
end

(** Identity-extension of an injection to lockstep-allocated blocks. *)
val grow_meminj : Meminj.t -> Mem.t -> Mem.t -> Meminj.t

module Ext : CKLR with type world = unit
module Inj : CKLR with type world = Meminj.t
module Injp : CKLR with type world = Meminj.injp_world

(** Read-only regions (blocks of const globals with their contents): the
    basis of the [va] invariant. *)
type romem = (Values.block * int * Memdata.memval list) list

val romem_sound : romem -> Mem.t -> bool

module Vainj (_ : sig
  val romem : romem
end) : CKLR with type world = Meminj.t

module Vaext (_ : sig
  val romem : romem
end) : CKLR with type world = unit

(** First-class packaging for manipulating sets of CKLRs (the sum
    [R = injp + inj + ext + vainj + vaext] of §5). *)
type some_cklr = Some_cklr : (module CKLR with type world = 'w) -> some_cklr
