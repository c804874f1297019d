(** Memory extensions and injections (paper §4.1–4.2, §4.5): the
    executable relations behind the CKLRs [ext], [inj] and [injp]. *)

open Values
open Memdata

module IMap : Map.S with type key = int

(** Injection mappings [f : block ⇀ block × Z]. *)
type t = (block * int) IMap.t

val empty : t
val apply : t -> block -> (block * int) option
val add : block -> block -> int -> t -> t

(** The identity mapping on all blocks below [next]. *)
val id_below : block -> t

(** Mapping inclusion [f ⊆ f'] (the accessibility of [inj]). *)
val incl : t -> t -> bool

val compose : t -> t -> t
val pp : Format.formatter -> t -> unit

(** {1 Value relations} *)

(** [val_inject f v1 v2], written [f ⊩ v1 ↪v v2] in the paper: [Vundef]
    refines into anything; pointers are relocated along [f]. *)
val val_inject : t -> value -> value -> bool

(** Constructive direction: the canonical target value related to [v]. *)
val map_val : t -> value -> value option

val memval_inject : t -> memval -> memval -> bool

(** {1 Memory relations} *)

(** [mem_extends m1 m2] is [m1 ≤m m2]: same block structure, contents
    refined, permissions at least preserved. *)
val mem_extends : Mem.t -> Mem.t -> bool

(** [mem_inject f m1 m2] is [f ⊩ m1 ↪m m2]: mapped blocks relocated with
    related contents and no overlap. *)
val mem_inject : t -> Mem.t -> Mem.t -> bool

(** {1 The [injp] frame (paper §4.5, Fig. 9)} *)

(** Source locations with no counterpart in the target. *)
val loc_unmapped : t -> block -> int -> bool

(** Target locations that no accessible source location maps onto. *)
val loc_out_of_reach : t -> Mem.t -> block -> int -> bool

(** A world of the CKLR [injp]: the injection and the memories at the
    interaction point. *)
type injp_world = { injp_f : t; injp_m1 : Mem.t; injp_m2 : Mem.t }

val injp_world : t -> Mem.t -> Mem.t -> injp_world

(** Accessibility [⇝injp]: the mapping grows, unmapped source regions and
    out-of-reach target regions are untouched. *)
val injp_acc : injp_world -> injp_world -> bool
