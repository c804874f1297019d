(** CompCert Kripke logical relations (paper §4.4), executable.

    A CKLR packages a Kripke frame [⟨W, ⇝⟩] with relations on values and
    memory states indexed by worlds, satisfying the frame conditions of
    Fig. 8 (checked by the property-based test suite rather than proved).
    Each instance also provides constructive directions used by the
    marshaling machinery:

    - [init m]: a canonical world and target memory related to [m]
      (identity-shaped, used when entering a component);
    - [map_val w v]: the canonical target value related to [v].

    Instances: [ext] (memory extensions), [inj] (memory injections),
    [injp] (injections with protection of unmapped/out-of-reach regions,
    §4.5), and [vaext]/[vainj] which additionally require the read-only
    global data to be intact (the [va] invariant embedded into a CKLR,
    Lemma 5.8). *)

open Memory

module type CKLR = sig
  type world

  val name : string
  val match_val : world -> Values.value -> Values.value -> bool
  val match_mem : world -> Mem.t -> Mem.t -> bool

  (** Accessibility [w ⇝ w']. *)
  val acc : world -> world -> bool

  val init : Mem.t -> world * Mem.t
  val map_val : world -> Values.value -> Values.value option

  (** Canonical world evolution: given the memories reached when the call
      returns, produce the accessible world [w'] used to check the answer
      relation under the [^] modality. New blocks allocated in lockstep on
      both sides are related identically. *)
  val grow : world -> Mem.t -> Mem.t -> world

  val pp_world : Format.formatter -> world -> unit
end

(* Extend an injection with identity entries for blocks allocated (in
   lockstep) after the mapping was created. *)
let grow_meminj (f : Meminj.t) m1 m2 =
  let base =
    Meminj.IMap.fold (fun b _ acc -> max acc (b + 1)) f 1
  in
  let upper = min (Mem.nextblock m1) (Mem.nextblock m2) in
  let rec go b f = if b >= upper then f else go (b + 1) (Meminj.add b b 0 f) in
  go base f

module Ext : CKLR with type world = unit = struct
  type world = unit

  let name = "ext"
  let match_val () v1 v2 = Values.lessdef v1 v2
  let match_mem () m1 m2 = Meminj.mem_extends m1 m2
  let acc () () = true
  let init m = ((), m)
  let map_val () v = Some v
  let grow () _ _ = ()
  let pp_world fmt () = Format.pp_print_string fmt "tt"
end

module Inj : CKLR with type world = Meminj.t = struct
  type world = Meminj.t

  let name = "inj"
  let match_val f v1 v2 = Meminj.val_inject f v1 v2
  let match_mem f m1 m2 = Meminj.mem_inject f m1 m2
  let acc f f' = Meminj.incl f f'
  let init m = (Meminj.id_below (Mem.nextblock m), m)
  let map_val f v = Meminj.map_val f v
  let grow = grow_meminj
  let pp_world = Meminj.pp
end

module Injp : CKLR with type world = Meminj.injp_world = struct
  type world = Meminj.injp_world

  let name = "injp"

  let match_val w v1 v2 = Meminj.val_inject w.Meminj.injp_f v1 v2

  (* The world of injp fixes the memories at the interaction point: the
     relation holds precisely at those memories (paper §4.5). *)
  let match_mem w m1 m2 =
    Mem.equal w.Meminj.injp_m1 m1
    && Mem.equal w.Meminj.injp_m2 m2
    && Meminj.mem_inject w.Meminj.injp_f m1 m2

  let acc = Meminj.injp_acc

  let init m =
    (Meminj.injp_world (Meminj.id_below (Mem.nextblock m)) m m, m)

  let map_val w v = Meminj.map_val w.Meminj.injp_f v

  let grow w m1 m2 =
    Meminj.injp_world (grow_meminj w.Meminj.injp_f m1 m2) m1 m2

  let pp_world fmt w =
    Format.fprintf fmt "injp(%a)" Meminj.pp w.Meminj.injp_f
end

(** Read-only data soundness: the [va] (value-analysis) invariant requires
    the contents of const global blocks to be intact. The checker is
    parameterized by the set of protected regions. *)
type romem = (Values.block * int * Memdata.memval list) list

let romem_sound (ro : romem) m =
  List.for_all
    (fun (b, ofs, mvl) ->
      match Mem.loadbytes m b ofs (List.length mvl) with
      | Some mvl' -> mvl = mvl'
      | None -> false)
    ro

module Vainj (R : sig
  val romem : romem
end) : CKLR with type world = Meminj.t = struct
  type world = Meminj.t

  let name = "vainj"
  let match_val = Inj.match_val

  let match_mem f m1 m2 =
    Meminj.mem_inject f m1 m2 && romem_sound R.romem m1

  let acc = Inj.acc
  let init = Inj.init
  let map_val = Inj.map_val
  let grow = Inj.grow
  let pp_world = Inj.pp_world
end

module Vaext (R : sig
  val romem : romem
end) : CKLR with type world = unit = struct
  type world = unit

  let name = "vaext"
  let match_val = Ext.match_val
  let match_mem () m1 m2 = Meminj.mem_extends m1 m2 && romem_sound R.romem m1
  let acc = Ext.acc
  let init = Ext.init
  let map_val = Ext.map_val
  let grow = Ext.grow
  let pp_world = Ext.pp_world
end

(** First-class packaging, used when a set of CKLRs must be manipulated
    uniformly (the sum [R = injp + inj + ext + vainj + vaext] of §5). *)
type some_cklr = Some_cklr : (module CKLR with type world = 'w) -> some_cklr
