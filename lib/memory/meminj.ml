(** Memory extensions and memory injections (paper §4.1–4.2, §4.5).

    An injection mapping [f : block ⇀ block × Z] relocates source blocks
    into target blocks at an offset. It induces a relation on values
    ([val_inject], written [↩→v] in the paper) and on memory states
    ([mem_inject], [↩→m]). Extensions ([≤m]) are the special case of an
    identical block structure with value refinement on contents.

    These executable relations power the CKLR instances in [Core.Cklr] and
    the co-execution checker: where the Coq development proves simulation
    diagrams, we check the same relations on concrete states. *)

open Values
open Memdata

module IMap = Map.Make (Int)

(** {1 Injection mappings} *)

type t = (block * int) IMap.t

let empty : t = IMap.empty
let apply (f : t) b = IMap.find_opt b f
let add b b' delta (f : t) = IMap.add b (b', delta) f

(** The identity mapping on all blocks below [next]. *)
let id_below next : t =
  let rec go b acc = if b >= next then acc else go (b + 1) (add b b 0 acc) in
  go 1 empty

(** [incl f f'] is the mapping inclusion [f ⊆ f'] driving world
    accessibility for [inj] (paper, Example 4.2). *)
let incl (f : t) (f' : t) =
  IMap.for_all (fun b entry -> apply f' b = Some entry) f

let compose (f : t) (g : t) : t =
  IMap.filter_map
    (fun _b (b', d1) ->
      match apply g b' with
      | Some (b'', d2) -> Some (b'', d1 + d2)
      | None -> None)
    f

let pp fmt (f : t) =
  Format.fprintf fmt "@[<h>{";
  IMap.iter (fun b (b', d) -> Format.fprintf fmt " b%d->b%d+%d" b b' d) f;
  Format.fprintf fmt " }@]"

(** {1 Value relations} *)

let val_inject f v1 v2 =
  match (v1, v2) with
  | Vundef, _ -> true
  | Vptr (b, o), Vptr (b', o') -> (
    match apply f b with Some (b'', d) -> b' = b'' && o' = o + d | None -> false)
  | _ -> Values.equal v1 v2

(** Constructive direction: the canonical target value related to [v]. *)
let map_val f v =
  match v with
  | Vptr (b, o) -> (
    match apply f b with
    | Some (b', d) -> Some (Vptr (b', o + d))
    | None -> None)
  | _ -> Some v

let memval_inject f mv1 mv2 =
  match (mv1, mv2) with
  | Undef, _ -> true
  | Byte b1, Byte b2 -> b1 = b2
  | Fragment (v1, q1, i1), Fragment (v2, q2, i2) ->
    q1 = q2 && i1 = i2 && val_inject f v1 v2
  | _ -> false

(** {1 Memory extensions [≤m]} *)

(* [m2] extends [m1]: same block structure; every location accessible in
   [m1] is accessible in [m2] with at least the same permission, and its
   contents refine those of [m1]. [m2] may have extra permissions. *)
let mem_extends m1 m2 =
  Mem.nextblock m1 = Mem.nextblock m2
  && Mem.fold_live_offsets m1
       (fun b ofs ok ->
         ok
         && (match (Mem.perm_at m1 b ofs, Mem.perm_at m2 b ofs) with
            | Some p1, Some p2 -> Mem.perm_order p2 p1
            | Some _, None -> false
            | None, _ -> true)
         && memval_inject (id_below (Mem.nextblock m1))
              (Mem.contents_at m1 b ofs) (Mem.contents_at m2 b ofs))
       true

(** {1 Memory injections [↩→m]} *)

let mem_inject (f : t) m1 m2 =
  (* Mapped blocks must be valid and respect bounds/permissions/contents. *)
  IMap.for_all
    (fun b (b', delta) ->
      Mem.valid_block m1 b && Mem.valid_block m2 b'
      &&
      match Mem.block_bounds m1 b with
      | None -> false
      | Some (lo, hi) ->
        let rec ofs_ok ofs =
          ofs >= hi
          || ((match Mem.perm_at m1 b ofs with
              | None -> true
              | Some p1 -> (
                match Mem.perm_at m2 b' (ofs + delta) with
                | Some p2 ->
                  Mem.perm_order p2 p1
                  && memval_inject f (Mem.contents_at m1 b ofs)
                       (Mem.contents_at m2 b' (ofs + delta))
                | None -> false))
             && ofs_ok (ofs + 1))
        in
        ofs_ok lo)
    f
  (* No overlap: distinct source blocks cannot map to overlapping target
     regions (checked coarsely at block granularity with ranges). *)
  && IMap.for_all
       (fun b1 (b1', d1) ->
         IMap.for_all
           (fun b2 (b2', d2) ->
             b1 = b2 || b1' <> b2'
             ||
             match (Mem.block_bounds m1 b1, Mem.block_bounds m1 b2) with
             | Some (lo1, hi1), Some (lo2, hi2) ->
               hi1 + d1 <= lo2 + d2 || hi2 + d2 <= lo1 + d1
               || hi1 <= lo1 || hi2 <= lo2
             | _ -> false)
           f)
       f

(** {1 Location predicates for [injp] (paper, Fig. 9)} *)

(** Source locations with no counterpart in the target. *)
let loc_unmapped (f : t) b (_ofs : int) = apply f b = None

(** Target locations that no accessible source location maps onto. *)
let loc_out_of_reach (f : t) m1 b' ofs' =
  IMap.for_all
    (fun b (b'', delta) ->
      b'' <> b' || not (Mem.perm m1 b (ofs' - delta) Nonempty))
    f

(** {1 injp worlds} *)

(** A world of the CKLR [injp]: the injection together with the memory
    states at the time of the call. Accessibility [⇝injp] (Fig. 9) demands
    that the protected regions are untouched. *)
type injp_world = { injp_f : t; injp_m1 : Mem.t; injp_m2 : Mem.t }

let injp_world f m1 m2 = { injp_f = f; injp_m1 = m1; injp_m2 = m2 }

let injp_acc w w' =
  incl w.injp_f w'.injp_f
  && Mem.unchanged_on (loc_unmapped w.injp_f) w.injp_m1 w'.injp_m1
  && Mem.unchanged_on (loc_out_of_reach w.injp_f w.injp_m1) w.injp_m2 w'.injp_m2
