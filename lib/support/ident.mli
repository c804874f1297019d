(** Identifiers derived from their names: O(1) comparison, efficient
    maps, printable names, and the same identifier for the same name in
    every process. *)

type t = int

(** The identifier of a name: the first 62 bits of its MD5 digest. Two
    different names never share one: a collision raises [Failure]. *)
val intern : string -> t

(** The name an identifier was interned from, or [$n] if this process
    never interned it. *)
val name : t -> string

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
