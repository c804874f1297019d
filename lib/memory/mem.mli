(** The CompCert memory model (paper §3.1, Fig. 4): a purely functional
    collection of blocks with per-offset permissions and byte-level
    contents. Operations are partial exactly where CompCert's are. *)

open Values
open Memdata

(** Permissions form a total order
    [Nonempty < Readable < Writable < Freeable]. *)
type permission = Nonempty | Readable | Writable | Freeable

(** [perm_order p1 p2]: permission [p1] implies permission [p2]. *)
val perm_order : permission -> permission -> bool

type t

(** The empty memory; block identifiers start at 1. *)
val empty : t

val nextblock : t -> block
val valid_block : t -> block -> bool

(** Bounds [(lo, hi)] a block was allocated with. *)
val block_bounds : t -> block -> (int * int) option

(** {1 Permissions} *)

(** [perm m b ofs p]: offset [ofs] of block [b] has at least permission
    [p]. *)
val perm : t -> block -> int -> permission -> bool

val range_perm : t -> block -> int -> int -> permission -> bool
val valid_pointer : t -> block -> int -> bool

(** Valid or one-past-the-end (used by pointer comparisons). *)
val weak_valid_pointer : t -> block -> int -> bool

(** {1 Allocation and deallocation} *)

(** [alloc m lo hi] returns the new memory and the fresh block, with
    [Freeable] permission on [lo, hi). *)
val alloc : t -> int -> int -> t * block

(** [free m b lo hi] requires [Freeable] permission over the range. *)
val free : t -> block -> int -> int -> t option

val free_list : t -> (block * int * int) list -> t option

(** [alloc_frame m sz ofs_link link ofs_ra ra] is observably identical to
    [alloc m 0 sz] followed by [store Mint64] of [link] at [ofs_link] and
    [ra] at [ofs_ra], but fills the new block before it installs it in
    the block table, once instead of three times. The [Pallocframe] fast
    path in the Asm interpreter uses it; the naive reference interpreter
    keeps the three-step composition. *)
val alloc_frame :
  t -> int -> int -> value -> int -> value -> (t * block) option

(** Remove all permissions on a range (the [LM] convention's
    [free_args], Fig. 13). *)
val drop_range : t -> block -> int -> int -> t option

(** Restrict permissions on a range to at most [p]. *)
val drop_perm : t -> block -> int -> int -> permission -> t option

(** Re-grant permission on a range (the [LM] convention's [mix]). The
    range is clamped to the block's bounds; a range entirely outside
    them returns [None]. *)
val grant_perm : t -> block -> int -> int -> permission -> t option

(** Per-offset permission entries materialized for a block: 0 while the
    block carries one uniform permission over its whole extent (the
    representation every block has between [alloc] and the first
    sub-range [free]/[drop_perm]/[grant_perm]). Representation
    introspection for tests and the bench; not part of the semantics. *)
val perm_entries : t -> block -> int

(** {1 Loads and stores} *)

val load : chunk -> t -> block -> int -> value option
val store : chunk -> t -> block -> int -> value -> t option
val loadv : chunk -> t -> value -> value option
val storev : chunk -> t -> value -> value -> t option
val loadbytes : t -> block -> int -> int -> memval list option
val storebytes : t -> block -> int -> memval list -> t option

(** {1 Copy-on-observe ownership}

    Every memory above is persistent: operations return new states and
    leave their arguments intact. A run that holds its memory exclusively
    can instead [thaw] it and then use it {e linearly} — never touching a
    memory again once an operation has returned its successor. Writes
    through a thawed memory then update the chunks and blocks the run
    itself created (or already copied) in place, returning the same
    memory; anything inherited from before the [thaw] is copied on its
    first write, so the argument of [thaw] is never modified. [freeze]
    ends the run's ownership: the result, and every memory that shares
    structure with it, is persistent again. A run hands out only frozen
    memories at its observation points.

    Every interpreter's [semantics] is such a run, and its
    [semantics_naive] reference stays on the persistent model. From
    Clight to Mach, [Iface.Li]'s wrappers thaw the memory at [init] and
    [after_external] and freeze it at [at_external] and [final]. Threaded
    Asm does the same itself.

    One exception: a run may hand its owned memory over to the run that
    continues it, and give it up (the handover capability of
    [Core.Smallstep.lts]: an [⊕] push or pop between two threaded Asm
    activations, the only LTS that has it). An owned memory in a
    question or reply is the mark of a handover: the receiver adopts it
    as is, without a [thaw], and takes over its owner. Every other
    payload memory is frozen. *)

(** [thaw m] is [m] owned by a fresh run. It freezes [m] first, so a
    still-owned argument loses its owner. *)
val thaw : t -> t

(** [freeze m] ends the ownership of [m]'s run (no-op on a persistent
    memory) and returns [m]. *)
val freeze : t -> t

(** [owned m]: [m] belongs to a run, thawed and not frozen since. *)
val owned : t -> bool

(** [write_stats m] is [(in_place, copied)] for the run that owns or
    owned [m] since its [thaw]: chunk writes that updated an owned chunk
    in place, and chunks that were copied or created to be written.
    Both are [0] for a memory never thawed. *)
val write_stats : t -> int * int

(** {1 Observation (used by relational checks)} *)

(** Fold over every (block, offset) with at least [Nonempty] permission. *)
val fold_live_offsets : t -> (block -> int -> 'a -> 'a) -> 'a -> 'a

val contents_at : t -> block -> int -> memval
val perm_at : t -> block -> int -> permission option

(** [unchanged_on pred m m']: every location satisfying [pred] keeps its
    permission and contents from [m] to [m'] (CompCert's
    [Mem.unchanged_on], the workhorse of [injp], Fig. 9). *)
val unchanged_on : (block -> int -> bool) -> t -> t -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
