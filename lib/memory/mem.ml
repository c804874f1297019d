(** The CompCert memory model (paper §3.1, Fig. 4).

    A memory state is a finite collection of blocks. Each block has bounds
    [lo, hi), per-offset permissions, and per-offset contents ([Memdata.memval]).
    The model is purely functional: every operation returns a new memory
    state. Operations are partial exactly where CompCert's are: [load] and
    [store] require permissions and alignment, [free] requires [Freeable]
    permission over the whole range.

    Permissions form a total order [Nonempty < Readable < Writable <
    Freeable]; an offset with no permission entry is inaccessible. Per-offset
    permissions are what later allows the [LM] simulation convention to carve
    the argument region out of a stack block (paper, Appendix C.2, Fig. 13).

    {b Representation.} The semantics is per-offset but the representation
    is not: between [alloc] and the first carving operation every offset of
    a block carries the same permission, so a block stores a single
    [Uniform] permission covering [lo, hi) and [range_perm] is one bounds
    comparison. Only blocks actually carved by [free]/[drop_perm]/
    [grant_perm] on a sub-range (the [LM] argument-region protocol) fall
    back to a per-offset [Carved] map. Contents are chunked: bytes live in
    16-byte arrays, chunk [k] of a block holding the offsets whose
    [ofs asr 4] is [k] more than its [lo]'s; an aligned access of at most
    8 bytes never crosses a chunk, so loads and stores of every integer
    chunk read or write one array directly. Concrete bytes come from a
    shared table ([Memdata.byte]) and small integer results are shared,
    so a byte access allocates nothing beyond the returned option.

    {b Dense tables.} Block ids are dense ([valid_block] is
    [0 < b < next_block]) and so are a block's chunk indices, so both
    maps are radix tables over integer keys with a fixed fan-out of 16:
    a lookup is one array index per level, two levels for a block of up
    to 4 KB or a memory of up to 255 blocks. The block table maps every
    id in [1, next_block) to its record. A block that [free] leaves
    without any permission is {e retired} in place: its record keeps its
    bounds and contents (CompCert's [free] only drops permissions) and
    reads as no permission anywhere, so a retired block costs a free
    nothing beyond its new record and a later [grant_perm] revives it
    where it is.

    A pointer stored with [Mint64], or any value stored with [Many64], at
    an 8-aligned offset is a {e word run}: the first cell of its 8-byte
    half-chunk holds [Fragment (v, Q64, 7)] and the other seven hold one
    shared mark, read back as [Fragment (v, Q64, 6)] ...
    [Fragment (v, Q64, 0)]. A write that covers only part of a run first
    turns it into those eight fragments. All observable behavior (every
    function of the interface) is unchanged; [test/test_mem_diff.ml]
    checks this against the per-byte reference implementation on random
    operation sequences.

    {b Copy-on-observe ownership.} A memory built by the interface below
    is persistent: a write copies the one chunk it touches and the table
    nodes on the path to it, one per level. A memory returned by {!thaw}
    instead belongs to one {e owner}, a run that promises to use it
    linearly (never touching a memory again once an operation has
    returned its successor). Chunks, block records and table nodes carry
    the owner that created them; a write under the owner that already
    holds them updates them in place and returns the same memory, so an
    owned memory allocates, frees, loads and stores in O(1) and allocates
    nothing beyond a new chunk or block record. Anything inherited from
    before the [thaw] is copied once, on its first write. {!freeze} ends
    the ownership, after which the memory and everything it shares are
    persistent again, so the run hands out frozen memories at its
    observation points and nobody ever sees a later in-place write. The
    one owned memory a run hands out goes to the run that continues it
    (an [⊕] handover, see [mem.mli]), which writes it under the same
    owner. *)

open Values
open Memdata

type permission = Nonempty | Readable | Writable | Freeable

let perm_rank = function
  | Nonempty -> 0
  | Readable -> 1
  | Writable -> 2
  | Freeable -> 3

(** [perm_order p1 p2]: permission [p1] implies permission [p2]. *)
let perm_order p1 p2 = perm_rank p1 >= perm_rank p2

(* Per-offset permissions of carved blocks. *)
module IMap = Map.Make (Int)

(* Contents chunking: 16-byte arrays indexed by [ofs asr chunk_bits].
   [asr]/[land] implement floor division and modulus, correct for the
   negative offsets negative-bound blocks use. *)
let chunk_bits = 4
let chunk_size = 16
let chunk_ix ofs = ofs asr chunk_bits
let chunk_sub ofs = ofs land (chunk_size - 1)

(* An ownership token. Only a [live] owner writes in place; the counters
   are the owner's write statistics ({!write_stats}). *)
type owner = {
  mutable live : bool;
  mutable in_place : int;  (** chunk writes that updated an owned chunk *)
  mutable copied : int;  (** chunks copied or created for writing *)
}

let new_owner () = { live = true; in_place = 0; copied = 0 }

(* The owner of every memory the persistent interface builds: never live,
   so nothing it holds is ever written in place. *)
let nobody = { live = false; in_place = 0; copied = 0 }

(** {1 Radix tables}

    A table maps the keys [0 <= k < 16{^d}] of a tree [d] levels deep.
    A leaf holds the values of 16 consecutive keys; an inner node at
    [shift] picks its child by bits [shift .. shift + 3] of the key.
    Unwritten keys read as the table's default, and [Nil] stands for a
    subtree with no written key. Every node carries the owner that may
    update it in place, as chunks do. *)

let tab_bits = 4
let fanout = 1 lsl tab_bits
let tab_mask = fanout - 1

type 'a node =
  | Nil
  | Leaf of { l_owner : owner; vals : 'a array }
  | Inner of { i_owner : owner; shift : int; kids : 'a node array }

(* The root [n] holds exactly the keys below [1 lsl span n]. *)
let span = function Inner i -> i.shift + tab_bits | Nil | Leaf _ -> tab_bits

let rec find n k dflt =
  match n with
  | Leaf l -> l.vals.(k land tab_mask)
  | Inner i -> find i.kids.((k lsr i.shift) land tab_mask) k dflt
  | Nil -> dflt

(* The value at [k] of the table rooted at [root]; [dflt] outside it,
   negative keys included. *)
let get root k dflt = if k lsr span root <> 0 then dflt else find root k dflt

(* The node [n], at level [shift], with [k] bound to [v]: [n] itself,
   updated in place, when [o] owns it, else a copy [o] owns. *)
let rec put o dflt n shift k v =
  let j = (k lsr shift) land tab_mask in
  match n with
  | Leaf l when l.l_owner == o ->
    l.vals.(j) <- v;
    n
  | Inner i when i.i_owner == o ->
    let kid = i.kids.(j) in
    let kid' = put o dflt kid (shift - tab_bits) k v in
    if kid' != kid then i.kids.(j) <- kid';
    n
  | Leaf l ->
    let vals = Array.copy l.vals in
    vals.(j) <- v;
    Leaf { l_owner = o; vals }
  | Inner i ->
    let kids = Array.copy i.kids in
    kids.(j) <- put o dflt kids.(j) (shift - tab_bits) k v;
    Inner { i_owner = o; shift; kids }
  | Nil when shift = 0 ->
    let vals = Array.make fanout dflt in
    vals.(j) <- v;
    Leaf { l_owner = o; vals }
  | Nil ->
    let kids = Array.make fanout Nil in
    kids.(j) <- put o dflt Nil (shift - tab_bits) k v;
    Inner { i_owner = o; shift; kids }

(* The table [root] with [k] bound to [v], written under [o]. A key past
   the root's span first grows the table by a level, the old root
   becoming the first child of the new one. *)
let rec set o dflt root k v =
  if k < 0 then invalid_arg "Mem: negative table key";
  let s = span root in
  if k lsr s = 0 then put o dflt root (s - tab_bits) k v
  else
    let kids = Array.make fanout Nil in
    kids.(0) <- root;
    set o dflt (Inner { i_owner = o; shift = s; kids }) k v

(** {1 Memory states} *)

type chunk = { c_owner : owner; c_data : memval array }

(* A missing chunk: all [Undef]. *)
let no_chunk = { c_owner = nobody; c_data = [||] }

type perms =
  | Uniform of permission option
      (** every offset in [lo, hi) has this permission ([None] = no
          permission anywhere, e.g. after a whole-block [free]) *)
  | Carved of permission IMap.t  (** per-offset; absent = no permission *)

type block_info = {
  lo : int;
  hi : int;
  mutable contents : chunk node;
      (** chunk [chunk_key bi ofs] holds offset [ofs]; missing = all
          [Undef]. Updated in place only through a record its live owner
          holds. *)
  perms : perms;
  b_owner : owner;
}

(* What the block table reads outside [1, next_block): no bounds and no
   permission. *)
let no_block = { lo = 0; hi = 0; contents = Nil; perms = Uniform None; b_owner = nobody }

(* The key of the chunk holding offset [ofs] of [bi]. *)
let chunk_key bi ofs = chunk_ix ofs - chunk_ix bi.lo

(** [alloc] is the only way to create a block and nothing deletes one, so
    [blocks] binds every [b] with [0 < b < next_block], live or retired,
    and [valid_block] is a bounds check. An owned memory is one record
    that its owner's operations update and return. *)
type t = {
  mutable next_block : block;
  mutable blocks : block_info node;
  owner : owner;
}

let empty = { next_block = 1; blocks = Nil; owner = nobody }
let nextblock m = m.next_block
let valid_block m b = b > 0 && b < m.next_block

(* The record of block [b]; [no_block] when [b] is not valid. *)
let block m b = get m.blocks b no_block

let block_bounds m b =
  if valid_block m b then
    let bi = block m b in
    Some (bi.lo, bi.hi)
  else None

(** {1 Ownership} *)

let freeze m =
  if m.owner.live then m.owner.live <- false;
  m

let thaw m = { (freeze m) with owner = new_owner () }
let owned m = m.owner.live
let write_stats m = (m.owner.in_place, m.owner.copied)

(** {1 Permissions} *)

let block_perm bi ofs =
  match bi.perms with
  | Uniform p -> if ofs >= bi.lo && ofs < bi.hi then p else None
  | Carved pm -> IMap.find_opt ofs pm

let perm m b ofs p =
  match block_perm (block m b) ofs with
  | None -> false
  | Some p' -> perm_order p' p

let block_range_perm bi lo hi p =
  lo >= hi
  ||
  match bi.perms with
  | Uniform (Some p') -> lo >= bi.lo && hi <= bi.hi && perm_order p' p
  | Uniform None -> false
  | Carved pm ->
    let rec go ofs =
      ofs >= hi
      ||
      match IMap.find_opt ofs pm with
      | Some p' -> perm_order p' p && go (ofs + 1)
      | None -> false
    in
    go lo

let range_perm m b lo hi p = block_range_perm (block m b) lo hi p
let valid_pointer m b ofs = perm m b ofs Nonempty

(* Weak validity: valid or one-past-the-end, as used by pointer
   comparisons. *)
let weak_valid_pointer m b ofs =
  valid_pointer m b ofs || valid_pointer m b (ofs - 1)

(* Materialize a per-offset permission map for a block about to be
   carved. Only reached the first time a sub-range operation hits a
   uniform block. *)
let perms_to_map bi =
  match bi.perms with
  | Carved pm -> pm
  | Uniform None -> IMap.empty
  | Uniform (Some p) ->
    let rec fill ofs acc =
      if ofs >= bi.hi then acc else fill (ofs + 1) (IMap.add ofs p acc)
    in
    fill bi.lo IMap.empty

(* Set (or with [None], clear) the permission on [lo, hi) of a per-offset
   map. *)
let map_set_range pm lo hi p =
  let rec go ofs pm =
    if ofs >= hi then pm
    else
      go (ofs + 1)
        (match p with
        | None -> IMap.remove ofs pm
        | Some p -> IMap.add ofs p pm)
  in
  go lo pm

(* Normalize: an emptied carved map means no permission anywhere. *)
let carved pm = if IMap.is_empty pm then Uniform None else Carved pm

(* {2 The write path}

   Every write runs under an owner: the memory's own when it is thawed,
   otherwise a fresh one that dies when the write returns, which makes
   the persistent write "copy what you touch" and the owned write
   "update what you already own" the same code. *)

let write_owner m = if m.owner.live then m.owner else new_owner ()
let release m o = if o != m.owner then o.live <- false

(* [m] with block [b] bound to the record [bi] and [next_block] set,
   written under [o]: [m] itself when [o] owns it. *)
let install m o b bi next_block =
  let blocks = set o no_block m.blocks b bi in
  if o == m.owner then begin
    if blocks != m.blocks then m.blocks <- blocks;
    m.next_block <- next_block;
    m
  end
  else { next_block; blocks; owner = m.owner }

(* [m] with block [b]'s permissions replaced by [perms]. *)
let set_perms m b bi perms =
  let o = write_owner m in
  let m' = install m o b { bi with perms; b_owner = o } m.next_block in
  release m o;
  m'

(** {1 Allocation and deallocation} *)

let alloc m lo hi =
  let b = m.next_block in
  let o = write_owner m in
  let bi = { lo; hi; contents = Nil; perms = Uniform (Some Freeable); b_owner = o } in
  let m' = install m o b bi (b + 1) in
  release m o;
  (m', b)

let free m b lo hi =
  if lo >= hi then Some m
  else
    let bi = block m b in
    (* A never-allocated or retired block has no permission. *)
    if not (block_range_perm bi lo hi Freeable) then None
    else
      let perms =
        match bi.perms with
        | Uniform _ when lo <= bi.lo && hi >= bi.hi -> Uniform None
        | _ -> carved (map_set_range (perms_to_map bi) lo hi None)
      in
      Some (set_perms m b bi perms)

let rec free_list m = function
  | [] -> Some m
  | (b, lo, hi) :: rest -> (
    match free m b lo hi with None -> None | Some m' -> free_list m' rest)

(** Remove permissions on [b, lo..hi) entirely (used by [LM.free_args]). *)
let drop_range m b lo hi = free m b lo hi

(** Restrict permissions on a range to at most [p]. *)
let drop_perm m b lo hi p =
  if not (valid_block m b) then None
  else if lo >= hi then Some m
  else
    let bi = block m b in
    if not (block_range_perm bi lo hi p) then None
    else
      let perms =
        match bi.perms with
        | Uniform (Some p0) when p0 = p -> bi.perms
        | Uniform _ when lo <= bi.lo && hi >= bi.hi -> Uniform (Some p)
        | _ -> Carved (map_set_range (perms_to_map bi) lo hi (Some p))
      in
      Some (set_perms m b bi perms)

(** Re-grant permission [p] on a range (used by [LM.mix] to restore the
    argument region after an external call returns). The range is clamped
    to the block's [lo, hi) bounds — a grant cannot make offsets outside
    the allocation valid — and a range entirely outside the bounds is an
    error ([None]). A grant on a retired block revives it. *)
let grant_perm m b lo hi p =
  if not (valid_block m b) then None
  else if lo >= hi then Some m
  else
    let bi = block m b in
    let lo = max lo bi.lo and hi = min hi bi.hi in
    if lo >= hi then None
    else
      let perms =
        match bi.perms with
        | Uniform (Some p0) when p0 = p -> bi.perms
        | Uniform _ when lo <= bi.lo && hi >= bi.hi -> Uniform (Some p)
        | _ -> Carved (map_set_range (perms_to_map bi) lo hi (Some p))
      in
      Some (set_perms m b bi perms)

(** {1 Loads and stores} *)

(* {2 Word runs}

   The 8-byte halves of a chunk start at cells 0 and 8. A half written
   by [inj_value Q64 v] holds [Fragment (v, Q64, 7)] in its first cell
   and [mark] in the other seven; cell [k] of it stands for
   [Fragment (v, Q64, 7 - k)]. Marks come only in whole runs behind
   their head, and never leave this module: every reader resolves them
   with [cell]. *)

let mark = Fragment (Vundef, Q64, -1)

(* Cell [i] of chunk array [a], a mark resolved against its head. *)
let cell a i =
  let mv = a.(i) in
  if mv != mark then mv
  else
    match a.(i land 8) with
    | Fragment (v, q, _) -> Fragment (v, q, 7 - (i land 7))
    | _ -> assert false (* a mark always follows its head *)

(* Cell [i] of chunk data [a], the empty array of a missing chunk
   included. *)
let cell_or_undef a i = if Array.length a = 0 then Undef else cell a i

(* Before a write into cell [i] of the writable [a] that does not cover
   its whole half: turn a word run there into its eight fragments. *)
let unmark a i =
  let h = i land 8 in
  if a.(h + 1) == mark then
    for k = 1 to 7 do
      a.(h + k) <- cell a (h + k)
    done

(* The data of chunk [k] of [bi]; the empty array when the chunk is
   missing (all [Undef]). *)
let chunk_data bi k = (get bi.contents k no_chunk).c_data

let get_byte bi ofs = cell_or_undef (chunk_data bi (chunk_key bi ofs)) (chunk_sub ofs)

(* Read [n] bytes starting at [ofs], paying one chunk lookup per chunk
   crossed (not per byte). Built back-to-front; the initial key is
   strictly below every key in range, so the first iteration fetches. *)
let getN bi ofs n =
  let rec go i k a acc =
    if i < 0 then acc
    else
      let o = ofs + i in
      let k' = chunk_key bi o in
      let a = if k' = k then a else chunk_data bi k' in
      go (i - 1) k' a (cell_or_undef a (chunk_sub o) :: acc)
  in
  go (n - 1) (chunk_key bi ofs - 1) [||] []

(* The record of a block that [o] may update: [bi] itself when [o] owns
   it, else a copy [o] owns, which the caller then installs. *)
let adopt o bi = if bi.b_owner == o then bi else { bi with b_owner = o }

(* Chunk [k] of [bi] (owned by the live [o]) as an array [o] may write
   in place: an owned chunk is returned as is, a foreign one is copied
   once and a missing one created, both then owned by [o]. *)
let writable o bi k =
  let c = get bi.contents k no_chunk in
  if c.c_owner == o then begin
    o.in_place <- o.in_place + 1;
    c.c_data
  end
  else begin
    let a = if c == no_chunk then Array.make chunk_size Undef else Array.copy c.c_data in
    o.copied <- o.copied + 1;
    bi.contents <- set o no_chunk bi.contents k { c_owner = o; c_data = a };
    a
  end

let write_bytes o bi ofs mvl =
  let rec go ofs k a = function
    | [] -> ()
    | mv :: rest ->
      let k' = chunk_key bi ofs in
      let a = if k' = k then a else writable o bi k' in
      let i = chunk_sub ofs in
      unmark a i;
      a.(i) <- mv;
      go (ofs + 1) k' a rest
  in
  go ofs (chunk_key bi ofs - 1) [||] mvl

(* Write [encode_val chunk v] at the aligned [ofs]. An aligned access of
   at most 8 bytes stays inside one chunk, so the integer and pointer
   shapes fill one array directly; the rest go through the memval list.
   An 8-byte write covers its whole half, so it simply overwrites a run
   there; the narrower ones [unmark] first. *)
let write_val o bi ofs chunk v =
  match (chunk, v) with
  | (Mint8signed | Mint8unsigned), Vint n ->
    let a = writable o bi (chunk_key bi ofs) and i = chunk_sub ofs in
    unmark a i;
    a.(i) <- byte (Int32.to_int n land 0xFF)
  | (Mint16signed | Mint16unsigned), Vint n ->
    let a = writable o bi (chunk_key bi ofs) and i = chunk_sub ofs in
    unmark a i;
    let x = Int32.to_int n in
    a.(i) <- byte (x land 0xFF);
    a.(i + 1) <- byte ((x lsr 8) land 0xFF)
  | Mint32, Vint n ->
    let a = writable o bi (chunk_key bi ofs) and i = chunk_sub ofs in
    unmark a i;
    let x = Int32.to_int n land 0xFFFFFFFF in
    a.(i) <- byte (x land 0xFF);
    a.(i + 1) <- byte ((x lsr 8) land 0xFF);
    a.(i + 2) <- byte ((x lsr 16) land 0xFF);
    a.(i + 3) <- byte ((x lsr 24) land 0xFF)
  | Mint64, Vlong n ->
    let a = writable o bi (chunk_key bi ofs) and i = chunk_sub ofs in
    let lo = Int64.to_int (Int64.logand n 0xFFFFFFFFL) in
    let hi = Int64.to_int (Int64.shift_right_logical n 32) in
    a.(i) <- byte (lo land 0xFF);
    a.(i + 1) <- byte ((lo lsr 8) land 0xFF);
    a.(i + 2) <- byte ((lo lsr 16) land 0xFF);
    a.(i + 3) <- byte ((lo lsr 24) land 0xFF);
    a.(i + 4) <- byte (hi land 0xFF);
    a.(i + 5) <- byte ((hi lsr 8) land 0xFF);
    a.(i + 6) <- byte ((hi lsr 16) land 0xFF);
    a.(i + 7) <- byte ((hi lsr 24) land 0xFF)
  | Mint64, Vptr _ | Many64, _ ->
    (* [inj_value Q64 v] as a word run: a pointer, or any value spilled
       with [Many64] (callee-save registers). *)
    let a = writable o bi (chunk_key bi ofs) and i = chunk_sub ofs in
    a.(i) <- Fragment (v, Q64, 7);
    for k = 1 to 7 do
      a.(i + k) <- mark
    done
  | _ -> write_bytes o bi ofs (encode_val chunk v)

(* {2 The read path} *)

(* Shared results for small integer loads (flags, characters, counters):
   [some_int x] is [Some (Vint x)] for a signed 32-bit [x]. *)
let small_lo = -128
let small_hi = 1023

let small_results =
  Array.init (small_hi - small_lo + 1) (fun i ->
      Some (Vint (Int32.of_int (i + small_lo))))

let some_int x =
  if x >= small_lo && x <= small_hi then small_results.(x - small_lo)
  else Some (Vint (Int32.of_int x))

let some_undef = Some Vundef

(* Sign-extend the [bits]-bit unsigned [x]. *)
let sext bits x =
  let s = 1 lsl (bits - 1) in
  (x lxor s) - s

let byte_at a i = match a.(i) with Byte b -> b | _ -> -1

let is_ptr = function Vptr _ -> true | _ -> false

(* [decode_val chunk] of the [size_chunk chunk] memvals at [i] of chunk
   array [a], for an aligned access. The integer shapes decode straight
   from the array; an undefined or mixed byte makes every integer chunk
   decode to [Vundef], exactly as [decode_val] does. *)
let read_generic chunk a i =
  Some (decode_val chunk (List.init (size_chunk chunk) (fun k -> cell a (i + k))))

(* Cells [i + k .. i + 7] of [a] are fragments of [v0] itself at
   indices [7 - k] down to 0. *)
let rec q64_tail a i v0 k =
  k > 7
  ||
  match a.(i + k) with
  | Fragment (v', Q64, idx) when idx = 7 - k && v' == v0 -> q64_tail a i v0 (k + 1)
  | _ -> false

let read_val chunk a i : value option =
  match chunk with
  | Mint8unsigned -> ( match a.(i) with Byte b -> some_int b | _ -> some_undef)
  | Mint8signed -> (
    match a.(i) with Byte b -> some_int (sext 8 b) | _ -> some_undef)
  | Mint16unsigned | Mint16signed ->
    let b0 = byte_at a i and b1 = byte_at a (i + 1) in
    if b0 lor b1 < 0 then some_undef
    else
      let x = b0 lor (b1 lsl 8) in
      some_int (if chunk = Mint16signed then sext 16 x else x)
  | Mint32 ->
    let b0 = byte_at a i
    and b1 = byte_at a (i + 1)
    and b2 = byte_at a (i + 2)
    and b3 = byte_at a (i + 3) in
    if b0 lor b1 lor b2 lor b3 < 0 then some_undef
    else some_int (sext 32 (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)))
  | Mint64 | Many64 -> (
    match a.(i) with
    | Byte _ when chunk = Many64 -> some_undef (* bytes never decode as [Many64] *)
    | Byte b0 ->
      let b1 = byte_at a (i + 1)
      and b2 = byte_at a (i + 2)
      and b3 = byte_at a (i + 3)
      and b4 = byte_at a (i + 4)
      and b5 = byte_at a (i + 5)
      and b6 = byte_at a (i + 6)
      and b7 = byte_at a (i + 7) in
      if b1 lor b2 lor b3 lor b4 lor b5 lor b6 lor b7 < 0 then some_undef
      else
        let lo = b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) in
        let hi = b4 lor (b5 lsl 8) lor (b6 lsl 16) lor (b7 lsl 24) in
        Some
          (Vlong (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)))
    | Fragment (v0, Q64, 7) when chunk = Many64 || is_ptr v0 ->
      (* A value stored by [inj_value Q64] (a pointer, or a [Many64]
         spill): a word run, or eight fragments of the same value at
         decreasing indices 7..0 (a byte-wise copy of a run shares one
         value among them, so physical equality stands in for
         [proj_value]'s structural one); anything else falls back to
         [proj_value]. *)
      if a.(i + 1) == mark || q64_tail a i v0 1 then Some v0
      else read_generic chunk a i
    | Undef -> some_undef
    | _ -> read_generic chunk a i)
  | Mfloat32 | Mfloat64 | Many32 -> read_generic chunk a i

(* Alignments are powers of two, so a mask tests them without a
   division, negative offsets included. *)
let aligned chunk ofs = ofs land (align_chunk chunk - 1) = 0

let loadbytes m b ofs n =
  if n < 0 || not (valid_block m b) then None
  else
    let bi = block m b in
    if not (block_range_perm bi ofs (ofs + n) Readable) then None
    else Some (getN bi ofs n)

let storebytes m b ofs mvl =
  if not (valid_block m b) then None
  else
    let bi = block m b in
    (* A retired block passes the range check only for the empty range,
       which writes nothing. *)
    if not (block_range_perm bi ofs (ofs + List.length mvl) Writable) then None
    else
      let o = write_owner m in
      let bi' = adopt o bi in
      write_bytes o bi' ofs mvl;
      let m' = if bi' == bi then m else install m o b bi' m.next_block in
      release m o;
      Some m'

let load chunk m b ofs =
  if not (aligned chunk ofs) then None
  else
    let bi = block m b in
    if not (block_range_perm bi ofs (ofs + size_chunk chunk) Readable) then None
    else
      let a = chunk_data bi (chunk_key bi ofs) in
      if Array.length a = 0 then some_undef else read_val chunk a (chunk_sub ofs)

let store chunk m b ofs v =
  if not (aligned chunk ofs) then None
  else
    let bi = block m b in
    if not (block_range_perm bi ofs (ofs + size_chunk chunk) Writable) then None
    else begin
      let o = write_owner m in
      let bi' = adopt o bi in
      write_val o bi' ofs chunk v;
      let m' = if bi' == bi then m else install m o b bi' m.next_block in
      release m o;
      Some m'
    end

(* Fused frame allocation: observably identical to [alloc m 0 sz]
   followed by two [store Mint64] of the frame link and return address,
   but fills the block's contents before installing it in the block
   table once instead of three times. [Pallocframe] executes this on
   every function entry. The two stores succeed exactly when both
   offsets are 8-aligned and inside [0, sz), which is checked before
   anything is built. *)
let alloc_frame m sz ofs_link link ofs_ra ra =
  let fits ofs = ofs mod 8 = 0 && ofs >= 0 && ofs + 8 <= sz in
  if not (fits ofs_link && fits ofs_ra) then None
  else
    let b = m.next_block in
    let o = write_owner m in
    let bi =
      { lo = 0; hi = sz; contents = Nil; perms = Uniform (Some Freeable); b_owner = o }
    in
    write_val o bi ofs_link Mint64 link;
    write_val o bi ofs_ra Mint64 ra;
    let m' = install m o b bi (b + 1) in
    release m o;
    Some (m', b)

let loadv chunk m = function
  | Vptr (b, ofs) -> load chunk m b ofs
  | _ -> None

let storev chunk m a v =
  match a with Vptr (b, ofs) -> store chunk m b ofs v | _ -> None

(** {1 Observation helpers used by relational checks} *)

(* [f b (block m b) acc] over every valid [b], in increasing order. *)
let fold_blocks m f acc =
  let rec go b acc = if b >= m.next_block then acc else go (b + 1) (f b (block m b) acc) in
  go 1 acc

(** All (block, offset) pairs that hold at least [Nonempty] permission.
    Only used by bounded relational checks in tests; memories there are
    small. *)
let fold_live_offsets m f acc =
  fold_blocks m
    (fun b bi acc ->
      match bi.perms with
      | Uniform None -> acc
      | Uniform (Some _) ->
        let rec go ofs acc =
          if ofs >= bi.hi then acc else go (ofs + 1) (f b ofs acc)
        in
        go bi.lo acc
      | Carved pm -> IMap.fold (fun ofs _ acc -> f b ofs acc) pm acc)
    acc

let contents_at m b ofs = get_byte (block m b) ofs

(* A retired block has no permission. *)
let perm_at m b ofs = block_perm (block m b) ofs

(** Per-offset permission entries materialized for block [b]: 0 while the
    block is in the uniform representation, the carved-map cardinality
    otherwise. Representation introspection for tests and the bench; not
    part of the semantics. *)
let perm_entries m b =
  match (block m b).perms with Uniform _ -> 0 | Carved pm -> IMap.cardinal pm

(** [unchanged_on pred m m'] holds when every location satisfying [pred]
    keeps its permission and contents from [m] to [m']. This is CompCert's
    [Mem.unchanged_on], the workhorse of the [injp] accessibility relation
    (paper, Fig. 9). *)
let unchanged_on (pred : block -> int -> bool) m m' =
  m.next_block <= m'.next_block
  && fold_live_offsets m
       (fun b ofs ok ->
         ok
         && ((not (pred b ofs))
            || perm_at m b ofs = perm_at m' b ofs
               && memval_equal (contents_at m b ofs) (contents_at m' b ofs)))
       true

(* Equality of two chunks' data. The structural fast path lets a mark
   equal only a mark (its head is compared like any other cell), so that
   it implies equal contents; otherwise the cells are compared resolved,
   a missing chunk reading as all [Undef]. *)
let data_equal a1 a2 =
  a1 == a2
  || Array.length a1 = Array.length a2
     && Array.for_all2
          (fun x y -> if x == mark || y == mark then x == y else memval_equal x y)
          a1 a2
  ||
  let rec go i =
    i >= chunk_size || (memval_equal (cell_or_undef a1 i) (cell_or_undef a2 i) && go (i + 1))
  in
  go 0

(* Equality is semantic, not representational: a carved block whose map
   happens to cover [lo, hi) uniformly equals the same block in uniform
   form, an explicitly-[Undef] content chunk equals an absent one, a word
   run equals its eight fragments, whether a block is live or retired is
   not compared beyond its permissions, and owners are not compared.
   Offsets outside [lo, hi) are never written, so comparing the chunks
   that cover [lo, hi) whole compares the contents. *)
let block_equal b1 b2 =
  b1 == b2
  || b1.lo = b2.lo && b1.hi = b2.hi
     && (match (b1.perms, b2.perms) with
        | Uniform p, Uniform q -> p = q
        | Carved p, Carved q when IMap.equal ( = ) p q -> true
        | _ ->
          let rec go ofs =
            ofs >= b1.hi || (block_perm b1 ofs = block_perm b2 ofs && go (ofs + 1))
          in
          go b1.lo)
     &&
     let last = chunk_key b1 (b1.hi - 1) in
     let rec go k =
       k > last || (data_equal (chunk_data b1 k) (chunk_data b2 k) && go (k + 1))
     in
     go 0

let equal m1 m2 =
  let rec go b =
    b >= m1.next_block || (block_equal (block m1 b) (block m2 b) && go (b + 1))
  in
  m1.next_block = m2.next_block && (m1.blocks == m2.blocks || go 1)

let pp fmt m =
  Format.fprintf fmt "@[<v>mem (next=b%d)" m.next_block;
  fold_blocks m (fun b bi () -> Format.fprintf fmt "@ b%d: [%d,%d)" b bi.lo bi.hi) ();
  Format.fprintf fmt "@]"
