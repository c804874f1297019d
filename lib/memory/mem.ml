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
    16-byte arrays keyed by [ofs asr 4]; an aligned access of at most 8
    bytes never crosses a chunk, so loads and stores of every integer
    chunk read or write one array directly. Concrete bytes come from a
    shared table ([Memdata.byte]) and small integer results are shared,
    so a byte access allocates nothing beyond the returned option.

    Two choices keep the frame traffic of every call cheap. A block that
    [free] leaves without any permission is {e retired}: it moves from the
    live map to a list with one cons, keeping its bounds and contents
    (CompCert's [free] only drops permissions), and loads, stores, [alloc]
    and [free] never look at that list. A pointer stored with [Mint64], or
    any value stored with [Many64], at an 8-aligned offset is a {e word
    run}: the first cell of its 8-byte half-chunk holds
    [Fragment (v, Q64, 7)] and the other seven hold one shared mark, read
    back as [Fragment (v, Q64, 6)] ... [Fragment (v, Q64, 0)]. A write
    that covers only part of a run first turns it into those eight
    fragments. All observable behavior (every function of the interface)
    is unchanged; [test/test_mem_diff.ml] checks this against the per-byte
    reference implementation on random operation sequences.

    {b Copy-on-observe ownership.} A memory built by the interface below
    is persistent: a write copies the one chunk it touches and the path
    to it. A memory returned by {!thaw} instead belongs to one {e owner},
    a run that promises to use it linearly (never touching a memory again
    once an operation has returned its successor). Chunks and blocks
    carry the owner that created them; a write under the owner that
    already holds the chunk updates it in place and returns the same
    memory. Anything inherited from before the [thaw] is copied once, on
    its first write. {!freeze} ends the ownership, after which the memory
    and everything it shares are persistent again, so the run hands out
    frozen memories at its observation points and nobody ever sees a
    later in-place write. *)

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

module IMap = Map.Make (Int)

(* Contents chunking: 16-byte arrays keyed by [ofs asr chunk_bits].
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

type chunk = { c_owner : owner; c_data : memval array }

type perms =
  | Uniform of permission option
      (** every offset in [lo, hi) has this permission ([None] = no
          permission anywhere, e.g. after a whole-block [free]) *)
  | Carved of permission IMap.t  (** per-offset; absent = no permission *)

type block_info = {
  lo : int;
  hi : int;
  mutable contents : chunk IMap.t;
      (** 16-byte chunks; missing = all [Undef]. Updated in place only
          through a record its live owner holds. *)
  perms : perms;
  b_owner : owner;
}

(** [alloc] is the only way to create a block and nothing deletes one, so
    every block [b] with [0 < b < next_block] is in exactly one of
    [blocks] and [dead], and [valid_block] is a bounds check. *)
type t = {
  next_block : block;
  blocks : block_info IMap.t;  (** live blocks *)
  dead : (block * block_info) list;
      (** retired blocks, newest first: those [free] left without any
          permission, with their bounds and contents. A free conses onto
          it; only observers ([block_bounds], [contents_at], [loadbytes],
          [drop_perm], [grant_perm], [equal], [pp]) look past [blocks]
          into it, so [blocks] — which every load, store, alloc and free
          searches and rebuilds — stays at live-block size. *)
  owner : owner;
}

let empty = { next_block = 1; blocks = IMap.empty; dead = []; owner = nobody }
let nextblock m = m.next_block
let valid_block m b = b > 0 && b < m.next_block

let find_block m b =
  match IMap.find_opt b m.blocks with
  | Some _ as r -> r
  | None -> List.assoc_opt b m.dead

let block_bounds m b =
  match find_block m b with
  | Some bi -> Some (bi.lo, bi.hi)
  | None -> None

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
  match IMap.find b m.blocks with
  | exception Not_found -> false
  | bi -> (
    match block_perm bi ofs with
    | None -> false
    | Some p' -> perm_order p' p)

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

let range_perm m b lo hi p =
  lo >= hi
  ||
  match IMap.find_opt b m.blocks with
  | None -> false
  | Some bi -> block_range_perm bi lo hi p

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

(** {1 Allocation and deallocation} *)

let alloc m lo hi =
  let b = m.next_block in
  let bi =
    { lo; hi; contents = IMap.empty; perms = Uniform (Some Freeable);
      b_owner = m.owner }
  in
  ({ m with next_block = b + 1; blocks = IMap.add b bi m.blocks }, b)

let free m b lo hi =
  if lo >= hi then Some m
  else
    match IMap.find_opt b m.blocks with
    | None -> None (* never-allocated or already fully freed: no permission *)
    | Some bi ->
      if not (block_range_perm bi lo hi Freeable) then None
      else
        let perms =
          match bi.perms with
          | Uniform _ when lo <= bi.lo && hi >= bi.hi -> Uniform None
          | _ -> carved (map_set_range (perms_to_map bi) lo hi None)
        in
        (match perms with
        | Uniform None ->
          (* No permission left anywhere: retire the block, contents and
             all. *)
          Some
            { m with
              blocks = IMap.remove b m.blocks;
              dead = (b, { bi with perms }) :: m.dead }
        | _ -> Some { m with blocks = IMap.add b { bi with perms } m.blocks })

let rec free_list m = function
  | [] -> Some m
  | (b, lo, hi) :: rest -> (
    match free m b lo hi with None -> None | Some m' -> free_list m' rest)

(** Remove permissions on [b, lo..hi) entirely (used by [LM.free_args]). *)
let drop_range m b lo hi = free m b lo hi

(** Restrict permissions on a range to at most [p]. *)
let drop_perm m b lo hi p =
  match find_block m b with
  | None -> None
  | Some bi ->
    if lo >= hi then Some m
    else
      if not (block_range_perm bi lo hi p) then None
      else
        (* [bi] is live: a [dead] block has no permission and cannot pass
           the range check above. *)
        let perms =
          match bi.perms with
          | Uniform (Some p0) when p0 = p -> bi.perms
          | Uniform _ when lo <= bi.lo && hi >= bi.hi -> Uniform (Some p)
          | _ -> Carved (map_set_range (perms_to_map bi) lo hi (Some p))
        in
        Some { m with blocks = IMap.add b { bi with perms } m.blocks }

(** Re-grant permission [p] on a range (used by [LM.mix] to restore the
    argument region after an external call returns). The range is clamped
    to the block's [lo, hi) bounds — a grant cannot make offsets outside
    the allocation valid — and a range entirely outside the bounds is an
    error ([None]). *)
let grant_perm m b lo hi p =
  match find_block m b with
  | None -> None
  | Some bi ->
    if lo >= hi then Some m
    else
      let lo = max lo bi.lo and hi = min hi bi.hi in
      if lo >= hi then None
      else
        let perms =
          match bi.perms with
          | Uniform (Some p0) when p0 = p -> bi.perms
          | Uniform _ when lo <= bi.lo && hi >= bi.hi -> Uniform (Some p)
          | _ -> Carved (map_set_range (perms_to_map bi) lo hi (Some p))
        in
        (* A grant on a retired block resurrects permissions, so the block
           moves back from [dead] to [blocks]; a live block leaves the
           list alone. *)
        let dead =
          if IMap.mem b m.blocks then m.dead else List.remove_assoc b m.dead
        in
        Some { m with blocks = IMap.add b { bi with perms } m.blocks; dead }

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

(* Before a write into cell [i] of the writable [a] that does not cover
   its whole half: turn a word run there into its eight fragments. *)
let unmark a i =
  let h = i land 8 in
  if a.(h + 1) == mark then
    for k = 1 to 7 do
      a.(h + k) <- cell a (h + k)
    done

(* The data of chunk [ix]; the empty array when the chunk is missing (all
   [Undef]). *)
let chunk_data bi ix =
  match IMap.find ix bi.contents with
  | c -> c.c_data
  | exception Not_found -> [||]

let get_byte bi ofs =
  let a = chunk_data bi (chunk_ix ofs) in
  if Array.length a = 0 then Undef else cell a (chunk_sub ofs)

(* Read [n] bytes starting at [ofs], paying one chunk lookup per chunk
   crossed (not per byte). Built back-to-front; the initial index is
   strictly below every index in range, so the first iteration fetches. *)
let getN bi ofs n =
  let rec go i ix a acc =
    if i < 0 then acc
    else
      let o = ofs + i in
      let ix' = chunk_ix o in
      let a = if ix' = ix then a else chunk_data bi ix' in
      let mv = if Array.length a = 0 then Undef else cell a (chunk_sub o) in
      go (i - 1) ix' a (mv :: acc)
  in
  go (n - 1) (chunk_ix ofs - 1) [||] []

(* {2 The write path}

   Every write runs under an owner: the memory's own when it is thawed,
   otherwise a fresh one that dies when the write returns, which makes
   the persistent write "copy what you touch" and the owned write
   "update what you already own" the same code. *)

let write_owner m = if m.owner.live then m.owner else new_owner ()
let release m o = if o != m.owner then o.live <- false

(* The record of a block that [o] may update: [bi] itself when [o] owns
   it, else a copy [o] owns, which {!install} then puts in the map. *)
let adopt o bi = if bi.b_owner == o then bi else { bi with b_owner = o }

let install m b bi bi' =
  if bi' == bi then m else { m with blocks = IMap.add b bi' m.blocks }

(* Chunk [ix] of [bi] (owned by the live [o]) as an array [o] may write
   in place: an owned chunk is returned as is, a foreign one is copied
   once and a missing one created, both then owned by [o]. *)
let own_chunk o bi ix a =
  o.copied <- o.copied + 1;
  bi.contents <- IMap.add ix { c_owner = o; c_data = a } bi.contents;
  a

let writable o bi ix =
  match IMap.find ix bi.contents with
  | c when c.c_owner == o ->
    o.in_place <- o.in_place + 1;
    c.c_data
  | c -> own_chunk o bi ix (Array.copy c.c_data)
  | exception Not_found -> own_chunk o bi ix (Array.make chunk_size Undef)

let write_bytes o bi ofs mvl =
  let rec go ofs ix a = function
    | [] -> ()
    | mv :: rest ->
      let ix' = chunk_ix ofs in
      let a = if ix' = ix then a else writable o bi ix' in
      let i = chunk_sub ofs in
      unmark a i;
      a.(i) <- mv;
      go (ofs + 1) ix' a rest
  in
  go ofs (chunk_ix ofs - 1) [||] mvl

(* Write [encode_val chunk v] at the aligned [ofs]. An aligned access of
   at most 8 bytes stays inside one chunk, so the integer and pointer
   shapes fill one array directly; the rest go through the memval list.
   An 8-byte write covers its whole half, so it simply overwrites a run
   there; the narrower ones [unmark] first. *)
let write_val o bi ofs chunk v =
  match (chunk, v) with
  | (Mint8signed | Mint8unsigned), Vint n ->
    let a = writable o bi (chunk_ix ofs) and i = chunk_sub ofs in
    unmark a i;
    a.(i) <- byte (Int32.to_int n land 0xFF)
  | (Mint16signed | Mint16unsigned), Vint n ->
    let a = writable o bi (chunk_ix ofs) and i = chunk_sub ofs in
    unmark a i;
    let x = Int32.to_int n in
    a.(i) <- byte (x land 0xFF);
    a.(i + 1) <- byte ((x lsr 8) land 0xFF)
  | Mint32, Vint n ->
    let a = writable o bi (chunk_ix ofs) and i = chunk_sub ofs in
    unmark a i;
    let x = Int32.to_int n land 0xFFFFFFFF in
    a.(i) <- byte (x land 0xFF);
    a.(i + 1) <- byte ((x lsr 8) land 0xFF);
    a.(i + 2) <- byte ((x lsr 16) land 0xFF);
    a.(i + 3) <- byte ((x lsr 24) land 0xFF)
  | Mint64, Vlong n ->
    let a = writable o bi (chunk_ix ofs) and i = chunk_sub ofs in
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
    let a = writable o bi (chunk_ix ofs) and i = chunk_sub ofs in
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

(* [v = v] (false only for a NaN float), the condition under which
   [proj_value]'s structural comparison accepts a fragment run that
   physical equality accepts. *)
let self_equal = function Vfloat f | Vsingle f -> f = f | _ -> true
let is_ptr = function Vptr _ -> true | _ -> false

(* [decode_val chunk] of the [size_chunk chunk] memvals at [i] of chunk
   array [a], for an aligned access. The integer shapes decode straight
   from the array; an undefined or mixed byte makes every integer chunk
   decode to [Vundef], exactly as [decode_val] does. *)
let read_generic chunk a i =
  Some (decode_val chunk (List.init (size_chunk chunk) (fun k -> cell a (i + k))))

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
    | Fragment (v0, Q64, 7) when self_equal v0 && (chunk = Many64 || is_ptr v0) ->
      (* A value stored by [inj_value Q64] (a pointer, or a [Many64]
         spill): a word run, or eight fragments of the same value at
         decreasing indices 7..0 (a byte-wise copy of a run shares one
         value among them, so physical equality stands in for
         [proj_value]'s structural one); anything else falls back to
         [proj_value]. *)
      let rec check k =
        k > 7
        ||
        match a.(i + k) with
        | Fragment (v', Q64, idx) when idx = 7 - k && v' == v0 -> check (k + 1)
        | _ -> false
      in
      if a.(i + 1) == mark || check 1 then Some v0 else read_generic chunk a i
    | Undef -> some_undef
    | _ -> read_generic chunk a i)
  | Mfloat32 | Mfloat64 | Many32 -> read_generic chunk a i

(* Alignments are powers of two, so a mask tests them without a
   division, negative offsets included. *)
let aligned chunk ofs = ofs land (align_chunk chunk - 1) = 0

let loadbytes m b ofs n =
  if n < 0 then None
  else
    match find_block m b with
    | None -> None
    | Some bi ->
      if not (block_range_perm bi ofs (ofs + n) Readable) then None
      else Some (getN bi ofs n)

let storebytes m b ofs mvl =
  match IMap.find_opt b m.blocks with
  | None ->
    (* A retired block passes the range check only for the empty range,
       which writes nothing. *)
    if mvl = [] && valid_block m b then Some m else None
  | Some bi ->
    let n = List.length mvl in
    if not (block_range_perm bi ofs (ofs + n) Writable) then None
    else
      let o = write_owner m in
      let bi' = adopt o bi in
      write_bytes o bi' ofs mvl;
      release m o;
      Some (install m b bi bi')

let load chunk m b ofs =
  if not (aligned chunk ofs) then None
  else
    match IMap.find b m.blocks with
    | exception Not_found -> None
    | bi ->
      if not (block_range_perm bi ofs (ofs + size_chunk chunk) Readable) then None
      else
        let a = chunk_data bi (chunk_ix ofs) in
        if Array.length a = 0 then some_undef else read_val chunk a (chunk_sub ofs)

let store chunk m b ofs v =
  if not (aligned chunk ofs) then None
  else
    match IMap.find b m.blocks with
    | exception Not_found -> None
    | bi ->
      if not (block_range_perm bi ofs (ofs + size_chunk chunk) Writable) then None
      else begin
        let o = write_owner m in
        let bi' = adopt o bi in
        write_val o bi' ofs chunk v;
        release m o;
        Some (install m b bi bi')
      end

(* Fused frame allocation: observably identical to [alloc m 0 sz]
   followed by two [store Mint64] of the frame link and return address,
   but fills the block's contents before inserting it into the blocks map
   once instead of three times. [Pallocframe] executes this on every
   function entry. The two stores succeed exactly when both offsets are
   8-aligned and inside [0, sz), which is checked before anything is
   built. *)
let alloc_frame m sz ofs_link link ofs_ra ra =
  let fits ofs = ofs mod 8 = 0 && ofs >= 0 && ofs + 8 <= sz in
  if not (fits ofs_link && fits ofs_ra) then None
  else
    let b = m.next_block in
    let o = write_owner m in
    let bi =
      { lo = 0; hi = sz; contents = IMap.empty; perms = Uniform (Some Freeable);
        b_owner = o }
    in
    write_val o bi ofs_link Mint64 link;
    write_val o bi ofs_ra Mint64 ra;
    release m o;
    Some ({ m with next_block = b + 1; blocks = IMap.add b bi m.blocks }, b)

let loadv chunk m = function
  | Vptr (b, ofs) -> load chunk m b ofs
  | _ -> None

let storev chunk m a v =
  match a with Vptr (b, ofs) -> store chunk m b ofs v | _ -> None

(** {1 Observation helpers used by relational checks} *)

(** All (block, offset) pairs that hold at least [Nonempty] permission.
    Only used by bounded relational checks in tests; memories there are
    small. *)
let fold_live_offsets m f acc =
  IMap.fold
    (fun b bi acc ->
      match bi.perms with
      | Uniform None -> acc
      | Uniform (Some _) ->
        let rec go ofs acc =
          if ofs >= bi.hi then acc else go (ofs + 1) (f b ofs acc)
        in
        go bi.lo acc
      | Carved pm -> IMap.fold (fun ofs _ acc -> f b ofs acc) pm acc)
    m.blocks acc

let contents_at m b ofs =
  match find_block m b with
  | None -> Undef
  | Some bi -> get_byte bi ofs

(* A retired block has no permission anywhere. *)
let perm_at m b ofs =
  match IMap.find_opt b m.blocks with
  | None -> None
  | Some bi -> block_perm bi ofs

(** Per-offset permission entries materialized for block [b]: 0 while the
    block is in the uniform representation, the carved-map cardinality
    otherwise. Representation introspection for tests and the bench; not
    part of the semantics. *)
let perm_entries m b =
  match IMap.find_opt b m.blocks with
  | None -> 0
  | Some bi -> (
    match bi.perms with Uniform _ -> 0 | Carved pm -> IMap.cardinal pm)

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
               && contents_at m b ofs = contents_at m' b ofs))
       true

(* Structural equality of two chunks' data, except that a mark equals
   only a mark (its head is compared like any other cell), so that it
   implies equal contents. *)
let data_equal a1 a2 =
  Array.for_all2 (fun x y -> if x == mark || y == mark then x == y else x = y) a1 a2

(* Equality is semantic, not representational: a carved block whose map
   happens to cover [lo, hi) uniformly equals the same block in uniform
   form, an explicitly-[Undef] content chunk equals an absent one, a word
   run equals its eight fragments, and owners are not compared.
   Structural fast paths cover the common cases. *)
let block_equal b1 b2 =
  b1.lo = b2.lo && b1.hi = b2.hi
  && (match (b1.perms, b2.perms) with
     | Uniform p, Uniform q -> p = q
     | Carved p, Carved q when IMap.equal ( = ) p q -> true
     | _ ->
       let rec go ofs =
         ofs >= b1.hi || (block_perm b1 ofs = block_perm b2 ofs && go (ofs + 1))
       in
       go b1.lo)
  && (IMap.equal (fun c1 c2 -> data_equal c1.c_data c2.c_data) b1.contents b2.contents
     ||
     let rec go ofs =
       ofs >= b1.hi || (get_byte b1 ofs = get_byte b2 ofs && go (ofs + 1))
     in
     go b1.lo)

(* Equality compares the union view: whether a block is live or retired
   is representation, not semantics. *)
let all_blocks m =
  List.fold_left (fun acc (b, bi) -> IMap.add b bi acc) m.blocks m.dead

let equal m1 m2 =
  m1.next_block = m2.next_block
  && IMap.equal block_equal (all_blocks m1) (all_blocks m2)

let pp fmt m =
  Format.fprintf fmt "@[<v>mem (next=b%d)" m.next_block;
  IMap.iter
    (fun b bi -> Format.fprintf fmt "@ b%d: [%d,%d)" b bi.lo bi.hi)
    (all_blocks m);
  Format.fprintf fmt "@]"
