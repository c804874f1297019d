(** Reference implementation of the memory model for differential
    testing: the straightforward per-byte representation (one persistent
    map entry per offset for both permissions and contents) that
    [Memory.Mem] used before its interval/chunked rewrite. It is kept
    deliberately naive — every operation is the textbook reading of
    Fig. 4 — so random operation sequences can be checked against it.

    The only intentional divergence from the historical code is
    [grant_perm], which here (like the production module) clamps the
    range to the block's bounds and rejects ranges entirely outside
    them; the old unclamped behavior could mint permissions outside
    [lo, hi), which was a bug. *)

open Memory.Values
open Memory.Memdata

type permission = Memory.Mem.permission =
  | Nonempty
  | Readable
  | Writable
  | Freeable

let perm_rank = function
  | Nonempty -> 0
  | Readable -> 1
  | Writable -> 2
  | Freeable -> 3

let perm_order p1 p2 = perm_rank p1 >= perm_rank p2

module IMap = Map.Make (Int)

type block_info = {
  lo : int;
  hi : int;
  contents : memval IMap.t;  (** default [Undef] *)
  perms : permission IMap.t;  (** absent = no permission *)
}

type t = { next_block : block; blocks : block_info IMap.t }

let empty = { next_block = 1; blocks = IMap.empty }
let nextblock m = m.next_block

(* Blocks are never deleted: [free] only drops permissions. *)
let valid_block m b = IMap.mem b m.blocks

let block_bounds m b =
  match IMap.find_opt b m.blocks with
  | Some bi -> Some (bi.lo, bi.hi)
  | None -> None

let perm m b ofs p =
  match IMap.find_opt b m.blocks with
  | None -> false
  | Some bi -> (
    match IMap.find_opt ofs bi.perms with
    | None -> false
    | Some p' -> perm_order p' p)

let range_perm m b lo hi p =
  let rec go ofs = ofs >= hi || (perm m b ofs p && go (ofs + 1)) in
  go lo

let valid_pointer m b ofs = perm m b ofs Nonempty

let alloc m lo hi =
  let b = m.next_block in
  let perms =
    let rec fill ofs acc =
      if ofs >= hi then acc else fill (ofs + 1) (IMap.add ofs Freeable acc)
    in
    fill lo IMap.empty
  in
  let bi = { lo; hi; contents = IMap.empty; perms } in
  ({ next_block = b + 1; blocks = IMap.add b bi m.blocks }, b)

let free m b lo hi =
  if lo >= hi then Some m
  else if not (range_perm m b lo hi Freeable) then None
  else
    match IMap.find_opt b m.blocks with
    | None -> None
    | Some bi ->
      let rec clear ofs perms =
        if ofs >= hi then perms else clear (ofs + 1) (IMap.remove ofs perms)
      in
      let bi = { bi with perms = clear lo bi.perms } in
      Some { m with blocks = IMap.add b bi m.blocks }

let drop_range m b lo hi = free m b lo hi

let drop_perm m b lo hi p =
  if not (range_perm m b lo hi p) then None
  else
    match IMap.find_opt b m.blocks with
    | None -> None
    | Some bi ->
      let rec set ofs perms =
        if ofs >= hi then perms else set (ofs + 1) (IMap.add ofs p perms)
      in
      let bi = { bi with perms = set lo bi.perms } in
      Some { m with blocks = IMap.add b bi m.blocks }

let grant_perm m b lo hi p =
  match IMap.find_opt b m.blocks with
  | None -> None
  | Some bi ->
    if lo >= hi then Some m
    else
      let lo = max lo bi.lo and hi = min hi bi.hi in
      if lo >= hi then None
      else
        let rec set ofs perms =
          if ofs >= hi then perms else set (ofs + 1) (IMap.add ofs p perms)
        in
        let bi = { bi with perms = set lo bi.perms } in
        Some { m with blocks = IMap.add b bi m.blocks }

let getN bi ofs n =
  List.init n (fun i ->
      Option.value (IMap.find_opt (ofs + i) bi.contents) ~default:Undef)

let setN bi ofs mvl =
  let contents, _ =
    List.fold_left
      (fun (c, i) mv -> (IMap.add (ofs + i) mv c, i + 1))
      (bi.contents, 0) mvl
  in
  { bi with contents }

let aligned chunk ofs = ofs mod align_chunk chunk = 0

let loadbytes m b ofs n =
  if n < 0 then None
  else if not (range_perm m b ofs (ofs + n) Readable) then None
  else
    match IMap.find_opt b m.blocks with
    | None -> None
    | Some bi -> Some (getN bi ofs n)

let storebytes m b ofs mvl =
  let n = List.length mvl in
  if not (range_perm m b ofs (ofs + n) Writable) then None
  else
    match IMap.find_opt b m.blocks with
    | None -> None
    | Some bi ->
      Some { m with blocks = IMap.add b (setN bi ofs mvl) m.blocks }

let load chunk m b ofs =
  if not (aligned chunk ofs) then None
  else
    match loadbytes m b ofs (size_chunk chunk) with
    | None -> None
    | Some mvl -> Some (decode_val chunk mvl)

let store chunk m b ofs v =
  if not (aligned chunk ofs) then None
  else if not (range_perm m b ofs (ofs + size_chunk chunk) Writable) then None
  else storebytes m b ofs (encode_val chunk v)

let contents_at m b ofs =
  match IMap.find_opt b m.blocks with
  | None -> Undef
  | Some bi -> Option.value (IMap.find_opt ofs bi.contents) ~default:Undef

let perm_at m b ofs =
  match IMap.find_opt b m.blocks with
  | None -> None
  | Some bi -> IMap.find_opt ofs bi.perms
