(** Differential tests for the interval/chunked memory representation:
    [Memory.Mem] is executed side by side with [Mem_oracle] (the previous
    per-byte implementation) on random operation sequences, and every
    observable — operation success, returned values, per-offset
    permissions and contents, block bounds — must agree. This is the
    validation harness for the [Mem] hot-path rewrite: the representation
    changed, the semantics must not.

    The operations store every chunk shape (pointers and [Many64] spills
    included, at offsets biased toward multiples of 8 so that word runs
    form) and copy ranges byte-wise with [loadbytes]/[storebytes] the way
    a [memcpy] moves a pointer. The same operations also run on owned
    ([Mem.thaw]) memories with interleaved freezes: in-place writes must
    agree with the oracle and never reach a memory handed out earlier.
    Three generators aim at the radix tables behind [Mem]: thousands of
    retired frames make the block table several levels deep, blocks with
    a negative [lo] and hundreds of chunks make a chunk table deeper than
    one node, and two runs thawed from one frozen memory write the same
    blocks in turn.

    Also contains the regression tests for the [grant_perm] bounds bug
    (granting outside [lo, hi) used to mint permissions out of bounds),
    the representation test that alloc/free of a large block never
    materializes per-offset permission entries, [Mem.equal] across the
    word-run and fragment representations and across retired blocks,
    and the allocation bounds of frame retirement and word-run stores and
    loads. *)

open Memory
open Memory.Values
open Memory.Memdata

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Operation language                                                  *)
(* ------------------------------------------------------------------ *)

type op =
  | OAlloc of int * int
  | OFree of int * int * int  (** block, lo, hi *)
  | ODropRange of int * int * int
  | ODropPerm of int * int * int * Mem.permission
  | OGrant of int * int * int * Mem.permission
  | OStore of chunk * int * int * value
  | OStorebytes of int * int * int list
  | OLoad of chunk * int * int
  | OLoadbytes of int * int * int
  | OCopy of int * int * int * int * int
      (** source block and offset, destination block and offset, length:
          [loadbytes] then [storebytes] of the memvals it returned *)
  | OFrames of int * int
      (** [n] frames of [sz] bytes, each allocated, given a pointer at
          offset 0 and freed whole before the next *)

(* What a step observably did; compared between the two implementations. *)
type outcome =
  | ODone of bool  (** operation succeeded *)
  | OVal of value option
  | OBytes of memval list option

let step_new (m : Mem.t) : op -> Mem.t * outcome = function
  | OAlloc (lo, hi) ->
    let m, _ = Mem.alloc m lo hi in
    (m, ODone true)
  | OFree (b, lo, hi) -> (
    match Mem.free m b lo hi with
    | Some m' -> (m', ODone true)
    | None -> (m, ODone false))
  | ODropRange (b, lo, hi) -> (
    match Mem.drop_range m b lo hi with
    | Some m' -> (m', ODone true)
    | None -> (m, ODone false))
  | ODropPerm (b, lo, hi, p) -> (
    match Mem.drop_perm m b lo hi p with
    | Some m' -> (m', ODone true)
    | None -> (m, ODone false))
  | OGrant (b, lo, hi, p) -> (
    match Mem.grant_perm m b lo hi p with
    | Some m' -> (m', ODone true)
    | None -> (m, ODone false))
  | OStore (chunk, b, ofs, v) -> (
    match Mem.store chunk m b ofs v with
    | Some m' -> (m', ODone true)
    | None -> (m, ODone false))
  | OStorebytes (b, ofs, bytes) -> (
    match Mem.storebytes m b ofs (List.map (fun x -> Byte x) bytes) with
    | Some m' -> (m', ODone true)
    | None -> (m, ODone false))
  | OLoad (chunk, b, ofs) -> (m, OVal (Mem.load chunk m b ofs))
  | OLoadbytes (b, ofs, n) -> (m, OBytes (Mem.loadbytes m b ofs n))
  | OCopy (sb, so, db, dof, n) -> (
    match Option.bind (Mem.loadbytes m sb so n) (Mem.storebytes m db dof) with
    | Some m' -> (m', ODone true)
    | None -> (m, ODone false))
  | OFrames (n, sz) ->
    let rec go m n =
      if n = 0 then m
      else
        let m, b = Mem.alloc m 0 sz in
        let m = Option.get (Mem.store Mint64 m b 0 (Vptr (b, 0))) in
        go (Option.get (Mem.free m b 0 sz)) (n - 1)
    in
    (go m n, ODone true)

let step_old (m : Mem_oracle.t) : op -> Mem_oracle.t * outcome = function
  | OAlloc (lo, hi) ->
    let m, _ = Mem_oracle.alloc m lo hi in
    (m, ODone true)
  | OFree (b, lo, hi) -> (
    match Mem_oracle.free m b lo hi with
    | Some m' -> (m', ODone true)
    | None -> (m, ODone false))
  | ODropRange (b, lo, hi) -> (
    match Mem_oracle.drop_range m b lo hi with
    | Some m' -> (m', ODone true)
    | None -> (m, ODone false))
  | ODropPerm (b, lo, hi, p) -> (
    match Mem_oracle.drop_perm m b lo hi p with
    | Some m' -> (m', ODone true)
    | None -> (m, ODone false))
  | OGrant (b, lo, hi, p) -> (
    match Mem_oracle.grant_perm m b lo hi p with
    | Some m' -> (m', ODone true)
    | None -> (m, ODone false))
  | OStore (chunk, b, ofs, v) -> (
    match Mem_oracle.store chunk m b ofs v with
    | Some m' -> (m', ODone true)
    | None -> (m, ODone false))
  | OStorebytes (b, ofs, bytes) -> (
    match Mem_oracle.storebytes m b ofs (List.map (fun x -> Byte x) bytes) with
    | Some m' -> (m', ODone true)
    | None -> (m, ODone false))
  | OLoad (chunk, b, ofs) -> (m, OVal (Mem_oracle.load chunk m b ofs))
  | OLoadbytes (b, ofs, n) -> (m, OBytes (Mem_oracle.loadbytes m b ofs n))
  | OCopy (sb, so, db, dof, n) -> (
    match
      Option.bind (Mem_oracle.loadbytes m sb so n) (Mem_oracle.storebytes m db dof)
    with
    | Some m' -> (m', ODone true)
    | None -> (m, ODone false))
  | OFrames (n, sz) ->
    let rec go m n =
      if n = 0 then m
      else
        let m, b = Mem_oracle.alloc m 0 sz in
        let m = Option.get (Mem_oracle.store Mint64 m b 0 (Vptr (b, 0))) in
        go (Option.get (Mem_oracle.free m b 0 sz)) (n - 1)
    in
    (go m n, ODone true)

(* Observable state: validity, bounds, permission and byte at every
   offset of a window covering all generated ranges, for every block ever
   allocated (plus one invalid id on each side). Past 64 blocks, the
   first and last 8 and every 97th stand for the rest. *)
let obs_window = List.init 72 (fun i -> i - 20)

let observed_blocks nb =
  if nb <= 64 then List.init (nb + 1) Fun.id
  else List.filter (fun b -> b <= 8 || b >= nb - 8 || b mod 97 = 0) (List.init (nb + 1) Fun.id)

let observe_new ?(window = obs_window) (m : Mem.t) =
  List.map
    (fun b ->
      ( Mem.valid_block m b,
        Mem.block_bounds m b,
        List.map (fun ofs -> (Mem.perm_at m b ofs, Mem.contents_at m b ofs)) window ))
    (observed_blocks (Mem.nextblock m))

let observe_old ?(window = obs_window) (m : Mem_oracle.t) =
  List.map
    (fun b ->
      ( Mem_oracle.valid_block m b,
        Mem_oracle.block_bounds m b,
        List.map
          (fun ofs -> (Mem_oracle.perm_at m b ofs, Mem_oracle.contents_at m b ofs))
          window ))
    (observed_blocks (Mem_oracle.nextblock m))

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_perm =
  QCheck.Gen.oneofl [ Mem.Nonempty; Mem.Readable; Mem.Writable; Mem.Freeable ]

let gen_block = QCheck.Gen.int_range 0 4

(* Offsets in [-16, 44], one in three a multiple of 8, where word runs
   start. *)
let gen_ofs =
  QCheck.Gen.(
    frequency [ (2, int_range (-16) 44); (1, map (fun k -> 8 * k) (int_range (-2) 5)) ])

(* Stores of every shape the read and write paths special-case (bytes,
   halves, words, longs, pointers, [Many64] spills) and of the generic
   ones (floats, NaN included, [Many32], [Vundef]). *)
let gen_any_chunk =
  QCheck.Gen.oneofl
    [ Mint8signed; Mint8unsigned; Mint16signed; Mint16unsigned; Mint32;
      Mint64; Mfloat32; Mfloat64; Many32; Many64 ]

let gen_value =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun n -> Vint (Int32.of_int n)) (int_range (-300) 70_000));
      (2, map (fun n -> Vlong (Int64.of_int n)) int);
      (2, map2 (fun b o -> Vptr (b, o)) gen_block (int_range 0 32));
      (1, oneofl [ Vundef; Vfloat 1.5; Vfloat Float.nan; Vsingle 2.5 ]);
    ]

(* A stack frame: a block [0, 8k) that a call allocates, fills and frees
   whole. *)
let gen_frame_size = QCheck.Gen.map (fun k -> 8 * k) (QCheck.Gen.int_range 1 6)
let gen_frame = QCheck.Gen.map (fun sz -> OAlloc (0, sz)) gen_frame_size

(* Operations on the blocks [gen_block] draws, at the offsets [gen_ofs]
   draws. *)
let gen_op_on gen_block gen_ofs : op QCheck.Gen.t =
  let open QCheck.Gen in
  let range = pair gen_ofs gen_ofs in
  frequency
    [
      (1, map (fun (lo, hi) -> OAlloc (lo, hi)) range);
      (1, gen_frame);
      (2, map2 (fun b (lo, hi) -> OFree (b, lo, hi)) gen_block range);
      (2, map2 (fun b sz -> OFree (b, 0, sz)) gen_block gen_frame_size);
      (2, map2 (fun b (lo, hi) -> ODropRange (b, lo, hi)) gen_block range);
      ( 2,
        map3
          (fun b (lo, hi) p -> ODropPerm (b, lo, hi, p))
          gen_block range gen_perm );
      ( 3,
        map3 (fun b (lo, hi) p -> OGrant (b, lo, hi, p)) gen_block range
          gen_perm );
      ( 6,
        map3
          (fun chunk (b, ofs) v -> OStore (chunk, b, ofs, v))
          gen_any_chunk (pair gen_block gen_ofs) gen_value );
      ( 2,
        map3
          (fun b ofs bytes -> OStorebytes (b, ofs, bytes))
          gen_block gen_ofs
          (list_size (int_range 0 10) (int_bound 255)) );
      ( 4,
        map3 (fun chunk b ofs -> OLoad (chunk, b, ofs)) gen_any_chunk gen_block
          gen_ofs );
      ( 2,
        map3 (fun b ofs n -> OLoadbytes (b, ofs, n)) gen_block gen_ofs
          (int_range (-2) 12) );
      ( 2,
        map3
          (fun (sb, so) (db, dof) n -> OCopy (sb, so, db, dof, n))
          (pair gen_block gen_ofs) (pair gen_block gen_ofs) (int_range 0 16) );
    ]

let pp_op op =
  match op with
  | OAlloc (lo, hi) -> Printf.sprintf "alloc [%d,%d)" lo hi
  | OFree (b, lo, hi) -> Printf.sprintf "free b%d [%d,%d)" b lo hi
  | ODropRange (b, lo, hi) -> Printf.sprintf "drop_range b%d [%d,%d)" b lo hi
  | ODropPerm (b, lo, hi, _) -> Printf.sprintf "drop_perm b%d [%d,%d)" b lo hi
  | OGrant (b, lo, hi, _) -> Printf.sprintf "grant b%d [%d,%d)" b lo hi
  | OStore (_, b, ofs, _) -> Printf.sprintf "store b%d @%d" b ofs
  | OStorebytes (b, ofs, l) ->
    Printf.sprintf "storebytes b%d @%d len %d" b ofs (List.length l)
  | OLoad (_, b, ofs) -> Printf.sprintf "load b%d @%d" b ofs
  | OLoadbytes (b, ofs, n) -> Printf.sprintf "loadbytes b%d @%d len %d" b ofs n
  | OCopy (sb, so, db, dof, n) ->
    Printf.sprintf "copy b%d @%d -> b%d @%d len %d" sb so db dof n
  | OFrames (n, sz) -> Printf.sprintf "%d frames of %d bytes" n sz

let gen_op = gen_op_on gen_block gen_ofs
let print_ops ops = String.concat "; " (List.map pp_op ops)

(* Sequences start with a few frames, so that stores, copies and frees
   find their target. *)
let arb_ops =
  QCheck.make ~print:print_ops
    QCheck.Gen.(
      map2 ( @ ) (list_size (int_range 1 3) gen_frame)
        (list_size (int_range 1 40) gen_op))

(* A sequence biased toward the LM convention's argument-region protocol
   (Fig. 13): allocate a stack block, carve the argument region out
   ([free_args] = drop_range), then restore it ([mix] = grant_perm),
   with stores and loads interleaved. *)
let arb_carve_ops =
  let open QCheck.Gen in
  let seq =
    let* alo = int_range (-8) 0 in
    let* ahi = int_range 16 40 in
    let* clo = int_range alo ahi in
    let* chi = int_range clo ahi in
    let* middle = list_size (int_range 0 12) gen_op in
    let* p = gen_perm in
    return
      ((OAlloc (alo, ahi) :: ODropRange (1, clo, chi) :: middle)
      @ [ OGrant (1, clo, chi, p); OLoadbytes (1, alo, ahi - alo) ])
  in
  QCheck.make ~print:print_ops seq

(* A block table several levels deep: a few live frames, then hundreds
   to thousands of frames allocated and retired, then operations on the
   first blocks and on the ids around [next_block] (the last retired
   frames, then blocks the operations allocate). *)
let arb_deep_ops =
  let open QCheck.Gen in
  let seq =
    let* live = list_size (int_range 1 3) gen_frame in
    let* n = int_range 200 4500 in
    let* sz = gen_frame_size in
    let nb = List.length live + n + 1 in
    let near = oneof [ gen_block; int_range (nb - 3) (nb + 4) ] in
    let* rest = list_size (int_range 1 25) (gen_op_on near gen_ofs) in
    return (live @ (OFrames (n, sz) :: rest))
  in
  QCheck.make ~print:print_ops seq

(* Chunk tables deeper than one node: two blocks with a negative [lo] and
   hundreds of chunks (now and then past 256 chunks, three levels),
   written and read across their whole extent, then read back whole. *)
let wide_window = List.init 400 (fun i -> (13 * i) - 620)

let arb_wide_ops =
  let open QCheck.Gen in
  let seq =
    let* lo = int_range (-600) (-1) in
    let* lo2 = int_range (-40) (-1) in
    let* hi = frequency [ (3, int_range 260 900); (1, int_range 4100 4560) ] in
    let gen_wofs =
      frequency
        [ (2, int_range (lo - 8) (hi + 8)); (1, map (fun k -> 8 * k) (int_range (lo / 8) (hi / 8))) ]
    in
    let* ops = list_size (int_range 1 40) (gen_op_on (int_range 0 3) gen_wofs) in
    return
      ((OAlloc (lo, hi) :: OAlloc (lo2, hi) :: ops)
      @ [ OLoadbytes (1, lo, hi - lo); OLoadbytes (2, lo2, hi - lo2) ])
  in
  QCheck.make ~print:print_ops seq

(* [compare] rather than [=]: a stored NaN must read back equal to
   itself. *)
let differ a b = compare a b <> 0

(* One operation on both sides, compared. *)
let step_both ?window mn mo op =
  let mn', rn = step_new mn op in
  let mo', ro = step_old mo op in
  if differ rn ro then QCheck.Test.fail_reportf "outcome mismatch on %s" (pp_op op)
  else if differ (observe_new ?window mn') (observe_old ?window mo') then
    QCheck.Test.fail_reportf "state mismatch after %s" (pp_op op)
  else (mn', mo')

let run_diff ?window ops =
  ignore (List.fold_left (fun (mn, mo) op -> step_both ?window mn mo op) (Mem.empty, Mem_oracle.empty) ops);
  true

let diff_random =
  QCheck.Test.make ~name:"random op sequences agree with per-byte oracle"
    ~count:300 arb_ops run_diff

let diff_carve =
  QCheck.Test.make
    ~name:"carve-then-grant round-trips agree with per-byte oracle (LM.mix)"
    ~count:300 arb_carve_ops run_diff

let diff_deep =
  QCheck.Test.make
    ~name:"thousands of retired frames: a deep block table agrees with the oracle"
    ~count:20 arb_deep_ops run_diff

let diff_wide =
  QCheck.Test.make
    ~name:"negative lo, hundreds of chunks: deep chunk tables agree with the oracle"
    ~count:60 arb_wide_ops (run_diff ~window:wide_window)

(* ------------------------------------------------------------------ *)
(* Copy-on-observe ownership                                           *)
(* ------------------------------------------------------------------ *)

(* A run of operations on an owned memory, with observation points where
   the run hands out its frozen memory and goes on either on a fresh
   [thaw] of it (what the Asm semantics does) or on the very memory it
   handed out, whose in-place writes the freeze must have ended. *)
type run_op = Op of op | Observe of { rethaw : bool }

let gen_run_op =
  let open QCheck.Gen in
  frequency
    [
      (12, map (fun op -> Op op) gen_op);
      (2, map (fun rethaw -> Observe { rethaw }) bool);
    ]

let pp_run_op = function
  | Op op -> pp_op op
  | Observe { rethaw } -> if rethaw then "observe, thaw" else "observe"

let arb_run =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_run_op ops))
    QCheck.Gen.(list_size (int_range 1 60) gen_run_op)

(* Run [ops] from [mn] and [mo], adding the memories handed out to
   [snaps]. *)
let rec run_ops mn mo snaps = function
  | [] -> (mn, mo, snaps)
  | Observe { rethaw } :: rest ->
    let sn = Mem.freeze mn in
    run_ops (if rethaw then Mem.thaw sn else sn) mo ((sn, mo) :: snaps) rest
  | Op op :: rest ->
    let mn, mo = step_both mn mo op in
    run_ops mn mo snaps rest

let unchanged snaps =
  List.for_all (fun (sn, so) -> not (differ (observe_new sn) (observe_old so))) snaps
  || QCheck.Test.fail_report "a handed-out memory changed after the run went on"

let run_owned ops =
  let _, _, snaps = run_ops (Mem.thaw Mem.empty) Mem_oracle.empty [] ops in
  unchanged snaps

let diff_owned =
  QCheck.Test.make
    ~name:"owned runs agree with the oracle and never write a frozen memory"
    ~count:300 arb_run run_owned

(* Two runs thawed from one frozen memory take turns: each must agree
   with its own copy of the oracle, and neither may write the frozen
   memory or the other's. The prefix, run owned, may first retire
   hundreds of frames, so that the runs share a block table more than
   one level deep. *)
type fork = { prefix : run_op list; left : run_op list; right : run_op list }

let arb_fork =
  let open QCheck.Gen in
  let ops = list_size (int_range 1 20) gen_run_op in
  let gen =
    let* frames = frequency [ (1, return []); (1, map (fun n -> [ OFrames (n, 16) ]) (int_range 16 600)) ] in
    let* prefix = ops and* left = ops and* right = ops in
    let setup = List.map (fun op -> Op op) ([ OAlloc (0, 48); OAlloc (-16, 40); OAlloc (0, 32) ] @ frames) in
    return { prefix = setup @ prefix; left; right }
  in
  let print f =
    String.concat " | "
      (List.map (fun ops -> String.concat "; " (List.map pp_run_op ops)) [ f.prefix; f.left; f.right ])
  in
  QCheck.make ~print gen

let run_fork { prefix; left; right } =
  let mn, mo, snaps = run_ops (Mem.thaw Mem.empty) Mem_oracle.empty [] prefix in
  let frozen = Mem.freeze mn in
  let rec turns (a, oa, ls) (b, ob, rs) snaps =
    match ls with
    | [] -> if rs = [] then snaps else turns (b, ob, rs) (a, oa, []) snaps
    | l :: ls ->
      let a, oa, snaps = run_ops a oa snaps [ l ] in
      turns (b, ob, rs) (a, oa, ls) snaps
  in
  unchanged
    (turns (Mem.thaw frozen, mo, left) (Mem.thaw frozen, mo, right) ((frozen, mo) :: snaps))

let diff_fork =
  QCheck.Test.make
    ~name:"two runs thawed from one memory never write each other's blocks"
    ~count:100 arb_fork run_fork

(* ------------------------------------------------------------------ *)
(* Regressions and representation checks                               *)
(* ------------------------------------------------------------------ *)

(* Minor words allocated by [f ()]. *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* A thawed memory that allocated and freed [n] 48-byte frames, then
   allocated one more, and that frame. *)
let after_retiring n =
  let rec go m n =
    let m, b = Mem.alloc m 0 48 in
    if n = 0 then (m, b) else go (Option.get (Mem.free m b 0 48)) (n - 1)
  in
  go (Mem.thaw Mem.empty) n

let free_words n =
  let m, b = after_retiring n in
  minor_words (fun () -> Mem.free m b 0 48)

(* Every value stored as a word run into a frame at offset 8, then
   partly or wholly overwritten (or not), then read back in every shape:
   loads of each chunk inside the run, its bytes, and a byte-wise copy to
   offset 24 loaded whole. *)
let word_run_cases =
  let values =
    [ Vptr (1, 4); Vint 7l; Vlong 9L; Vfloat 1.5; Vfloat Float.nan; Vsingle 2.5;
      Vundef ]
  in
  let overwrites =
    [ []; [ OStore (Mint8unsigned, 1, 11, Vint 1l) ];
      [ OStore (Mint16unsigned, 1, 8, Vint 1l) ];
      [ OStore (Mint32, 1, 12, Vint 1l) ]; [ OStorebytes (1, 14, [ 1; 2; 3 ]) ];
      [ OStore (Mint64, 1, 8, Vlong 5L) ] ]
  in
  let reads =
    List.concat_map
      (fun chunk -> List.map (fun ofs -> OLoad (chunk, 1, ofs)) [ 8; 12; 14 ])
      [ Mint8unsigned; Mint16signed; Mint32; Mint64; Mfloat32; Mfloat64; Many32;
        Many64 ]
    @ [ OLoadbytes (1, 8, 8); OCopy (1, 8, 1, 24, 8); OLoad (Mint64, 1, 24);
        OLoad (Many64, 1, 24) ]
  in
  List.concat_map
    (fun chunk ->
      List.concat_map
        (fun v ->
          List.map
            (fun w -> (OAlloc (0, 32) :: OStore (chunk, 1, 8, v) :: w) @ reads)
            overwrites)
        values)
    [ Many64; Mint64 ]

let unit_tests =
  [
    Alcotest.test_case "grant_perm clamps to block bounds" `Quick (fun () ->
        let m, b = Mem.alloc Mem.empty 0 16 in
        let m = Option.get (Mem.drop_range m b 0 16) in
        let m = Option.get (Mem.grant_perm m b (-8) 8 Mem.Freeable) in
        check "granted inside" true (Mem.valid_pointer m b 0);
        check "granted inside" true (Mem.valid_pointer m b 7);
        check "not granted outside (below lo)" false
          (Mem.valid_pointer m b (-1));
        check "not granted past requested hi" false (Mem.valid_pointer m b 8));
    Alcotest.test_case "grant_perm entirely outside bounds is rejected" `Quick
      (fun () ->
        let m, b = Mem.alloc Mem.empty 0 16 in
        check "above" true (Mem.grant_perm m b 16 32 Mem.Freeable = None);
        check "below" true (Mem.grant_perm m b (-8) 0 Mem.Freeable = None);
        check "missing block" true
          (Mem.grant_perm m (b + 7) 0 8 Mem.Freeable = None);
        check "empty range is a no-op" true
          (Mem.grant_perm m b 8 8 Mem.Freeable = Some m));
    Alcotest.test_case "alloc+free of a large block stays interval-backed"
      `Quick (fun () ->
        let m, b = Mem.alloc Mem.empty 0 65536 in
        check "no per-byte entries after alloc" true (Mem.perm_entries m b = 0);
        let m = Option.get (Mem.store Mint64 m b 1024 (Vlong 7L)) in
        check "no per-byte entries after store" true (Mem.perm_entries m b = 0);
        let m = Option.get (Mem.free m b 0 65536) in
        check "no per-byte entries after full free" true
          (Mem.perm_entries m b = 0));
    Alcotest.test_case "carving a sub-range materializes only that block"
      `Quick (fun () ->
        let m, b1 = Mem.alloc Mem.empty 0 64 in
        let m, b2 = Mem.alloc m 0 64 in
        let m = Option.get (Mem.drop_range m b1 8 16) in
        check "carved block has entries" true (Mem.perm_entries m b1 > 0);
        check "other block untouched" true (Mem.perm_entries m b2 = 0));
    Alcotest.test_case "owned stores update in place until the memory is frozen"
      `Quick (fun () ->
        let m0, b = Mem.alloc Mem.empty 0 64 in
        let m0 = Option.get (Mem.store Mint32 m0 b 0 (Vint 1l)) in
        let m1 = Option.get (Mem.store Mint32 (Mem.thaw m0) b 0 (Vint 2l)) in
        let m2 = Option.get (Mem.store Mint32 m1 b 4 (Vint 3l)) in
        check "a store into an owned chunk returns the same memory" true
          (m2 == m1);
        check "the thawed memory keeps its contents" true
          (Mem.load Mint32 m0 b 0 = Some (Vint 1l));
        let frozen = Mem.freeze m2 in
        let m3 = Option.get (Mem.store Mint32 frozen b 0 (Vint 9l)) in
        check "a store into a frozen memory is persistent" true (m3 != frozen);
        check "the frozen memory keeps its contents" true
          (Mem.load Mint32 frozen b 0 = Some (Vint 2l));
        check "one chunk copied, one store in place" true
          (Mem.write_stats frozen = (1, 1)));
    Alcotest.test_case "freeing a frame costs no more after 4096 retired frames"
      `Quick (fun () ->
        let one = free_words 1 and many = free_words 4096 in
        if many > one then
          Alcotest.failf "free after 4096 retired frames: %.0f words, after one: %.0f"
            many one);
    Alcotest.test_case "a pointer or Many64 store into an owned chunk is one cell"
      `Quick (fun () ->
        let m, b = Mem.alloc (Mem.thaw Mem.empty) 0 64 in
        let m = Option.get (Mem.store Mint64 m b 0 (Vlong 0L)) in
        let p = Vptr (b, 16) in
        List.iter
          (fun (chunk, ofs) ->
            let w = minor_words (fun () -> Mem.store chunk m b ofs p) in
            if w >= 16. then
              Alcotest.failf "%a store of a pointer: %.0f words" pp_chunk chunk w)
          [ (Many64, 8); (Mint64, 0) ]);
    Alcotest.test_case "a 64-bit load of a word run allocates only its answer"
      `Quick (fun () ->
        let m, b = Mem.alloc (Mem.thaw Mem.empty) 0 64 in
        let p = Vptr (b, 16) in
        let m = Option.get (Mem.store Mint64 m b 0 p) in
        let m = Option.get (Mem.store Many64 m b 8 p) in
        (* a byte-wise copy: eight fragments sharing one value *)
        let m = Option.get (Option.bind (Mem.loadbytes m b 0 8) (Mem.storebytes m b 24)) in
        List.iter
          (fun (chunk, ofs) ->
            let w = minor_words (fun () -> Mem.load chunk m b ofs) in
            if w > 2. then
              Alcotest.failf "%a load of a word run at %d: %.0f words" pp_chunk chunk ofs w)
          [ (Mint64, 0); (Many64, 0); (Mint64, 8); (Many64, 8); (Mint64, 24); (Many64, 24) ]);
    Alcotest.test_case "word runs read back like the oracle's fragments" `Quick
      (fun () -> check "agree" true (List.for_all run_diff word_run_cases));
    Alcotest.test_case "a word run equals its eight fragments" `Quick (fun () ->
        let m0, b = Mem.alloc Mem.empty 0 16 in
        List.iter
          (fun v ->
            let run = Option.get (Mem.store Many64 m0 b 8 v) in
            let frags = Option.get (Mem.storebytes m0 b 8 (inj_value Q64 v)) in
            check "equal" true (Mem.equal run frags);
            check "same loadbytes" true
              (Mem.loadbytes run b 8 8 = Mem.loadbytes frags b 8 8);
            check "same load" true
              (Mem.load Many64 run b 8 = Mem.load Many64 frags b 8))
          [ Vptr (b, 4); Vint 7l; Vlong 9L ]);
    Alcotest.test_case "a freed frame keeps its spill" `Quick (fun () ->
        let m0, sp = Mem.alloc Mem.empty 0 32 in
        let spill x =
          let m = Option.get (Mem.store Many64 m0 sp 8 (Vint x)) in
          Option.get (Mem.free m sp 0 32)
        in
        let m1 = spill 1l and m2 = spill 2l in
        check "still a valid block" true (Mem.valid_block m1 sp);
        check "unequal" false (Mem.equal m1 m2);
        check "contents_at reads the spill" true
          (Mem.contents_at m1 sp 8 = Fragment (Vint 1l, Q64, 7)
          && Mem.contents_at m1 sp 15 = Fragment (Vint 1l, Q64, 0)));
  ]

let suite =
  ( "mem-diff",
    unit_tests
    @ List.map QCheck_alcotest.to_alcotest
        [ diff_random; diff_carve; diff_owned; diff_deep; diff_wide; diff_fork ] )
