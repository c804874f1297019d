(** Unit and property tests for the memory model ([Memory.Mem],
    [Memory.Memdata]) — the laws behind Fig. 4 of the paper. *)

open Memory
open Memory.Values
open Memory.Memdata

let check = Alcotest.(check bool)

(* A small arena: one memory with a few allocated blocks. *)
let arena () =
  let m = Mem.empty in
  let m, b1 = Mem.alloc m 0 32 in
  let m, b2 = Mem.alloc m 0 16 in
  let m, b3 = Mem.alloc m (-8) 8 in
  (m, b1, b2, b3)

let gen_chunk =
  QCheck.oneofl
    [ Mint8signed; Mint8unsigned; Mint16signed; Mint16unsigned; Mint32;
      Mint64; Mfloat32; Mfloat64 ]

let gen_int32 = QCheck.map Int32.of_int QCheck.int
let gen_int64 = QCheck.map Int64.of_int QCheck.int

let value_for_chunk chunk =
  match chunk with
  | Mint8signed | Mint8unsigned | Mint16signed | Mint16unsigned | Mint32 ->
    QCheck.map (fun n -> Vint n) gen_int32
  | Mint64 -> QCheck.map (fun n -> Vlong n) gen_int64
  | Mfloat32 -> QCheck.map (fun f -> Vsingle (to_single f)) QCheck.float
  | Mfloat64 -> QCheck.map (fun f -> Vfloat f) QCheck.float
  | Many32 | Many64 -> QCheck.always Vundef

(* The normalization a chunk applies on store-then-load. *)
let normalize chunk v =
  match chunk with
  | Mint8signed -> sign_ext 8 v
  | Mint8unsigned -> zero_ext 8 v
  | Mint16signed -> sign_ext 16 v
  | Mint16unsigned -> zero_ext 16 v
  | Mfloat32 -> ( match v with Vsingle f -> Vsingle (to_single f) | _ -> v)
  | _ -> v

let unit_tests =
  [
    Alcotest.test_case "alloc gives fresh blocks" `Quick (fun () ->
        let _, b1, b2, b3 = arena () in
        check "distinct" true (b1 <> b2 && b2 <> b3 && b1 <> b3));
    Alcotest.test_case "load uninitialized is undef" `Quick (fun () ->
        let m, b1, _, _ = arena () in
        check "undef" true (Mem.load Mint32 m b1 0 = Some Vundef));
    Alcotest.test_case "load out of bounds fails" `Quick (fun () ->
        let m, b1, _, _ = arena () in
        check "none" true (Mem.load Mint32 m b1 32 = None));
    Alcotest.test_case "load negative bound block" `Quick (fun () ->
        let m, _, _, b3 = arena () in
        check "some" true (Mem.load Mint64 m b3 (-8) <> None));
    Alcotest.test_case "store misaligned fails" `Quick (fun () ->
        let m, b1, _, _ = arena () in
        check "none" true (Mem.store Mint32 m b1 2 (Vint 1l) = None));
    Alcotest.test_case "free then load fails" `Quick (fun () ->
        let m, b1, _, _ = arena () in
        let m = Option.get (Mem.free m b1 0 32) in
        check "none" true (Mem.load Mint32 m b1 0 = None));
    Alcotest.test_case "double free fails" `Quick (fun () ->
        let m, b1, _, _ = arena () in
        let m = Option.get (Mem.free m b1 0 32) in
        check "none" true (Mem.free m b1 0 32 = None));
    Alcotest.test_case "freeing empty range is a no-op" `Quick (fun () ->
        let m, b1, _, _ = arena () in
        check "some" true (Mem.free m b1 8 8 = Some m));
    Alcotest.test_case "store pointer, load pointer" `Quick (fun () ->
        let m, b1, b2, _ = arena () in
        let m = Option.get (Mem.store Mint64 m b1 0 (Vptr (b2, 4))) in
        check "roundtrip" true (Mem.load Mint64 m b1 0 = Some (Vptr (b2, 4))));
    Alcotest.test_case "pointer bytes are opaque to int loads" `Quick
      (fun () ->
        let m, b1, b2, _ = arena () in
        let m = Option.get (Mem.store Mint64 m b1 0 (Vptr (b2, 4))) in
        check "int32 load of ptr is undef" true
          (Mem.load Mint32 m b1 0 = Some Vundef));
    Alcotest.test_case "overlapping store invalidates" `Quick (fun () ->
        let m, b1, _, _ = arena () in
        let m = Option.get (Mem.store Mint32 m b1 0 (Vint 0x11223344l)) in
        let m = Option.get (Mem.store Mint8unsigned m b1 1 (Vint 0xFFl)) in
        check "changed" true
          (Mem.load Mint32 m b1 0 = Some (Vint 0x1122FF44l)));
    Alcotest.test_case "little-endian byte order" `Quick (fun () ->
        let m, b1, _, _ = arena () in
        let m = Option.get (Mem.store Mint32 m b1 0 (Vint 0x11223344l)) in
        check "lsb first" true
          (Mem.load Mint8unsigned m b1 0 = Some (Vint 0x44l)));
    Alcotest.test_case "drop_perm read-only blocks stores" `Quick (fun () ->
        let m, b1, _, _ = arena () in
        let m = Option.get (Mem.drop_perm m b1 0 32 Mem.Readable) in
        check "store fails" true (Mem.store Mint32 m b1 0 (Vint 1l) = None);
        check "load ok" true (Mem.load Mint32 m b1 0 <> None));
    Alcotest.test_case "valid_pointer" `Quick (fun () ->
        let m, b1, _, _ = arena () in
        check "in" true (Mem.valid_pointer m b1 0);
        check "out" false (Mem.valid_pointer m b1 32);
        check "weak one-past" true (Mem.weak_valid_pointer m b1 32));
    Alcotest.test_case "unchanged_on reflexive" `Quick (fun () ->
        let m, _, _, _ = arena () in
        check "refl" true (Mem.unchanged_on (fun _ _ -> true) m m));
    Alcotest.test_case "unchanged_on detects store" `Quick (fun () ->
        let m, b1, _, _ = arena () in
        let m' = Option.get (Mem.store Mint32 m b1 0 (Vint 5l)) in
        check "detected" false (Mem.unchanged_on (fun _ _ -> true) m m');
        check "outside footprint" true
          (Mem.unchanged_on (fun b _ -> b <> b1) m m'));
    Alcotest.test_case "a NaN stored whole reads back, and its memory equals itself"
      `Quick (fun () ->
        let m, b1, _, _ = arena () in
        let m = Option.get (Mem.store Many64 m b1 8 (Vfloat Float.nan)) in
        check "read back" true
          (match Mem.load Many64 m b1 8 with Some v -> equal v (Vfloat Float.nan) | None -> false);
        check "equal" true (Mem.equal m m);
        check "unchanged" true (Mem.unchanged_on (fun _ _ -> true) m m));
  ]

let prop_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"load-after-store (good variable)" ~count:300
        (QCheck.pair gen_chunk (QCheck.int_bound 2)) (fun (chunk, slot) ->
          let m, b1, _, _ = arena () in
          let ofs = slot * 8 in
          QCheck.assume (ofs mod align_chunk chunk = 0);
          let vgen = value_for_chunk chunk in
          let v = QCheck.Gen.generate1 (QCheck.gen vgen) in
          match Mem.store chunk m b1 ofs v with
          | None -> false
          | Some m' -> Mem.load chunk m' b1 ofs = Some (normalize chunk v));
      QCheck.Test.make ~name:"store commutes on disjoint offsets" ~count:300
        (QCheck.pair gen_int32 gen_int32) (fun (v1, v2) ->
          let m, b1, _, _ = arena () in
          let s1 m = Mem.store Mint32 m b1 0 (Vint v1) in
          let s2 m = Mem.store Mint32 m b1 8 (Vint v2) in
          match (Option.bind (s1 m) s2, Option.bind (s2 m) s1) with
          | Some ma, Some mb -> Mem.equal ma mb
          | _ -> false);
      QCheck.Test.make ~name:"alloc preserves loads" ~count:200 gen_int32
        (fun v ->
          let m, b1, _, _ = arena () in
          let m = Option.get (Mem.store Mint32 m b1 0 (Vint v)) in
          let m', _ = Mem.alloc m 0 64 in
          Mem.load Mint32 m' b1 0 = Some (Vint v));
      QCheck.Test.make ~name:"loadbytes/storebytes roundtrip" ~count:200
        (QCheck.list_of_size (QCheck.Gen.return 8) (QCheck.int_bound 255))
        (fun bytes ->
          let m, b1, _, _ = arena () in
          let mvl = List.map (fun b -> Byte b) bytes in
          match Mem.storebytes m b1 4 mvl with
          | None -> false
          | Some m' -> Mem.loadbytes m' b1 4 8 = Some mvl);
      QCheck.Test.make ~name:"encode/decode int32" ~count:300 gen_int32
        (fun n -> decode_val Mint32 (encode_val Mint32 (Vint n)) = Vint n);
      QCheck.Test.make ~name:"encode/decode int64" ~count:300 gen_int64
        (fun n -> decode_val Mint64 (encode_val Mint64 (Vlong n)) = Vlong n);
      QCheck.Test.make ~name:"encode/decode float64 bits" ~count:300
        QCheck.float (fun f ->
          match decode_val Mfloat64 (encode_val Mfloat64 (Vfloat f)) with
          | Vfloat f' -> Int64.bits_of_float f = Int64.bits_of_float f'
          | _ -> false);
      QCheck.Test.make ~name:"encode size matches chunk" ~count:200 gen_chunk
        (fun chunk ->
          List.length (encode_val chunk Vundef) = size_chunk chunk);
      QCheck.Test.make ~name:"any64 roundtrips every value" ~count:200
        (QCheck.oneof
           [ QCheck.map (fun n -> Vint n) gen_int32;
             QCheck.map (fun n -> Vlong n) gen_int64;
             QCheck.always (Vptr (3, 16)) ])
        (fun v -> decode_val Many64 (encode_val Many64 v) = v);
    ]

let suite = ("mem", unit_tests @ prop_tests)
