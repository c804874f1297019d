(** Unit and property tests for the value library ([Memory.Values]). *)

open Memory.Mtypes
open Memory.Values

let check = Alcotest.(check bool)
let vi n = Vint (Int32.of_int n)
let vl n = Vlong (Int64.of_int n)

(* QCheck generators. *)
let gen_int32 = QCheck.map Int32.of_int QCheck.int
let gen_int64 = QCheck.map Int64.of_int QCheck.int

let gen_value =
  QCheck.oneof
    [
      QCheck.always Vundef;
      QCheck.map (fun n -> Vint n) gen_int32;
      QCheck.map (fun n -> Vlong n) gen_int64;
      QCheck.map (fun f -> Vfloat f) QCheck.float;
      QCheck.map (fun (b, o) -> Vptr ((b land 7) + 1, o land 255))
        (QCheck.pair QCheck.small_int QCheck.small_int);
    ]

let unit_tests =
  [
    Alcotest.test_case "add int" `Quick (fun () ->
        check "2+3" true (add (vi 2) (vi 3) = vi 5));
    Alcotest.test_case "add wraps" `Quick (fun () ->
        check "maxint+1" true
          (add (Vint Int32.max_int) (vi 1) = Vint Int32.min_int));
    Alcotest.test_case "add undef" `Quick (fun () ->
        check "undef" true (add Vundef (vi 1) = Vundef));
    Alcotest.test_case "addl pointer" `Quick (fun () ->
        check "ptr+4" true (addl (Vptr (3, 8)) (vl 4) = Vptr (3, 12)));
    Alcotest.test_case "subl pointers same block" `Quick (fun () ->
        check "diff" true (subl (Vptr (3, 12)) (Vptr (3, 4)) = vl 8));
    Alcotest.test_case "subl pointers diff block" `Quick (fun () ->
        check "undef" true (subl (Vptr (3, 12)) (Vptr (4, 4)) = Vundef));
    Alcotest.test_case "divs by zero" `Quick (fun () ->
        check "none" true (divs (vi 4) (vi 0) = None));
    Alcotest.test_case "divs overflow" `Quick (fun () ->
        check "none" true (divs (Vint Int32.min_int) (vi (-1)) = None));
    Alcotest.test_case "divu large" `Quick (fun () ->
        check "unsigned" true
          (divu (Vint (-2l)) (vi 2) = Some (Vint 2147483647l)));
    Alcotest.test_case "shl bounds" `Quick (fun () ->
        check "shl 32 undef" true (shl (vi 1) (vi 32) = Vundef));
    Alcotest.test_case "shl ok" `Quick (fun () ->
        check "1<<4" true (shl (vi 1) (vi 4) = vi 16));
    Alcotest.test_case "sign_ext" `Quick (fun () ->
        check "8-bit" true (sign_ext 8 (vi 0xFF) = vi (-1)));
    Alcotest.test_case "zero_ext" `Quick (fun () ->
        check "8-bit" true (zero_ext 8 (vi 0x1FF) = vi 0xFF));
    Alcotest.test_case "longofint sign" `Quick (fun () ->
        check "neg" true (longofint (vi (-1)) = Vlong (-1L)));
    Alcotest.test_case "longofintu" `Quick (fun () ->
        check "unsigned" true (longofintu (vi (-1)) = Vlong 0xFFFFFFFFL));
    Alcotest.test_case "intoffloat range" `Quick (fun () ->
        check "overflow none" true (intoffloat (Vfloat 1e30) = None));
    Alcotest.test_case "intoffloat ok" `Quick (fun () ->
        check "42" true (intoffloat (Vfloat 42.5) = Some (vi 42)));
    Alcotest.test_case "cmp signed" `Quick (fun () ->
        check "-1 < 1" true (cmp_bool Clt (vi (-1)) (vi 1) = Some true));
    Alcotest.test_case "cmpu unsigned" `Quick (fun () ->
        check "-1 >u 1" true (cmpu_bool Clt (vi (-1)) (vi 1) = Some false));
    Alcotest.test_case "cmplu null vs valid ptr" `Quick (fun () ->
        check "ne" true
          (cmplu_bool ~valid:(fun () _ _ -> true) () Cne (Vptr (1, 0)) (Vlong 0L)
          = Some true));
    Alcotest.test_case "lessdef compares floats by their bits" `Quick (fun () ->
        check "a NaN refines itself" true (lessdef (Vfloat Float.nan) (Vfloat Float.nan));
        check "a single NaN refines itself" true
          (lessdef (Vsingle Float.nan) (Vsingle Float.nan));
        check "0.0 does not refine to -0.0" false (lessdef (Vfloat 0.0) (Vfloat (-0.0)));
        check "-0.0 does not refine to 0.0" false (lessdef (Vfloat (-0.0)) (Vfloat 0.0));
        check "undef refines to a NaN" true (lessdef Vundef (Vfloat Float.nan));
        check "equal agrees" true
          (equal (Vfloat Float.nan) (Vfloat Float.nan)
          && not (equal (Vfloat 0.0) (Vfloat (-0.0)))));
    Alcotest.test_case "has_type ptr is long" `Quick (fun () ->
        check "t" true (has_type (Vptr (1, 0)) Tlong));
    Alcotest.test_case "has_type any64" `Quick (fun () ->
        check "t" true (has_type (Vfloat 1.0) Tany64));
    Alcotest.test_case "load_result_typ mismatch" `Quick (fun () ->
        check "undef" true (load_result_typ Tint (vl 3) = Vundef));
  ]

let prop_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"lessdef reflexive" ~count:200 gen_value (fun v ->
          lessdef v v);
      QCheck.Test.make ~name:"lessdef undef-least" ~count:200 gen_value
        (fun v -> lessdef Vundef v);
      QCheck.Test.make ~name:"lessdef antisym-ish" ~count:200
        (QCheck.pair gen_value gen_value) (fun (a, b) ->
          (not (lessdef a b && lessdef b a)) || a = b);
      QCheck.Test.make ~name:"add commutative" ~count:200
        (QCheck.pair gen_value gen_value) (fun (a, b) -> add a b = add b a);
      QCheck.Test.make ~name:"addl associative on longs" ~count:200
        (QCheck.triple gen_int64 gen_int64 gen_int64) (fun (a, b, c) ->
          addl (addl (Vlong a) (Vlong b)) (Vlong c)
          = addl (Vlong a) (addl (Vlong b) (Vlong c)));
      QCheck.Test.make ~name:"neg involutive" ~count:200 gen_int32 (fun n ->
          neg (neg (Vint n)) = Vint n);
      QCheck.Test.make ~name:"notint involutive" ~count:200 gen_int32 (fun n ->
          notint (notint (Vint n)) = Vint n);
      QCheck.Test.make ~name:"sign_ext idempotent" ~count:200 gen_int32
        (fun n -> sign_ext 8 (sign_ext 8 (Vint n)) = sign_ext 8 (Vint n));
      QCheck.Test.make ~name:"zero_ext bounds" ~count:200 gen_int32 (fun n ->
          match zero_ext 8 (Vint n) with
          | Vint m -> Int32.compare m 0l >= 0 && Int32.compare m 256l < 0
          | _ -> false);
      QCheck.Test.make ~name:"longofint then intoflong" ~count:200 gen_int32
        (fun n -> intoflong (longofint (Vint n)) = Vint n);
      QCheck.Test.make ~name:"cmp trichotomy" ~count:200
        (QCheck.pair gen_int32 gen_int32) (fun (a, b) ->
          let t c = cmp_bool c (Vint a) (Vint b) = Some true in
          List.length (List.filter t [ Clt; Ceq; Cgt ]) = 1);
      QCheck.Test.make ~name:"negate_comparison" ~count:200
        (QCheck.pair gen_int32 gen_int32) (fun (a, b) ->
          List.for_all
            (fun c ->
              cmp_bool (negate_comparison c) (Vint a) (Vint b)
              = Option.map not (cmp_bool c (Vint a) (Vint b)))
            [ Ceq; Cne; Clt; Cle; Cgt; Cge ]);
      QCheck.Test.make ~name:"swap_comparison" ~count:200
        (QCheck.pair gen_int32 gen_int32) (fun (a, b) ->
          List.for_all
            (fun c ->
              cmp_bool (swap_comparison c) (Vint b) (Vint a)
              = cmp_bool c (Vint a) (Vint b))
            [ Ceq; Cne; Clt; Cle; Cgt; Cge ]);
    ]

let suite = ("values", unit_tests @ prop_tests)
