(** Property tests for the target description: location maps and the
    calling-convention layout ([Target.Locations],
    [Target.Conventions]) — the raw material of [CL]/[LM]/[MA]. *)

open Memory.Mtypes
open Memory.Values
open Target.Machregs
open Target.Locations
open Target.Conventions

let check = Alcotest.(check bool)

(* Random signatures: up to 12 arguments of the four base types. *)
let gen_typ = QCheck.oneofl [ Tint; Tlong; Tfloat; Tsingle ]

let gen_sig =
  QCheck.map
    (fun (args, res) -> { sig_args = args; sig_res = res })
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 0 12) gen_typ)
       (QCheck.option gen_typ))

let unit_tests =
  [
    Alcotest.test_case "first int args in DI SI DX CX R8 R9" `Quick (fun () ->
        let sg = { sig_args = List.init 6 (fun _ -> Tint); sig_res = None } in
        check "regs" true
          (loc_arguments sg = [ R DI; R SI; R DX; R CX; R R8; R R9 ]));
    Alcotest.test_case "seventh int arg on the stack" `Quick (fun () ->
        let sg = { sig_args = List.init 7 (fun _ -> Tint); sig_res = None } in
        check "stack" true
          (List.nth (loc_arguments sg) 6 = S (Outgoing, 0, Tint)));
    Alcotest.test_case "float args in X0..X3" `Quick (fun () ->
        let sg = { sig_args = [ Tfloat; Tint; Tfloat ]; sig_res = None } in
        check "mix" true (loc_arguments sg = [ R X0; R DI; R X1 ]));
    Alcotest.test_case "results in AX / X0" `Quick (fun () ->
        check "int" true (loc_result { sig_args = []; sig_res = Some Tint } = AX);
        check "float" true
          (loc_result { sig_args = []; sig_res = Some Tfloat } = X0);
        check "void" true (loc_result { sig_args = []; sig_res = None } = AX));
    Alcotest.test_case "callee-save partition" `Quick (fun () ->
        List.iter
          (fun r ->
            check (mreg_name r) true
              (is_callee_save r = not (List.mem r destroyed_at_call)))
          all_mregs);
    Alcotest.test_case "locset slot overlap at same offset" `Quick (fun () ->
        let ls = Locset.set (S (Local, 0, Tint)) (Vint 1l) Locset.init in
        let ls = Locset.set (S (Local, 0, Tlong)) (Vlong 2L) ls in
        check "old binding invalidated" true
          (Locset.get (S (Local, 0, Tint)) ls = Vundef);
        check "new binding present" true
          (Locset.get (S (Local, 0, Tlong)) ls = Vlong 2L));
    Alcotest.test_case "locset slot write normalizes by type" `Quick (fun () ->
        let ls = Locset.set (S (Local, 1, Tint)) (Vlong 5L) Locset.init in
        check "ill-typed slot write gives undef" true
          (Locset.get (S (Local, 1, Tint)) ls = Vundef));
    Alcotest.test_case "register writes are not normalized" `Quick (fun () ->
        let ls = Locset.set (R AX) (Vsingle 1.5) Locset.init in
        check "kept" true (Locset.get (R AX) ls = Vsingle 1.5));
    Alcotest.test_case "loc_equal is structural equality on every pair"
      `Quick (fun () ->
        let locs =
          List.map (fun m -> R m) all_mregs
          @ List.concat_map
              (fun k ->
                List.concat_map
                  (fun o ->
                    List.map
                      (fun t -> S (k, o, t))
                      [ Tint; Tlong; Tfloat; Tsingle; Tany64 ])
                  [ -1; 0; 1; 2; 7; 64 ])
              [ Local; Incoming; Outgoing ]
        in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                if loc_equal a b <> (a = b) then
                  Alcotest.failf "loc_equal %a %a" pp_loc a pp_loc b)
              locs)
          locs);
  ]

let prop_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"argument locations are pairwise disjoint"
        ~count:300 gen_sig (fun sg ->
          let locs = loc_arguments sg in
          let rec pairwise = function
            | [] -> true
            | l :: rest ->
              List.for_all (fun l' -> not (locs_overlap l l')) rest
              && pairwise rest
          in
          pairwise locs);
      QCheck.Test.make ~name:"one location per argument" ~count:300 gen_sig
        (fun sg -> List.length (loc_arguments sg) = List.length sg.sig_args);
      QCheck.Test.make ~name:"argument location types match" ~count:300 gen_sig
        (fun sg ->
          List.for_all2
            (fun l t ->
              match l with
              | R r -> is_float_typ t = is_float_mreg r
              | S (Outgoing, _, t') -> t = t'
              | _ -> false)
            (loc_arguments sg) sg.sig_args);
      QCheck.Test.make ~name:"size_arguments covers all stack slots"
        ~count:300 gen_sig (fun sg ->
          List.for_all
            (function
              | S (Outgoing, ofs, _) -> ofs < size_arguments sg
              | _ -> true)
            (loc_arguments sg));
      QCheck.Test.make ~name:"build/extract arguments roundtrip" ~count:300
        gen_sig (fun sg ->
          (* Well-typed values for each slot. *)
          let args =
            List.map
              (function
                | Tint -> Vint 7l
                | Tlong -> Vlong 8L
                | Tfloat -> Vfloat 1.5
                | Tsingle -> Vsingle 2.5
                | Tany64 -> Vlong 0L)
              sg.sig_args
          in
          match build_arguments sg args Locset.init with
          | Some ls -> extract_arguments sg ls = args
          | None -> false);
      QCheck.Test.make ~name:"undef_caller_save spares callee-saves"
        ~count:100 QCheck.unit (fun () ->
          let ls =
            List.fold_left
              (fun ls r -> Locset.set (R r) (Vint 9l) ls)
              Locset.init all_mregs
          in
          let ls' = Locset.undef_caller_save ls in
          List.for_all
            (fun r ->
              if is_callee_save r then Locset.get (R r) ls' = Vint 9l
              else Locset.get (R r) ls' = Vundef)
            all_mregs);
    ]

let suite = ("target", unit_tests @ prop_tests)
