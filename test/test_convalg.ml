(** Tests for the simulation convention algebra and the Theorem 3.8
    derivation engine (paper §5, Figs. 10–11). *)

open Convalg
open Convalg.Cterm

let check = Alcotest.(check bool)

let typing_tests =
  [
    Alcotest.test_case "uniform C types C ⇔ A" `Quick (fun () ->
        check "typed" true (well_typed ~src:IC ~tgt:IA uniform_c));
    Alcotest.test_case "structural conventions transport interfaces" `Quick
      (fun () ->
        check "CL" true (well_typed ~src:IC ~tgt:IL [ CL ]);
        check "LM" true (well_typed ~src:IL ~tgt:IM [ LM ]);
        check "MA" true (well_typed ~src:IM ~tgt:IA [ MA ]);
        check "CL at L rejected" false (well_typed ~src:IL ~tgt:IL [ CL ]));
    Alcotest.test_case "CKLRs are endo at any interface" `Quick (fun () ->
        List.iter
          (fun i ->
            check "endo" true (well_typed ~src:i ~tgt:i [ Injp; Inj; Ext ]))
          [ IC; IL; IM; IA ]);
    Alcotest.test_case "identity term" `Quick (fun () ->
        check "id" true (well_typed ~src:IC ~tgt:IC []));
  ]

(* Every rewrite rule must preserve typing: for any start interface at
   which the lhs is typeable, the rhs must type identically. *)
let rule_typing =
  Alcotest.test_case "all rules preserve typing" `Quick (fun () ->
      List.iter
        (fun (r : Rules.rule) ->
          List.iter
            (fun i ->
              match infer i r.Rules.lhs with
              | Some o ->
                if infer i r.Rules.rhs <> Some o then
                  Alcotest.failf "rule %s changes typing" r.Rules.rule_name
              | None -> ())
            [ IC; IL; IM; IA ])
        Rules.all_rules)

(* Table 3 is the compiler's pipeline, read at [-O2] and [-O0]. *)
let table3 = Driver.Pipeline.passes Driver.Compiler.all_optims
let table3_o0 = Driver.Pipeline.passes Driver.Compiler.no_optims

let table3_tests =
  [
    Alcotest.test_case "Table 3 has 18 passes" `Quick (fun () ->
        Alcotest.(check int) "passes" 18 (List.length table3));
    Alcotest.test_case "Table 3 conventions are well-typed" `Quick (fun () ->
        (* The chain of incoming conventions must type from C to A. *)
        check "incoming" true
          (well_typed ~src:IC ~tgt:IA (Derive.composite table3 `In));
        check "outgoing" true
          (well_typed ~src:IC ~tgt:IA (Derive.composite table3 `Out)));
    Alcotest.test_case "optional passes marked" `Quick (fun () ->
        let opt =
          List.filter (fun p -> p.Derive.optional) table3
          |> List.map (fun p -> p.Derive.pass_name)
        in
        check "the five † passes of Table 3" true
          (List.sort compare opt
          = List.sort compare [ "Tailcall"; "Inlining"; "Constprop"; "CSE"; "Deadcode" ]));
  ]

let derivation_tests =
  [
    Alcotest.test_case "Thm 3.8: outgoing side reaches C" `Quick (fun () ->
        let out, _ = Derive.thm_3_8 table3 in
        check "ok" true out.Derive.ok);
    Alcotest.test_case "Thm 3.8: incoming side reaches C" `Quick (fun () ->
        let _, inc = Derive.thm_3_8 table3 in
        check "ok" true inc.Derive.ok);
    Alcotest.test_case "derivations use only direction-valid rules" `Quick
      (fun () ->
        (* Re-run normalization and confirm every applied rule name exists
           in the database with a compatible direction. *)
        let check_side dir =
          let d = Derive.derive_side table3 dir in
          List.iter
            (fun (s : Derive.step) ->
              if
                (not (String.length s.Derive.step_desc > 3
                      && String.sub s.Derive.step_desc 0 3 = "pre"))
                && not (String.length s.Derive.step_desc > 4
                        && String.sub s.Derive.step_desc 0 4 = "post")
              then
                match
                  List.find_opt
                    (fun r -> r.Rules.rule_name = s.Derive.step_desc)
                    Rules.all_rules
                with
                | Some r ->
                  if not (Rules.usable dir r) then
                    Alcotest.failf "rule %s used in wrong direction"
                      r.Rules.rule_name
                | None ->
                  Alcotest.failf "unknown rule %s" s.Derive.step_desc)
            d.Derive.trace.Derive.steps
        in
        check_side `Incoming;
        check_side `Outgoing);
    Alcotest.test_case "every derivation step is well-typed" `Quick (fun () ->
        let check_side dir =
          let d = Derive.derive_side table3 dir in
          List.iter
            (fun (s : Derive.step) ->
              check "typed" true (well_typed ~src:IC ~tgt:IA s.Derive.step_term))
            d.Derive.trace.Derive.steps
        in
        check_side `Incoming;
        check_side `Outgoing);
    Alcotest.test_case "derivation is insensitive to optional passes (§3.4)"
      `Quick (fun () ->
        (* The [-O0] pipeline, without the optional (†) passes, must
           still normalize to C on both sides: "C is not sensitive to
           the inclusion of optional optimization passes". *)
        check "-O0 drops exactly the † passes" true
          (List.length table3_o0 = 13
          && List.for_all (fun p -> not p.Derive.optional) table3_o0);
        let out, inc = Derive.thm_3_8 table3_o0 in
        check "outgoing reaches C" true out.Derive.ok;
        check "incoming reaches C" true inc.Derive.ok);
  ]

let suite =
  ("convalg", typing_tests @ [ rule_typing ] @ table3_tests @ derivation_tests)
