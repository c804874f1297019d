(** Tests for the fault-injection subsystem: mutator site enumeration
    and application, reachability filtering, detection of the must-kill
    classes by the differential and co-execution detectors, campaign
    determinism, the JSON report, the metrics counters, and the
    counterexample minimizer shared with the fuzzer. *)

module M = Faultinject.Mutate
module Campaign = Faultinject.Campaign

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Compile one corpus program for the site-level tests. *)
let compiled name =
  let src = List.assoc name Campaign.corpus in
  match Driver.Compiler.compile_source_diag src with
  | Ok arts -> arts
  | Error f ->
    Alcotest.failf "corpus %s does not compile: %s" name
      (Support.Diagnostics.to_string f.Driver.Compiler.fail_diag)

let mutate_tests =
  [
    Alcotest.test_case "every RTL class has sites in the corpus" `Quick
      (fun () ->
        let all_arts = List.map (fun (n, _) -> compiled n) Campaign.corpus in
        List.iter
          (fun cls ->
            match M.injection_point cls with
            | `Linear -> ()
            | `Rtl ->
              let total =
                List.fold_left
                  (fun acc arts ->
                    acc
                    + List.length (M.rtl_sites cls arts.Driver.Compiler.rtl))
                  0 all_arts
              in
              check
                (Printf.sprintf "sites for %s" (M.class_name cls))
                true (total > 0))
          M.all_classes);
    Alcotest.test_case "conv-slot sites exist, incl. stack slots" `Quick
      (fun () ->
        let arts = compiled "many-args" in
        let sites =
          M.linear_sites M.Corrupt_conv_slot arts.Driver.Compiler.linear_clean
        in
        check "some sites" true (sites <> []);
        check "a stack-slot site" true
          (List.exists
             (fun s ->
               s.M.site_note = "shift stack slot by one word")
             sites));
    Alcotest.test_case "sites only in functions reachable from main" `Quick
      (fun () ->
        (* in nested-calls, [dec] is fully inlined into [tri]; mutating
           its leftover body would be vacuous *)
        let arts = compiled "nested-calls" in
        let rtl_funs =
          List.concat_map
            (fun c ->
              List.map
                (fun s -> s.M.site_fun)
                (M.rtl_sites c arts.Driver.Compiler.rtl))
            M.all_classes
        in
        let lin_funs =
          List.map
            (fun s -> s.M.site_fun)
            (M.linear_sites M.Corrupt_conv_slot
               arts.Driver.Compiler.linear_clean)
        in
        check "no RTL site in dec" true (not (List.mem "dec" rtl_funs));
        check "no Linear site in dec" true (not (List.mem "dec" lin_funs)));
    Alcotest.test_case "apply_rtl changes the program at the site" `Quick
      (fun () ->
        let arts = compiled "arith-branch" in
        let rtl = arts.Driver.Compiler.rtl in
        List.iter
          (fun cls ->
            match M.rtl_sites cls rtl with
            | [] -> ()
            | site :: _ -> (
              match M.apply_rtl cls site rtl with
              | None ->
                Alcotest.failf "%s: site did not apply" (M.class_name cls)
              | Some rtl' -> check (M.class_name cls) true (rtl' <> rtl)))
          [ M.Swap_operands; M.Perturb_const; M.Retarget_branch ]);
    Alcotest.test_case "apply on a stale site is None, not an exception"
      `Quick (fun () ->
        let arts = compiled "arith-branch" in
        let rtl = arts.Driver.Compiler.rtl in
        let ghost =
          { M.site_fun = "main"; site_loc = 999_999; site_note = "gone" }
        in
        check "rtl" true (M.apply_rtl M.Swap_operands ghost rtl = None);
        let lin = arts.Driver.Compiler.linear_clean in
        let ghost' = { ghost with M.site_loc = 999_999 } in
        check "linear" true
          (M.apply_linear M.Corrupt_conv_slot ghost' lin = None));
  ]

let campaign_tests =
  [
    Alcotest.test_case "seeded campaign kills every must-kill mutant" `Slow
      (fun () ->
        match Campaign.run ~seed:3 ~mutants:24 () with
        | Error d -> Alcotest.failf "campaign: %s" (Support.Diagnostics.to_string d)
        | Ok rp ->
          checki "tried all" 24 (List.length rp.Campaign.rp_results);
          check "must-kill classes all killed" true (Campaign.must_kill_ok rp);
          check "chaos modes diagnosed" true (Campaign.chaos_ok rp));
    Alcotest.test_case "campaign is deterministic in the seed" `Slow (fun () ->
        let survivors rp =
          List.map
            (fun r ->
              (r.Campaign.mr_program, M.class_name r.Campaign.mr_class,
               r.Campaign.mr_site.M.site_loc))
            (Campaign.survivors rp)
        in
        match (Campaign.run ~seed:11 ~mutants:18 (), Campaign.run ~seed:11 ~mutants:18 ()) with
        | Ok a, Ok b -> check "same survivors" true (survivors a = survivors b)
        | _ -> Alcotest.fail "campaign errored");
    Alcotest.test_case "JSON report parses and carries the matrix" `Slow
      (fun () ->
        match Campaign.run ~seed:5 ~mutants:12 () with
        | Error _ -> Alcotest.fail "campaign errored"
        | Ok rp -> (
          let j = Campaign.to_json rp in
          let s = Obs.Json.to_string j in
          match Obs.Json.parse_opt s with
          | None -> Alcotest.fail "report JSON does not re-parse"
          | Some j' ->
            check "must_kill_ok present" true
              (Obs.Json.member "must_kill_ok" j' <> None);
            check "matrix has every class" true
              (match Obs.Json.member "matrix" j' with
              | Some m ->
                List.for_all
                  (fun c -> Obs.Json.member (M.class_name c) m <> None)
                  M.all_classes
              | None -> false)));
    Alcotest.test_case "campaign feeds the metrics counters" `Slow (fun () ->
        Obs.reset_all ();
        Obs.with_enabled (fun () ->
            match Campaign.run ~seed:2 ~mutants:12 () with
            | Error _ -> Alcotest.fail "campaign errored"
            | Ok rp ->
              let killed =
                List.length
                  (List.filter
                     (fun r -> not r.Campaign.mr_survived)
                     rp.Campaign.rp_results)
              in
              checki "chaos.mutants" 12 (Obs.Metrics.get_counter "chaos.mutants");
              checki "chaos.killed" killed (Obs.Metrics.get_counter "chaos.killed");
              checki "chaos.survived" (12 - killed)
                (Obs.Metrics.get_counter "chaos.survived")));
  ]

(* The minimizer the fuzzer and the campaign share (satellite of the
   harness: counterexamples should come back small). *)
let minimize_tests =
  [
    Alcotest.test_case "minimize strips irrelevant lines" `Quick (fun () ->
        let src =
          "int g = 1;\n\
           int arr[8] = {1,2,3,4,5,6,7,8};\n\
           int f0(void) { int v0 = 42; g = g + 3; return v0; }\n\
           int main(void) { g = 17 * g; return g; }"
        in
        (* pretend the bug is "program multiplies" — minimization must
           keep a '*' while shedding everything else it can *)
        let still_failing s = String.contains s '*' in
        let small = Fuzz.Gen.minimize ~still_failing src in
        check "still failing" true (String.contains small '*');
        check "strictly smaller" true (String.length small < String.length src);
        check "dropped the f0 line" true
          (not
             (List.exists
                (fun l -> String.length l > 6 && String.sub l 0 6 = "int f0")
                (String.split_on_char '\n' small))));
    Alcotest.test_case "candidates are strictly smaller" `Quick (fun () ->
        let src = List.assoc "nested-calls" Campaign.corpus in
        List.iter
          (fun c ->
            check "smaller" true (String.length c < String.length src))
          (Fuzz.Gen.shrink_candidates src));
    Alcotest.test_case "minimized counterexamples still compile the bug"
      `Quick (fun () ->
        (* a differential-style predicate: failure = 'compiles and main
           returns 0' (arbitrary but checkable); candidates that do not
           parse must be discarded by the predicate, not crash *)
        let still_failing s =
          match Driver.Compiler.compile_source_diag s with
          | Ok _ -> true
          | Error _ -> false
          | exception _ -> false
        in
        let src = List.assoc "arith-branch" Campaign.corpus in
        let small = Fuzz.Gen.minimize ~still_failing src in
        check "still satisfies the predicate" true (still_failing small));
    Alcotest.test_case "fuzz shrinking keeps parsing counterexamples" `Quick
      (fun () ->
        let still_fails = Driver.Differential.still_fails in
        check "a syntax error is no counterexample" false
          (still_fails "int main( {");
        check "a program without main is none" false
          (still_fails "int f(void) { return 1; }");
        check "a passing program is none" false
          (still_fails "int main(void) { return 1; }");
        (* A pipeline whose allocator never validates makes the corpus
           program a counterexample; most of its reductions do not
           parse, and none of those may be taken. *)
        let clobbered = Testlib.Testutil.clobbered in
        let options =
          Testlib.Testutil.with_allocators ~fast:clobbered ~fallback:clobbered
            Driver.Compiler.all_optims
        in
        let src = List.assoc "arith-branch" Campaign.corpus in
        check "the broken pipeline fails it" true (still_fails ~options src);
        let small = Fuzz.Gen.minimize ~still_failing:(still_fails ~options) src in
        check "strictly smaller" true (String.length small < String.length src);
        check "still parses" true
          (Result.is_ok (Driver.Compiler.parse_diag small));
        check "still fails" true (still_fails ~options small));
  ]

let suite = ("faultinject", mutate_tests @ campaign_tests @ minimize_tests)
