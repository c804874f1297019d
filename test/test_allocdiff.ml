(** Differential tests for the allocation fast path and the
    direct-threaded interpreter (ISSUE 9).

    The linear-scan allocator is untrusted by design: every run is
    validated by [Alloc_check], with the graph allocator as the
    driver's fallback when validation rejects. These tests pin the
    three legs of that argument:
    - both allocators produce validator-accepted code on the same
      random corpus (so the fast path is not surviving on fallback);
    - a deliberately clobbered linear-scan assignment IS rejected by
      the validator, and the driver recovers through the graph
      fallback rather than miscompiling;
    - the pre-decoded direct-threaded Asm interpreter agrees with the
      naive instruction-at-a-time decoder, on random programs and on
      the examples/c corpus. *)

open Support

let check = Alcotest.(check bool)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Compile [src] and run its [main] under both Asm interpreters,
   rendering each outcome. *)
let run_both_interps ?options src =
  let p = Cfrontend.Cparser.parse_program src in
  let symbols = Iface.Ast.prog_defs_names p in
  let arts = Errors.get (Driver.Compiler.compile ?options p) in
  let q = Option.get (Driver.Runners.main_query ~symbols ~defs:p ()) in
  let render o = Format.asprintf "%a" Driver.Runners.pp_c_outcome o in
  let run sem =
    Result.map render
      (Driver.Runners.run_a_level
         (sem ~symbols arts.Driver.Compiler.asm)
         ~fuel:2_000_000 q)
  in
  (run Backend.Asm.semantics, run Backend.Asm.semantics_naive)

(* --- Allocator differential: both strategies satisfy the validator --- *)

(* The program shrinker drops whole lines, so shrink candidates can
   fail to parse; treat those as vacuously passing rather than letting
   the exception count as a new failure and derail minimization. *)
let parses src =
  match Cfrontend.Cparser.parse_program src with
  | _ -> true
  | exception Cfrontend.Cparser.Parse_error _ -> false

let allocators : (string * Passes.Allocation.allocator) list =
  [
    ("linear_scan", Passes.Allocation.allocate_linear_with ~clobber:false);
    ("graph", Passes.Allocation.allocate_graph_with);
  ]

let allocators_validate =
  QCheck.Test.make ~name:"both allocators satisfy the validator" ~count:20
    Testlib.Test_gen.arb_program (fun src ->
      QCheck.assume (parses src);
      let p = Cfrontend.Cparser.parse_program src in
      let rtl = (Errors.get (Driver.Compiler.compile p)).Driver.Compiler.rtl in
      List.for_all
        (fun (name, allocator) ->
          match
            Passes.Allocation.transf_program_with_assignments ~allocator rtl
          with
          | Error e ->
            QCheck.Test.fail_reportf "%s allocation failed: %s@.--- program \
                                      ---@.%s" name e src
          | Ok (ltl, assigns) -> (
            match
              Passes.Alloc_check.validate_program ~assignments:assigns rtl ltl
            with
            | Ok () -> true
            | Error e ->
              QCheck.Test.fail_reportf
                "validator rejected %s: %s@.--- program ---@.%s" name e src))
        allocators)

(* --- Interpreter differential: threaded vs naive dispatch ------------ *)

let interpreters_agree =
  QCheck.Test.make ~name:"threaded and naive interpreters agree" ~count:15
    Testlib.Test_gen.arb_program (fun src ->
      QCheck.assume (parses src);
      let threaded, naive = run_both_interps src in
      if threaded = naive then true
      else
        QCheck.Test.fail_reportf "interpreters disagree@.--- program ---@.%s"
          src)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ allocators_validate; interpreters_agree ]

let unit_tests =
  [
    Alcotest.test_case
      "clobbered linear scan is rejected; the driver falls back" `Quick
      (fun () ->
        let src =
          "int mix(int x, int y) { int a = x + 1; int b = y + 2; int c = x * \
           y; return a * b + c; }\n\
           int main(void) { return mix(3, 4); }"
        in
        let p = Cfrontend.Cparser.parse_program src in
        let rtl = (Errors.get (Driver.Compiler.compile p)).Driver.Compiler.rtl in
        let clean_outcome, _ = run_both_interps src in
        (* The clobbered allocator funnels every virtual register into
           the head of the pool; with three values live at once that
           assignment is wrong, and the validator — not any downstream
           crash — must be what catches it. *)
        (match
           Passes.Allocation.transf_program_with_assignments
             ~allocator:Testlib.Testutil.clobbered rtl
         with
        | Error _ -> ()
        | Ok (ltl, assigns) -> (
          match
            Passes.Alloc_check.validate_program ~assignments:assigns rtl ltl
          with
          | Ok () -> Alcotest.fail "validator accepted a clobbered assignment"
          | Error _ -> ()));
        (* End to end, the same clobber is survivable: a pipeline whose
           Allocation stage runs it retries with the graph allocator and
           counts the fallback. *)
        let options =
          Testlib.Testutil.with_allocators ~fast:Testlib.Testutil.clobbered
            ~fallback:Passes.Allocation.allocate_graph_with
            Driver.Compiler.all_optims
        in
        Obs.reset_all ();
        let fallback_outcome, _ =
          Obs.with_enabled (fun () -> run_both_interps ~options src)
        in
        check "fallback counted" true
          (Obs.Metrics.get_counter "alloc.linear_scan_fallback" = 1);
        check "fallback compiles to the same behavior" true
          (fallback_outcome = clean_outcome));
    Alcotest.test_case "threaded and naive interpreters agree on examples/c"
      `Quick (fun () ->
        let dir = "../examples/c" in
        let files =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".c")
          |> List.sort compare
        in
        check "corpus present" true (files <> []);
        List.iter
          (fun file ->
            let src = read_file (Filename.concat dir file) in
            let threaded, naive = run_both_interps src in
            check (file ^ ": interpreters agree") true (threaded = naive);
            check (file ^ ": run completed") true (Result.is_ok threaded))
          files);
  ]

let suite = ("allocdiff", qcheck_tests @ unit_tests)
