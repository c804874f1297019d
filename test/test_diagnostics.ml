(** Tests for the structured diagnostics layer ([Support.Diagnostics])
    and the result-typed driver ([Driver.Compiler.compile_diag]): the
    taxonomy, exception capture, parse errors as diagnostics, per-pass
    budgets with graceful degradation (partial artifacts alongside the
    diagnostic), and the string-level [compile] facade. *)

open Support
module Diag = Support.Diagnostics

let check = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* substring search without the Str library *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let taxonomy_tests =
  [
    Alcotest.test_case "make carries phase, kind, pass, context" `Quick
      (fun () ->
        let d =
          Diag.make ~phase:Diag.Backend ~kind:Diag.Pass_failure ~pass:"CSE"
            ~context:[ ("node", "17") ]
            "bad %s" "thing"
        in
        checks "message" "bad thing" d.Diag.message;
        check "phase" true (d.Diag.phase = Diag.Backend);
        check "kind" true (d.Diag.kind = Diag.Pass_failure);
        check "pass" true (d.Diag.pass = Some "CSE");
        check "context" true (d.Diag.context = [ ("node", "17") ]));
    Alcotest.test_case "to_string names phase, kind and pass" `Quick
      (fun () ->
        let d =
          Diag.make ~phase:Diag.Middle ~kind:Diag.Validation_failure
            ~pass:"AllocCheck" "mismatch"
        in
        let s = Diag.to_string d in
        List.iter
          (fun needle ->
            check (Printf.sprintf "%S mentions %S" s needle) true
              (contains s needle))
          [ "middle"; "validation-failure"; "AllocCheck"; "mismatch" ]);
    Alcotest.test_case "of_exn is an internal error with the exn text" `Quick
      (fun () ->
        let d =
          Diag.of_exn ~pass:"Linearize" ~phase:Diag.Backend
            (Invalid_argument "index out of bounds")
        in
        check "kind" true (d.Diag.kind = Diag.Internal_error);
        check "pass" true (d.Diag.pass = Some "Linearize");
        check "mentions exn" true
          (contains (Diag.to_string d) "index out of bounds"));
    Alcotest.test_case "to_errors / of_errors round-trip" `Quick (fun () ->
        let d =
          Diag.error ~phase:Diag.Frontend ~kind:Diag.Pass_failure ~pass:"Cshmgen"
            "no translation"
        in
        match Diag.to_errors d with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error msg -> (
          match
            Diag.of_errors ~pass:"Cshmgen" ~phase:Diag.Frontend
              ~kind:Diag.Pass_failure (Error msg : unit Errors.t)
          with
          | Error d' ->
            check "kind preserved" true (d'.Diag.kind = Diag.Pass_failure)
          | Ok _ -> Alcotest.fail "expected an error back"));
    Alcotest.test_case "let* threads errors" `Quick (fun () ->
        let open Diag in
        let r : int Diag.r =
          let* x = Ok 1 in
          let* _ =
            (Diag.error ~phase:Diag.Running ~kind:Diag.Oracle_refusal "nope"
              : unit Diag.r)
          in
          Ok (x + 1)
        in
        match r with
        | Error d -> check "kind" true (d.Diag.kind = Diag.Oracle_refusal)
        | Ok _ -> Alcotest.fail "expected short-circuit");
  ]

let good_src = "int main(void) { return 40 + 2; }"

let driver_tests =
  [
    Alcotest.test_case "compile_source_diag succeeds on good input" `Quick
      (fun () ->
        match Driver.Compiler.compile_source_diag good_src with
        | Ok _ -> ()
        | Error f ->
          Alcotest.failf "unexpected: %s" (Diag.to_string f.Driver.Compiler.fail_diag));
    Alcotest.test_case "syntax error is a structured diagnostic" `Quick
      (fun () ->
        match Driver.Compiler.compile_source_diag "int main(void) { return 0 }" with
        | Ok _ -> Alcotest.fail "expected a parse failure"
        | Error f ->
          let d = f.Driver.Compiler.fail_diag in
          check "phase" true (d.Diag.phase = Diag.Parsing);
          check "kind" true (d.Diag.kind = Diag.Syntax_error));
    Alcotest.test_case "lexical error is a structured diagnostic" `Quick
      (fun () ->
        (* A stray character, and malformed literals that must not reach
           [Int64.of_string], [float_of_string] or read past the end. *)
        List.iter
          (fun (src, line) ->
            match Driver.Compiler.compile_source_diag src with
            | Ok _ -> Alcotest.failf "%S: expected a lex failure" src
            | Error f ->
              let d = f.Driver.Compiler.fail_diag in
              check (src ^ ": kind") true (d.Diag.kind = Diag.Lexical_error);
              check (src ^ ": line") true
                (List.assoc_opt "line" d.Diag.context = Some (string_of_int line)))
          [
            ("int main(void) { return `; }", 1);
            ("int x = 0x;", 1);
            ("int y;\nint x = 99999999999999999999;", 2);
            ("double d = 1e;", 1);
            ("int c = '\\", 1);
          ]);
    Alcotest.test_case "zero budget degrades gracefully with partials" `Quick
      (fun () ->
        (* A budget no pass can meet: the first pass completes (its
           artifact is saved), then the budget check fires. *)
        match Driver.Compiler.compile_source_diag ~budget_us:0.0 good_src with
        | Ok _ -> Alcotest.fail "expected budget exhaustion"
        | Error f ->
          let d = f.Driver.Compiler.fail_diag in
          check "kind" true (d.Diag.kind = Diag.Budget_exceeded);
          check "has elapsed context" true
            (List.mem_assoc "elapsed_us" d.Diag.context);
          (* graceful degradation: the artifacts completed before the
             budget fired are retained *)
          check "partial progress recorded" true
            (Driver.Compiler.partial_progress f.Driver.Compiler.fail_partial
            <> "source"));
    Alcotest.test_case "generous budget compiles fully" `Quick (fun () ->
        match
          Driver.Compiler.compile_source_diag ~budget_us:10_000_000.0 good_src
        with
        | Ok _ -> ()
        | Error f ->
          Alcotest.failf "unexpected: %s" (Diag.to_string f.Driver.Compiler.fail_diag));
    Alcotest.test_case "string facade agrees with the diag driver" `Quick
      (fun () ->
        let p = Cfrontend.Cparser.parse_program good_src in
        match (Driver.Compiler.compile p, Driver.Compiler.compile_diag p) with
        | Ok _, Ok _ -> ()
        | Error e, Error f ->
          checks "same text" e (Diag.to_string f.Driver.Compiler.fail_diag)
        | _ -> Alcotest.fail "facade disagrees with compile_diag");
    Alcotest.test_case "string-level entry points do not raise on bad input"
      `Quick (fun () ->
        List.iter
          (fun (what, r) ->
            match r with
            | Ok _ -> Alcotest.failf "%s: expected a parse failure" what
            | Error msg ->
              check (what ^ " names the parse error") true
                (contains msg "syntax-error"))
          [
            ("compile_c_to_asm", Result.map ignore (Driver.Compiler.compile_c_to_asm "int main( {"));
            ("compile_source", Result.map ignore (Driver.Compiler.compile_source "int main( {"));
            ("differential", Result.map ignore (Driver.Differential.differential "int main( {"));
          ]);
    Alcotest.test_case "backend_from_rtl rejects garbage gracefully" `Quick
      (fun () ->
        (* an RTL function whose entry node is missing: downstream passes
           must fail with an error, not raise *)
        let f =
          {
            Middle.Rtl.fn_sig =
              { Memory.Mtypes.sig_args = []; sig_res = Some Memory.Mtypes.Tint };
            fn_params = [];
            fn_stacksize = 0;
            fn_code = Middle.Rtl.Code.empty;
            fn_entrypoint = 1;
          }
        in
        let p =
          {
            Iface.Ast.prog_defs =
              [ (Ident.intern "main", Iface.Ast.Gfun (Iface.Ast.Internal f)) ];
            prog_main = Ident.intern "main";
          }
        in
        match Driver.Compiler.backend_from_rtl p with
        | Ok _ -> () (* degenerate but acceptable: empty code survives *)
        | Error _ -> () (* rejected with a message is equally fine *));
  ]

let suite = ("diagnostics", taxonomy_tests @ driver_tests)
