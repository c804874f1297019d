(** Tests for the declared pipeline ([Driver.Pipeline]): every entry
    point walks the same stage list, so the full compile, the resumed
    backends and the [-O0] configuration emit the same pass spans; the
    differential runs the levels the list keeps; and the Allocation
    stage keeps its LTL only once the validator accepts it. *)

open Support
module Pipeline = Driver.Pipeline
module Compiler = Driver.Compiler
module Diag = Support.Diagnostics

let check = Alcotest.(check bool)
let checkl = Alcotest.(check (list string))

(* Three values live at once: a coloring that ignores interference is
   wrong here, so the validator rejects the clobbered allocator. *)
let src =
  "int mix(int x, int y) { int a = x + 1; int b = y + 2; int c = x * y; \
   return a * b + c; }\n\
   int main(void) { return mix(3, 4); }"

let program () = Cfrontend.Cparser.parse_program src

(* Run [f] with fresh, enabled observability; return its result and the
   pass spans it recorded, in order (nested under a [compile] span or
   not). *)
let traced f =
  Obs.reset_all ();
  let r = Obs.with_enabled f in
  let rec flatten (sp : Obs.Trace.span) =
    if String.starts_with ~prefix:"pass:" sp.Obs.Trace.name then [ sp ]
    else List.concat_map flatten sp.Obs.Trace.children
  in
  (r, List.concat_map flatten (Obs.Trace.roots ()))

let name (sp : Obs.Trace.span) =
  String.sub sp.Obs.Trace.name 5 (String.length sp.Obs.Trace.name - 5)

(* The attributes that describe the program, not the Gc. *)
let shape_attrs (sp : Obs.Trace.span) =
  List.filter
    (fun (k, _) -> List.mem k [ "functions_before"; "size_before"; "functions_after"; "size_after" ])
    sp.Obs.Trace.attrs
  |> List.sort compare

let attr_keys (sp : Obs.Trace.span) =
  List.sort compare (List.map fst sp.Obs.Trace.attrs)

(* The pass spans a pipeline's passes should produce: its Table 3, with
   the validator right behind Allocation. *)
let expected_spans options =
  List.concat_map
    (fun (p : Convalg.Derive.pass_info) ->
      if p.pass_name = "Allocation" then [ p.pass_name; "AllocCheck" ]
      else [ p.pass_name ])
    (Pipeline.passes options)

let rec drop_until n = function
  | x :: _ as l when name x = n -> l
  | _ :: l -> drop_until n l
  | [] -> []

let levels =
  [ "clight1"; "clight2"; "csharpminor"; "cminor"; "cminorsel"; "rtl_gen";
    "rtl_opt"; "ltl"; "ltl_tunneled"; "linear"; "linear_clean"; "mach"; "asm" ]

let same_suffix ~what full resumed =
  checkl (what ^ ": pass spans") (List.map name full) (List.map name resumed);
  List.iter2
    (fun a b ->
      checkl (name a ^ ": attribute keys") (attr_keys a) (attr_keys b);
      check (name a ^ ": same program shapes") true (shape_attrs a = shape_attrs b))
    full resumed

let suite =
  ( "stages",
    [
      Alcotest.test_case "compile emits Table 3's passes in order" `Quick
        (fun () ->
          let _, spans = traced (fun () -> Errors.get (Compiler.compile (program ()))) in
          checkl "pass spans" (expected_spans Compiler.all_optims)
            (List.map name spans));
      Alcotest.test_case "backend_from_rtl emits the backend passes of compile"
        `Quick (fun () ->
          let arts, spans =
            traced (fun () -> Errors.get (Compiler.compile (program ())))
          in
          let _, resumed =
            traced (fun () -> Errors.get (Compiler.backend_from_rtl arts.Compiler.rtl))
          in
          checkl "Allocation through Asmgen"
            [ "Allocation"; "AllocCheck"; "Tunneling"; "Linearize";
              "CleanupLabels"; "Debugvar"; "Stacking"; "Asmgen" ]
            (List.map name resumed);
          same_suffix ~what:"backend_from_rtl" (drop_until "Allocation" spans) resumed);
      Alcotest.test_case "finish_from_linear emits Debugvar through Asmgen"
        `Quick (fun () ->
          let arts, spans =
            traced (fun () -> Errors.get (Compiler.compile (program ())))
          in
          let _, resumed =
            traced (fun () ->
                Errors.get (Compiler.finish_from_linear arts.Compiler.linear_clean))
          in
          same_suffix ~what:"finish_from_linear" (drop_until "Debugvar" spans) resumed;
          checkl "Debugvar, Stacking, Asmgen" [ "Debugvar"; "Stacking"; "Asmgen" ]
            (List.map name resumed));
      Alcotest.test_case "-O0 runs no optional pass" `Quick (fun () ->
          let _, spans =
            traced (fun () ->
                Errors.get (Compiler.compile ~options:Compiler.no_optims (program ())))
          in
          checkl "pass spans" (expected_spans Compiler.no_optims) (List.map name spans);
          List.iter
            (fun (p : Convalg.Derive.pass_info) ->
              if p.optional then begin
                check (p.pass_name ^ " has no span") false
                  (List.exists (fun sp -> name sp = p.pass_name) spans);
                check (p.pass_name ^ " has no samples") true
                  (Obs.Metrics.histogram_stats ("pass." ^ p.pass_name) = None)
              end)
            (Pipeline.passes Compiler.all_optims));
      Alcotest.test_case "the differential runs the 13 kept levels in order"
        `Quick (fun () ->
          let p = program () in
          let q = Option.get (Driver.Differential.main_query_of p) in
          List.iter
            (fun options ->
              match Driver.Differential.run_all_levels ~options p q with
              | Error e -> Alcotest.fail e
              | Ok results ->
                checkl "levels" levels
                  (List.map (fun r -> r.Driver.Differential.level) results);
                check "every level refines the source" true
                  (Driver.Differential.check_all_refine results = Ok ()))
            [ Compiler.all_optims; Compiler.no_optims ]);
      Alcotest.test_case "a run can start from any kept level" `Quick (fun () ->
          let arts = Errors.get (Compiler.compile (program ())) in
          match Pipeline.run ~from:"linear" Compiler.all_optims Linear arts.Compiler.linear with
          | Error f -> Alcotest.fail (Diag.to_string f.Pipeline.fail_diag)
          | Ok kept ->
            checkl "levels from linear" [ "linear"; "linear_clean"; "mach"; "asm" ]
              (List.map (fun l -> l.Pipeline.level) kept);
            check "same Asm" true
              (Driver.Sizes.asm (Pipeline.find Asm "asm" kept)
              = Driver.Sizes.asm arts.Compiler.asm));
      Alcotest.test_case "a program of the wrong language is diagnosed" `Quick
        (fun () ->
          let arts = Errors.get (Compiler.compile (program ())) in
          match Pipeline.run Compiler.all_optims RTL arts.Compiler.rtl with
          | Ok _ -> Alcotest.fail "SimplLocals accepted an RTL program"
          | Error f ->
            check "internal error" true
              (f.Pipeline.fail_diag.Diag.kind = Diag.Internal_error);
            check "names the pass" true
              (f.Pipeline.fail_diag.Diag.pass = Some "SimplLocals"));
      Alcotest.test_case "a rejected allocation keeps no LTL" `Quick (fun () ->
          (* Every attempt, the fallback included, runs the clobbered
             allocator: the stage fails at the validator, and the
             partial result stops at the last accepted level. *)
          let options =
            Testlib.Testutil.with_allocators ~fast:Testlib.Testutil.clobbered
              ~fallback:Testlib.Testutil.clobbered Compiler.all_optims
          in
          let r, spans = traced (fun () -> Compiler.compile_diag ~options (program ())) in
          checkl "both attempts validated"
            [ "Allocation"; "AllocCheck"; "Allocation"; "AllocCheck" ]
            (List.map name (drop_until "Allocation" spans));
          match r with
          | Ok _ -> Alcotest.fail "validator accepted a clobbered allocation"
          | Error f ->
            let d = f.Compiler.fail_diag in
            check "validation failure" true (d.Diag.kind = Diag.Validation_failure);
            check "at AllocCheck" true (d.Diag.pass = Some "AllocCheck");
            checkl "levels up to rtl_opt"
              [ "clight1"; "clight2"; "csharpminor"; "cminor"; "cminorsel";
                "rtl_gen"; "rtl_opt" ]
              (List.map (fun l -> l.Pipeline.level) f.Compiler.fail_partial);
            Alcotest.(check string) "progress" "Deadcode"
              (Compiler.partial_progress f.Compiler.fail_partial));
    ] )
