(** Tests for the observability layer: span nesting and ordering,
    Chrome-trace JSON well-formedness (parsed back with the in-tree
    parser), metrics arithmetic, and observed runs ([Obs_lts.run]):
    the outcome of the bare run and the exact interaction log. *)

open Core

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Every test starts from a clean slate and leaves observability off
   (the recorded spans/metrics stay readable for the assertions that
   follow the thunk). *)
let with_fresh_obs f =
  Obs.reset_all ();
  Obs.with_enabled f

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let span_tests =
  [
    Alcotest.test_case "spans nest and keep order" `Quick (fun () ->
        with_fresh_obs (fun () ->
            Obs.Trace.with_span "root" (fun () ->
                Obs.Trace.with_span "a" (fun () -> ());
                Obs.Trace.with_span "b" (fun () ->
                    Obs.Trace.with_span "b1" (fun () -> ())));
            Obs.Trace.with_span "root2" (fun () -> ()));
        let roots = Obs.Trace.roots () in
        checki "two top-level spans" 2 (List.length roots);
        let root = List.nth roots 0 in
        checks "first root" "root" root.Obs.Trace.name;
        checks "second root" "root2" (List.nth roots 1).Obs.Trace.name;
        let kids = List.map (fun s -> s.Obs.Trace.name) root.Obs.Trace.children in
        Alcotest.(check (list string)) "children in order" [ "a"; "b" ] kids;
        let b = List.nth root.Obs.Trace.children 1 in
        checks "grandchild" "b1" (List.hd b.Obs.Trace.children).Obs.Trace.name);
    Alcotest.test_case "sequence numbers are monotone" `Quick (fun () ->
        with_fresh_obs (fun () ->
            Obs.Trace.with_span "x" (fun () ->
                Obs.Trace.with_span "y" (fun () -> ())));
        match Obs.Trace.roots () with
        | [ x ] ->
          let y = List.hd x.Obs.Trace.children in
          check "parent opened first" true (x.Obs.Trace.seq < y.Obs.Trace.seq)
        | _ -> Alcotest.fail "expected one root");
    Alcotest.test_case "span closed on exception" `Quick (fun () ->
        with_fresh_obs (fun () ->
            (try Obs.Trace.with_span "boom" (fun () -> failwith "x")
             with Failure _ -> ());
            checki "span recorded despite the exception" 1
              (List.length (Obs.Trace.roots ()))));
    Alcotest.test_case "attributes land on the open span" `Quick (fun () ->
        with_fresh_obs (fun () ->
            Obs.Trace.with_span "s" (fun () ->
                Obs.Trace.add_attr "k" (Obs.Json.Str "v")));
        match Obs.Trace.roots () with
        | [ s ] ->
          check "attr present" true
            (List.mem_assoc "k" s.Obs.Trace.attrs)
        | _ -> Alcotest.fail "expected one root");
    Alcotest.test_case "disabled tracing records nothing" `Quick (fun () ->
        Obs.reset_all ();
        Obs.Trace.with_span "invisible" (fun () -> ());
        checki "no spans" 0 (List.length (Obs.Trace.roots ())));
  ]

(* ------------------------------------------------------------------ *)
(* Chrome trace JSON, parsed back                                      *)
(* ------------------------------------------------------------------ *)

let chrome_tests =
  [
    Alcotest.test_case "export parses back and is well-formed" `Quick (fun () ->
        with_fresh_obs (fun () ->
            Obs.Trace.with_span "outer" (fun () ->
                Obs.Trace.add_attr "size" (Obs.Json.num_of_int 7);
                Obs.Trace.with_span "inner" (fun () -> ())));
        let j = Obs.Json.parse (Obs.Json.to_string (Obs.Trace.to_chrome_json ())) in
        let events =
          Option.get (Obs.Json.to_list (Option.get (Obs.Json.member "traceEvents" j)))
        in
        checki "one event per span" 2 (List.length events);
        List.iter
          (fun ev ->
            check "ph is X" true
              (Obs.Json.member "ph" ev = Some (Obs.Json.Str "X"));
            List.iter
              (fun field ->
                check (field ^ " present") true (Obs.Json.member field ev <> None))
              [ "name"; "ts"; "dur"; "pid"; "tid"; "args" ];
            let dur = Option.get (Obs.Json.to_num (Option.get (Obs.Json.member "dur" ev))) in
            check "dur non-negative" true (dur >= 0.))
          events;
        let names =
          List.filter_map
            (fun ev -> Obs.Json.to_str (Option.get (Obs.Json.member "name" ev)))
            events
        in
        Alcotest.(check (list string)) "event order" [ "outer"; "inner" ] names);
    Alcotest.test_case "json round-trips assorted values" `Quick (fun () ->
        let j =
          Obs.Json.Obj
            [
              ("s", Obs.Json.Str "a \"quoted\"\n\ttab\\slash");
              ("n", Obs.Json.Num 42.);
              ("x", Obs.Json.Num 1.5);
              ("b", Obs.Json.Bool true);
              ("z", Obs.Json.Null);
              ("l", Obs.Json.List [ Obs.Json.num_of_int 1; Obs.Json.Obj [] ]);
            ]
        in
        check "round trip" true (Obs.Json.parse (Obs.Json.to_string j) = j));
    Alcotest.test_case "parser rejects garbage" `Quick (fun () ->
        check "trailing" true (Obs.Json.parse_opt "{} junk" = None);
        check "unterminated" true (Obs.Json.parse_opt "{\"a\": " = None);
        check "bare word" true (Obs.Json.parse_opt "flase" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let metrics_tests =
  [
    Alcotest.test_case "counter arithmetic" `Quick (fun () ->
        with_fresh_obs (fun () ->
            Obs.Metrics.incr_counter "c";
            Obs.Metrics.incr_counter "c" ~by:4;
            checki "1+4" 5 (Obs.Metrics.get_counter "c");
            checki "missing counter reads 0" 0 (Obs.Metrics.get_counter "nope")));
    Alcotest.test_case "gauge overwrites" `Quick (fun () ->
        with_fresh_obs (fun () ->
            Obs.Metrics.set_gauge "g" 1.5;
            Obs.Metrics.set_gauge "g" 2.5;
            check "last write wins" true (Obs.Metrics.get_gauge "g" = Some 2.5)));
    Alcotest.test_case "histogram statistics" `Quick (fun () ->
        with_fresh_obs (fun () ->
            List.iter (Obs.Metrics.observe "h") [ 10.; 30.; 20. ];
            match Obs.Metrics.histogram_stats "h" with
            | None -> Alcotest.fail "histogram missing"
            | Some s ->
              checki "count" 3 s.Obs.Metrics.count;
              check "sum" true (s.Obs.Metrics.sum = 60.);
              check "min" true (s.Obs.Metrics.min = 10.);
              check "max" true (s.Obs.Metrics.max = 30.);
              check "mean" true (s.Obs.Metrics.mean = 20.)));
    Alcotest.test_case "time feeds the histogram" `Quick (fun () ->
        with_fresh_obs (fun () ->
            Obs.Metrics.time "t" (fun () -> ());
            match Obs.Metrics.histogram_stats "t" with
            | Some s -> checki "one sample" 1 s.Obs.Metrics.count
            | None -> Alcotest.fail "no sample recorded"));
    Alcotest.test_case "recording is off by default" `Quick (fun () ->
        Obs.reset_all ();
        Obs.Metrics.incr_counter "off";
        Obs.Metrics.observe "off" 1.;
        checki "counter untouched" 0 (Obs.Metrics.get_counter "off");
        check "histogram untouched" true (Obs.Metrics.histogram_stats "off" = None));
    Alcotest.test_case "quantiles around zero" `Quick (fun () ->
        with_fresh_obs (fun () ->
            (* All-zero histogram: the normal shape of an alloc_words
               sketch for a pass that allocates nothing. Every
               quantile must answer 0, not the old bucket-0
               representative of 1.0. *)
            List.iter (Obs.Metrics.observe "zeros") [ 0.; 0.; 0.; 0. ];
            (match Obs.Metrics.histogram_stats "zeros" with
            | None -> Alcotest.fail "zeros histogram missing"
            | Some s ->
              check "p50 of zeros is 0" true (s.Obs.Metrics.p50 = 0.);
              check "p99 of zeros is 0" true (s.Obs.Metrics.p99 = 0.);
              check "min exact" true (s.Obs.Metrics.min = 0.);
              check "max exact" true (s.Obs.Metrics.max = 0.));
            (* Mostly-zero with one large outlier: the median sits in
               the non-positive bucket and must not be dragged to 1. *)
            List.iter (Obs.Metrics.observe "mixed") [ 0.; 0.; 0.; 1000. ];
            (match Obs.Metrics.histogram_stats "mixed" with
            | None -> Alcotest.fail "mixed histogram missing"
            | Some s ->
              check "p50 of mostly-zeros is 0" true (s.Obs.Metrics.p50 = 0.);
              check "max exact" true (s.Obs.Metrics.max = 1000.));
            (* Negative observations: quantiles stay clamped inside
               the exact [min, max], hence non-positive. *)
            List.iter (Obs.Metrics.observe "neg") [ -5.; -2. ];
            (match Obs.Metrics.histogram_stats "neg" with
            | None -> Alcotest.fail "neg histogram missing"
            | Some s ->
              check "min exact" true (s.Obs.Metrics.min = -5.);
              check "max exact" true (s.Obs.Metrics.max = -2.);
              check "p50 within [min, max]" true
                (s.Obs.Metrics.p50 >= -5. && s.Obs.Metrics.p50 <= -2.);
              check "p99 within [min, max]" true
                (s.Obs.Metrics.p99 >= -5. && s.Obs.Metrics.p99 <= -2.));
            (* Small positive values live in the (0, 1] bucket and are
               clamped to the exact extremes, never rounded to 1. *)
            Obs.Metrics.observe "small" 0.3;
            match Obs.Metrics.quantile "small" 0.5 with
            | Some q -> check "p50 of {0.3} is 0.3" true (q = 0.3)
            | None -> Alcotest.fail "small histogram missing"));
    Alcotest.test_case "unit-honest dump keys for non-time histograms" `Quick
      (fun () ->
        with_fresh_obs (fun () ->
            Obs.Metrics.observe "pass.X" 120.;
            Obs.Metrics.observe "pass.X.alloc_words" 512.;
            let j = Obs.Metrics.dump_json () in
            let hists = Option.get (Obs.Json.member "histograms" j) in
            let time_h = Option.get (Obs.Json.member "pass.X" hists) in
            let words_h =
              Option.get (Obs.Json.member "pass.X.alloc_words" hists)
            in
            check "duration keeps _us keys" true
              (Obs.Json.member "mean_us" time_h <> None);
            check "duration has no bare mean" true
              (Obs.Json.member "mean" time_h = None);
            check "alloc_words drops the _us suffix" true
              (Obs.Json.member "mean" words_h <> None
              && Obs.Json.member "sum" words_h <> None
              && Obs.Json.member "p99" words_h <> None);
            check "alloc_words has no _us keys" true
              (Obs.Json.member "mean_us" words_h = None
              && Obs.Json.member "sum_us" words_h = None)));
    Alcotest.test_case "pipeline alloc_words histograms are non-negative" `Quick
      (fun () ->
        (* Regression test for the Gc accounting bug the bench exposed:
           mixing [Gc.minor_words] with a separately-sampled
           [Gc.counters] let promoted words exceed the apparent major
           allocation, dumping negative alloc_words into the bench
           snapshot. The pass instrumentation now derives every figure
           from one [Gc.counters] call and clamps at 0. *)
        with_fresh_obs (fun () ->
            let src =
              "int f(int x) { return x * x + 1; }\n\
               int main(void) { int s = 0; int i; for (i = 0; i < 20; i = i + \
               1) s = s + f(i); return s; }"
            in
            let p = Cfrontend.Cparser.parse_program src in
            ignore (Support.Errors.get (Driver.Compiler.compile p));
            let words_hists =
              List.filter
                (fun n -> Obs.Metrics.unit_suffix n = "")
                (Obs.Metrics.histogram_names ())
            in
            check "compile recorded alloc_words histograms" true
              (words_hists <> []);
            List.iter
              (fun n ->
                match Obs.Metrics.histogram_stats n with
                | None -> Alcotest.fail (n ^ " vanished")
                | Some s ->
                  check (n ^ " min is non-negative") true
                    (s.Obs.Metrics.min >= 0.);
                  check (n ^ " p50 is non-negative") true
                    (s.Obs.Metrics.p50 >= 0.))
              words_hists));
    Alcotest.test_case "dump_json parses and carries the values" `Quick (fun () ->
        with_fresh_obs (fun () ->
            Obs.Metrics.incr_counter "k" ~by:3;
            Obs.Metrics.observe "d" 5.;
            let j = Obs.Json.parse (Obs.Json.to_string (Obs.Metrics.dump_json ())) in
            let counters = Option.get (Obs.Json.member "counters" j) in
            check "counter exported" true
              (Obs.Json.member "k" counters = Some (Obs.Json.Num 3.));
            let hists = Option.get (Obs.Json.member "histograms" j) in
            let d = Option.get (Obs.Json.member "d" hists) in
            check "histogram count exported" true
              (Obs.Json.member "count" d = Some (Obs.Json.Num 1.))));
  ]

(* ------------------------------------------------------------------ *)
(* Observed runs: Obs_lts.run                                          *)
(* ------------------------------------------------------------------ *)

(* The toy component of test_smallstep: [double]/[quad] over a
   [(name, int)] question interface. *)
type toy_state = Start of (string * int) | Done of int

let toy : (toy_state, string * int, int, string * int, int) Smallstep.lts =
  {
    Smallstep.name = "toy";
    dom = (fun (f, _) -> f = "double" || f = "quad" || f = "loop");
    init = (fun q -> Start q);
    step =
      (fun s ->
        match s with
        | Start ("double", n) -> [ (Events.e0, Done (2 * n)) ]
        | Start ("loop", n) -> [ (Events.e0, Start ("loop", n)) ]
        | _ -> []);
    at_external = (fun s -> match s with Start ("quad", n) -> Some ("double", n) | _ -> None);
    after_external =
      (fun s ans ->
        match s with
        | Start ("quad", _) -> Done (2 * ans)
        | _ -> invalid_arg "toy.after_external: not at an external call");
    final = (fun s -> match s with Done r -> Some r | _ -> None);
    handover = None;
  }

let toy_oracle (f, n) = if f = "double" then Some (2 * n) else None

let toy_questions =
  [ ("double", 21); ("quad", 5); ("loop", 0); ("inc", 1); ("double", -3) ]

let run_tests =
  [
    Alcotest.test_case "Obs_lts.run keeps toy outcomes" `Quick (fun () ->
        List.iter
          (fun fuel ->
            List.iter
              (fun q ->
                let bare = Smallstep.run ~fuel toy ~oracle:toy_oracle q in
                let obs =
                  with_fresh_obs (fun () ->
                      Obs_lts.run ~fuel toy ~oracle:toy_oracle q)
                in
                check "same outcome" true (bare = obs))
              toy_questions)
          [ 0; 1; 2; 100 ]);
    Alcotest.test_case "interaction log records the run shape" `Quick (fun () ->
        let evs =
          with_fresh_obs (fun () ->
              ignore
                (Obs_lts.run ~fuel:100 toy ~oracle:toy_oracle
                   ~pp_qi:(fun (f, n) -> Printf.sprintf "%s(%d)" f n)
                   ~pp_ri:string_of_int
                   ~pp_qo:(fun (f, n) -> Printf.sprintf "%s(%d)" f n)
                   ~pp_ro:string_of_int ("quad", 5));
              Obs.Interaction_log.events ())
        in
        let open Obs.Interaction_log in
        check "event for event" true
          (evs
          = [ Question "quad(5)"; Call "double(5)"; Reply "10"; Final "20";
              Fuel_consumed 1 ]));
    Alcotest.test_case "out-of-fuel is observed" `Quick (fun () ->
        let evs =
          with_fresh_obs (fun () ->
              ignore (Obs_lts.run ~fuel:10 toy ~oracle:toy_oracle ("loop", 0));
              Obs.Interaction_log.events ())
        in
        check "out of fuel logged" true (List.mem Obs.Interaction_log.Out_of_fuel evs));
    Alcotest.test_case "Obs_lts.run keeps C/A outcomes" `Quick (fun () ->
        let src =
          "int sq(int x) { return x * x; }\n\
           int main(void) { int s = 0; int i; for (i = 0; i < 6; i = i + 1) s \
           = s + sq(i); return s; }"
        in
        let p = Cfrontend.Cparser.parse_program src in
        let symbols = Iface.Ast.prog_defs_names p in
        let arts = Support.Errors.get (Driver.Compiler.compile p) in
        let q =
          Option.get (Driver.Runners.main_query ~symbols ~defs:p ())
        in
        let render o = Format.asprintf "%a" Driver.Runners.pp_c_outcome o in
        let bare_c =
          render
            (Driver.Runners.run_c_level
               (Cfrontend.Clight.semantics ~symbols p)
               ~fuel:1_000_000 q)
        in
        let bare_a =
          Result.map render
            (Driver.Runners.run_a_level
               (Backend.Asm.semantics ~symbols arts.Driver.Compiler.asm)
               ~fuel:1_000_000 q)
        in
        let obs_c, obs_a =
          with_fresh_obs (fun () ->
              ( render
                  (Driver.Runners.run_c_level
                     (Cfrontend.Clight.semantics ~symbols p)
                     ~fuel:1_000_000 q),
                Result.map render
                  (Driver.Runners.run_a_level
                     (Backend.Asm.semantics ~symbols arts.Driver.Compiler.asm)
                     ~fuel:1_000_000 q) ))
        in
        checks "clight outcome unchanged" bare_c obs_c;
        check "asm outcome unchanged" true (bare_a = obs_a));
    Alcotest.test_case
      "every level's log opens and closes with the Clight log's C query and reply"
      `Quick (fun () ->
        let dir = "../examples/c" in
        let files =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".c")
        in
        check "corpus present" true (files <> []);
        List.iter
          (fun file ->
            let ic = open_in_bin (Filename.concat dir file) in
            let src = really_input_string ic (in_channel_length ic) in
            close_in ic;
            let p = Cfrontend.Cparser.parse_program src in
            let symbols = Iface.Ast.prog_defs_names p in
            let q = Option.get (Driver.Differential.main_query_of p) in
            let levels = Result.get_ok (Driver.Compiler.compile_levels p) in
            let ends (l : Driver.Pipeline.level) =
              with_fresh_obs (fun () ->
                  ignore (Driver.Pipeline.run_level ~symbols ~fuel:3_000_000 q l);
                  List.filter
                    (function
                      | Obs.Interaction_log.Question _ | Obs.Interaction_log.Final _ ->
                        true
                      | _ -> false)
                    (Obs.Interaction_log.events ()))
            in
            let reference = ends (List.hd levels) in
            check (file ^ ": the Clight log has a question and a final answer") true
              (List.length reference = 2);
            List.iter
              (fun (l : Driver.Pipeline.level) ->
                check
                  (Printf.sprintf "%s: %s question and answer" file l.level)
                  true (ends l = reference))
              levels)
          files);
    Alcotest.test_case "coexec records check counters" `Quick (fun () ->
        with_fresh_obs (fun () ->
            let cc = Simconv.cc_id ~name:"idtest" () in
            let v =
              Coexec.check ~fuel:100 ~l1:toy ~l2:toy ~cc_in:cc ~cc_out:cc
                ~oracle:toy_oracle ("quad", 5)
            in
            check "co-execution passes" true (Coexec.is_pass v);
            checki "query counted" 1 (Obs.Metrics.get_counter "coexec.queries");
            check "checks counted" true
              (Obs.Metrics.get_counter "coexec.checks.idtest.passed" > 0)));
  ]

let suite =
  ( "obs",
    span_tests @ chrome_tests @ metrics_tests @ run_tests )
