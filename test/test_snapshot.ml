(** Tests for the cross-process telemetry of ISSUE 6: non-finite JSON
    numbers, percentile histogram sketches (with a QCheck bound against
    exact quantiles), snapshot capture/merge (in-process and across a
    real fork), the [Trace.pop] exception-unwind path, worker pipe-write
    failure classification, supervisor service gauges, breaker
    transition events, and the [bench-diff] regression gate (library
    level and the actual [occo bench-diff] exit codes). *)

module Worker = Harness.Worker
module Sup = Harness.Supervisor
module Breaker = Harness.Breaker

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let with_fresh_obs f =
  Obs.reset_all ();
  Obs.with_enabled f

let tmpfile name =
  let path = Filename.temp_file "occo-snapshot-" ("-" ^ name) in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Json: non-finite numbers                                           *)
(* ------------------------------------------------------------------ *)

let json_tests =
  [
    Alcotest.test_case "non-finite numbers serialize as null" `Quick (fun () ->
        checks "inf" "null" (Obs.Json.to_string (Obs.Json.Num Float.infinity));
        checks "-inf" "null"
          (Obs.Json.to_string (Obs.Json.Num Float.neg_infinity));
        checks "nan" "null" (Obs.Json.to_string (Obs.Json.Num Float.nan)));
    Alcotest.test_case "documents with non-finite numbers round-trip" `Quick
      (fun () ->
        let doc =
          Obs.Json.Obj
            [
              ("ok", Obs.Json.Num 3.5);
              ("inf", Obs.Json.Num Float.infinity);
              ("nan", Obs.Json.Num Float.nan);
              ("list", Obs.Json.List [ Obs.Json.Num Float.neg_infinity ]);
            ]
        in
        match Obs.Json.parse (Obs.Json.to_string doc) with
        | Obs.Json.Obj kvs ->
          check "finite survives" true
            (List.assoc "ok" kvs = Obs.Json.Num 3.5);
          check "inf reads back as null" true
            (List.assoc "inf" kvs = Obs.Json.Null);
          check "nan reads back as null" true
            (List.assoc "nan" kvs = Obs.Json.Null);
          check "nested non-finite reads back as null" true
            (List.assoc "list" kvs = Obs.Json.List [ Obs.Json.Null ])
        | _ -> Alcotest.fail "expected an object back");
  ]

(* ------------------------------------------------------------------ *)
(* Histogram sketch: percentiles                                      *)
(* ------------------------------------------------------------------ *)

(* Exact q-quantile under the same rank convention as the sketch. *)
let exact_quantile (sample : float list) (q : float) : float =
  let a = Array.of_list sample in
  Array.sort compare a;
  let n = Array.length a in
  let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
  a.(rank - 1)

let sketch_tests =
  [
    Alcotest.test_case "dump_json reports p50/p90/p99" `Quick (fun () ->
        with_fresh_obs (fun () ->
            for i = 1 to 100 do
              Obs.Metrics.observe "h" (float_of_int i)
            done);
        match
          Option.bind
            (Obs.Json.member "histograms" (Obs.Metrics.dump_json ()))
            (Obs.Json.member "h")
        with
        | Some h ->
          List.iter
            (fun field ->
              check (field ^ " present") true
                (Option.bind (Obs.Json.member field h) Obs.Json.to_num <> None))
            [ "count"; "sum_us"; "min_us"; "max_us"; "mean_us"; "p50_us";
              "p90_us"; "p99_us" ];
          let f field =
            Option.get (Option.bind (Obs.Json.member field h) Obs.Json.to_num)
          in
          check "p50 <= p90 <= p99" true
            (f "p50_us" <= f "p90_us" && f "p90_us" <= f "p99_us");
          check "percentiles within [min, max]" true
            (f "min_us" <= f "p50_us" && f "p99_us" <= f "max_us")
        | None -> Alcotest.fail "histogram h missing from dump_json");
    Alcotest.test_case "quantiles of a point mass are the point" `Quick
      (fun () ->
        with_fresh_obs (fun () ->
            for _ = 1 to 50 do
              Obs.Metrics.observe "point" 250.
            done);
        let s = Option.get (Obs.Metrics.histogram_stats "point") in
        (* min/max clamping makes a constant sample exact despite the
           bucket representative. *)
        check "p50 exact" true (s.Obs.Metrics.p50 = 250.);
        check "p99 exact" true (s.Obs.Metrics.p99 = 250.));
    (let slack = 1.2 ** 1.5 in
     (* One bucket of relative error (gamma), plus half a bucket for
        the representative sitting mid-bucket: gamma^1.5 covers both
        sides of every rank-convention edge case. *)
     QCheck_alcotest.to_alcotest
       (QCheck.Test.make ~name:"sketch quantiles within one bucket of exact"
          ~count:200
          QCheck.(
            list_of_size (Gen.int_range 5 300)
              (map (fun x -> 1.0 +. x) (float_bound_exclusive 50_000.)))
          (fun sample ->
            QCheck.assume (sample <> []);
            Obs.reset_all ();
            Obs.with_enabled (fun () ->
                List.iter (Obs.Metrics.observe "qh") sample);
            List.for_all
              (fun q ->
                let approx = Option.get (Obs.Metrics.quantile "qh" q) in
                let exact = exact_quantile sample q in
                approx <= exact *. slack && approx >= exact /. slack)
              [ 0.5; 0.9; 0.99 ])));
  ]

(* ------------------------------------------------------------------ *)
(* Snapshot capture / merge (in-process)                              *)
(* ------------------------------------------------------------------ *)

let snapshot_tests =
  [
    Alcotest.test_case "merge adds counters, LWW gauges, merges sketches"
      `Quick (fun () ->
        (* Build the "worker" registry and capture it... *)
        let snap =
          with_fresh_obs (fun () ->
              Obs.Metrics.incr_counter ~by:3 "shared.count";
              Obs.Metrics.incr_counter "worker.only";
              Obs.Metrics.set_gauge "shared.gauge" 2.0;
              for i = 51 to 100 do
                Obs.Metrics.observe "shared.hist" (float_of_int i)
              done;
              Obs.Trace.with_span "w" (fun () -> ());
              Obs.Snapshot.capture ())
        in
        (* ...then the "parent" registry, and fold the snapshot in. *)
        with_fresh_obs (fun () ->
            Obs.Metrics.incr_counter ~by:2 "shared.count";
            Obs.Metrics.set_gauge "shared.gauge" 1.0;
            for i = 1 to 50 do
              Obs.Metrics.observe "shared.hist" (float_of_int i)
            done);
        Obs.Snapshot.merge ~pid:4242 snap;
        checki "counters add" 5 (Obs.Metrics.get_counter "shared.count");
        checki "worker-only counter appears" 1
          (Obs.Metrics.get_counter "worker.only");
        check "gauge is last-write-wins (the snapshot)" true
          (Obs.Metrics.get_gauge "shared.gauge" = Some 2.0);
        let s = Option.get (Obs.Metrics.histogram_stats "shared.hist") in
        checki "histogram counts merge" 100 s.Obs.Metrics.count;
        check "merged min/max span both halves" true
          (s.Obs.Metrics.min = 1. && s.Obs.Metrics.max = 100.);
        (* p50 of 1..100 is 50; one bucket of sketch slack. *)
        check "merged p50 lands near the true median" true
          (s.Obs.Metrics.p50 >= 50. /. 1.2 && s.Obs.Metrics.p50 <= 50. *. 1.2);
        match Obs.Trace.grafted () with
        | [ (4242, [ w ]) ] -> checks "grafted root" "w" w.Obs.Trace.name
        | _ -> Alcotest.fail "expected one grafted forest under pid 4242");
    Alcotest.test_case "chrome export renders one lane per worker pid" `Quick
      (fun () ->
        with_fresh_obs (fun () ->
            Obs.Trace.with_span "parent-span" (fun () -> ()));
        List.iter
          (fun pid ->
            Obs.Trace.graft ~pid
              [
                {
                  Obs.Trace.name = Printf.sprintf "job-%d" pid;
                  seq = 1;
                  start_us = 10.;
                  dur_us = 5.;
                  attrs = [];
                  children = [];
                };
              ])
          [ 1001; 1002 ];
        let j = Obs.Trace.to_chrome_json () in
        let events =
          Option.get (Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list)
        in
        let xs =
          List.filter
            (fun e -> Obs.Json.member "ph" e = Some (Obs.Json.Str "X"))
            events
        in
        let pids =
          List.sort_uniq compare
            (List.filter_map
               (fun e -> Option.bind (Obs.Json.member "pid" e) Obs.Json.to_num)
               xs)
        in
        checki "three distinct pid lanes" 3 (List.length pids);
        let metas =
          List.filter
            (fun e -> Obs.Json.member "ph" e = Some (Obs.Json.Str "M"))
            events
        in
        checki "one process_name per lane" 3 (List.length metas);
        check "every X event has ts and dur" true
          (List.for_all
             (fun e ->
               Obs.Json.member "ts" e <> None && Obs.Json.member "dur" e <> None)
             xs));
    Alcotest.test_case "single-process trace keeps its all-X shape" `Quick
      (fun () ->
        with_fresh_obs (fun () ->
            Obs.Trace.with_span "solo" (fun () -> ()));
        let events =
          Option.get
            (Option.bind
               (Obs.Json.member "traceEvents" (Obs.Trace.to_chrome_json ()))
               Obs.Json.to_list)
        in
        check "no metadata events without worker lanes" true
          (List.for_all
             (fun e -> Obs.Json.member "ph" e = Some (Obs.Json.Str "X"))
             events));
  ]

(* ------------------------------------------------------------------ *)
(* Trace.pop unwind                                                   *)
(* ------------------------------------------------------------------ *)

let unwind_tests =
  [
    Alcotest.test_case "pop unwinds dropped open spans to a wellformed tree"
      `Quick (fun () ->
        with_fresh_obs (fun () ->
            let a = Obs.Trace.push "a" [] in
            let _b = Obs.Trace.push "b" [] in
            let _c = Obs.Trace.push "c" [] in
            (* An exception unwound past b and c without closing them;
               closing a must drop them rather than corrupt the stack. *)
            Obs.Trace.pop a;
            check "stack is empty again" true (Obs.Trace.current () = None);
            Obs.Trace.with_span "later" (fun () -> ()));
        let roots = Obs.Trace.roots () in
        Alcotest.(check (list string))
          "both roots recorded, dropped spans gone" [ "a"; "later" ]
          (List.map (fun s -> s.Obs.Trace.name) roots);
        check "the unwound span has no phantom children" true
          ((List.hd roots).Obs.Trace.children = []));
  ]

(* ------------------------------------------------------------------ *)
(* bench-diff                                                         *)
(* ------------------------------------------------------------------ *)

let snapshot_json ?(meta = "") ~interp_asm ~compile () =
  Printf.sprintf
    {|{%s"gauges": {"bench.interp_asm_us": %f, "bench.compile_us": %f},
       "histograms": {"pass.Allocation":
         {"count": 10, "sum_us": 1000, "min_us": 90, "max_us": 110,
          "mean_us": 100, "p50_us": 100, "p90_us": 108, "p99_us": 110}}}|}
    meta interp_asm compile

let bench_diff_tests =
  [
    Alcotest.test_case "a 30%% slowdown regresses; meta is ignored" `Quick
      (fun () ->
        let baseline =
          Obs.Json.parse
            (snapshot_json
               ~meta:{|"meta": {"git_rev": "aaa", "hostname": "old-box"},|}
               ~interp_asm:4000. ~compile:1500. ())
        and current =
          Obs.Json.parse
            (snapshot_json
               ~meta:{|"meta": {"git_rev": "bbb", "hostname": "new-box"},|}
               ~interp_asm:5200. ~compile:1500. ())
        in
        let vs =
          Obs.Bench_diff.compare_snapshots ~baseline ~current ()
        in
        let r = Obs.Bench_diff.regressions vs in
        checki "exactly the slowed key regresses" 1 (List.length r);
        checks "it is interp_asm" "bench.interp_asm_us"
          (List.hd r).Obs.Bench_diff.v_key;
        check "meta keys are never compared" true
          (List.for_all
             (fun v ->
               not
                 (String.length v.Obs.Bench_diff.v_key >= 4
                 && String.sub v.Obs.Bench_diff.v_key 0 4 = "meta"))
             vs));
    Alcotest.test_case "keys in only one snapshot never regress" `Quick
      (fun () ->
        let baseline =
          Obs.Json.parse {|{"gauges": {"gone_us": 100.0, "stable_us": 50.0}}|}
        and current =
          Obs.Json.parse {|{"gauges": {"fresh_us": 100.0, "stable_us": 50.0}}|}
        in
        let vs = Obs.Bench_diff.compare_snapshots ~baseline ~current () in
        checki "only the shared key is compared" 1 (List.length vs);
        check "no regression" true (Obs.Bench_diff.regressions vs = []);
        Alcotest.(check (list string))
          "retired key reported" [ "gone_us" ]
          (Obs.Bench_diff.only_in baseline current);
        Alcotest.(check (list string))
          "new key reported" [ "fresh_us" ]
          (Obs.Bench_diff.only_in current baseline));
    Alcotest.test_case "per-key threshold override: longest prefix wins" `Quick
      (fun () ->
        let baseline = Obs.Json.parse {|{"gauges": {"pass.x_us": 100.0}}|}
        and current = Obs.Json.parse {|{"gauges": {"pass.x_us": 160.0}}|} in
        let regressed thresholds =
          Obs.Bench_diff.regressions
            (Obs.Bench_diff.compare_snapshots ~thresholds ~baseline ~current ())
          <> []
        in
        check "default 20%% trips on +60%%" true (regressed []);
        check "family-wide 100%% absorbs it" false
          (regressed [ ("pass.", 1.0) ]);
        check "a longer exact-key override beats the family" true
          (regressed [ ("pass.", 1.0); ("pass.x_us", 0.10) ]));
    Alcotest.test_case "legacy _us spellings of non-time histograms still gate"
      `Quick (fun () ->
        (* Baselines committed before the unit-honest key change
           spelled every histogram field with [_us], including the
           dimensionless alloc_words sketches. A new snapshot spells
           them plainly; both must meet on the canonical key so the
           old baseline still detects a regression. *)
        let baseline =
          Obs.Json.parse
            {|{"histograms": {"pass.Allocation.alloc_words":
                 {"count": 10, "sum_us": 1000, "mean_us": 100, "p99_us": 110}}}|}
        and current =
          Obs.Json.parse
            {|{"histograms": {"pass.Allocation.alloc_words":
                 {"count": 10, "sum": 3000, "mean": 300, "p99": 330}}}|}
        in
        let vs = Obs.Bench_diff.compare_snapshots ~baseline ~current () in
        Alcotest.(check (list string))
          "compared under the canonical unit-honest keys"
          [
            "pass.Allocation.alloc_words.mean";
            "pass.Allocation.alloc_words.p99";
          ]
          (List.map (fun v -> v.Obs.Bench_diff.v_key) vs);
        checki "the 3x growth regresses both keys" 2
          (List.length (Obs.Bench_diff.regressions vs)));
    Alcotest.test_case "sub-floor absolute deltas never regress" `Quick
      (fun () ->
        let baseline = Obs.Json.parse {|{"gauges": {"tiny_us": 2.0}}|}
        and current = Obs.Json.parse {|{"gauges": {"tiny_us": 6.0}}|} in
        (* +200% relative, but only +4us absolute: noise, not signal. *)
        check "no regression under the min-delta floor" true
          (Obs.Bench_diff.regressions
             (Obs.Bench_diff.compare_snapshots ~baseline ~current ())
          = []));
    Alcotest.test_case "occo bench-diff exits 1 on a 30%% regression, 0 \
                        otherwise, 124 on garbage" `Quick (fun () ->
        let old_p = tmpfile "old.json" and new_p = tmpfile "new.json" in
        write_file old_p (snapshot_json ~interp_asm:4000. ~compile:1500. ());
        write_file new_p (snapshot_json ~interp_asm:5200. ~compile:1500. ());
        let occo args =
          Sys.command
            (Filename.quote_command "../bin/occo.exe"
               ~stdout:Filename.null ~stderr:Filename.null args)
        in
        checki "regression exits 1" 1
          (occo [ "bench-diff"; old_p; new_p ]);
        checki "identical snapshots exit 0" 0
          (occo [ "bench-diff"; old_p; old_p ]);
        checki "a wide --threshold waves the same diff through" 0
          (occo [ "bench-diff"; old_p; new_p; "--threshold"; "200" ]);
        checki "a tight --key override fails it again" 1
          (occo
             [ "bench-diff"; old_p; new_p; "--threshold"; "200";
               "--key"; "bench.interp_asm_us=10" ]);
        let bad = tmpfile "bad.json" in
        write_file bad "not json at all";
        checki "unparseable input exits 124" 124
          (occo [ "bench-diff"; old_p; bad ]));
  ]

(* ------------------------------------------------------------------ *)
(* Workers: pipe-write failure and real-fork telemetry                *)
(* ------------------------------------------------------------------ *)

let worker_tests =
  [
    Alcotest.test_case "unmarshalable payload classifies as pipe-write \
                        failure, not a crash" `Quick (fun () ->
        match Worker.run (fun () -> Ok (fun x -> x + 1)) with
        | Worker.Pipe_write_failed -> ()
        | Worker.Crashed why ->
          Alcotest.failf "misclassified as generic crash: %s" why
        | _ -> Alcotest.fail "expected Pipe_write_failed");
    Alcotest.test_case "a forked worker's spans and metrics merge into the \
                        parent" `Quick (fun () ->
        with_fresh_obs (fun () ->
            Obs.Metrics.incr_counter "parent.count";
            let v =
              Worker.run ~label:"job:telemetry"
                ~attrs:[ ("class", Obs.Json.Str "test") ]
                (fun () ->
                  Obs.Metrics.incr_counter "child.count";
                  Obs.Metrics.observe "child.hist" 123.;
                  Obs.Trace.with_span "inner" (fun () -> ());
                  Ok 42)
            in
            check "job returned" true (v = Worker.Returned (Ok 42));
            (* The child reset the inherited registry, so the parent's
               counter did not double. *)
            checki "parent counter untouched by the child" 1
              (Obs.Metrics.get_counter "parent.count");
            checki "child counter merged" 1
              (Obs.Metrics.get_counter "child.count");
            let s = Option.get (Obs.Metrics.histogram_stats "child.hist") in
            checki "child histogram merged" 1 s.Obs.Metrics.count;
            match Obs.Trace.grafted () with
            | [ (pid, [ root ]) ] ->
              check "grafted under a real worker pid" true
                (pid > 0 && pid <> Unix.getpid ());
              checks "root span is the job label" "job:telemetry"
                root.Obs.Trace.name;
              check "job label carries the attrs" true
                (List.mem_assoc "class" root.Obs.Trace.attrs);
              Alcotest.(check (list string))
                "the job's own spans nest under it" [ "inner" ]
                (List.map
                   (fun s -> s.Obs.Trace.name)
                   root.Obs.Trace.children)
            | _ -> Alcotest.fail "expected one grafted worker forest"));
    Alcotest.test_case "observability off: workers ship no snapshot" `Quick
      (fun () ->
        Obs.reset_all ();
        check "obs is off" false !Obs.enabled;
        (match Worker.run (fun () -> Ok 7) with
        | Worker.Returned (Ok 7) -> ()
        | _ -> Alcotest.fail "job failed");
        check "nothing grafted" true (Obs.Trace.grafted () = []));
  ]

(* ------------------------------------------------------------------ *)
(* Supervisor gauges and breaker transition events                    *)
(* ------------------------------------------------------------------ *)

let ok_job id : int Sup.job = Sup.job ~cls:"test" id (fun ~attempt:_ -> Ok 1)

let service_tests =
  [
    Alcotest.test_case "a run leaves queue-depth/inflight/jobs-per-s gauges"
      `Quick (fun () ->
        with_fresh_obs (fun () ->
            let outcomes =
              Sup.run
                { Sup.default_config with Sup.c_jobs = 2 }
                [ ok_job "a"; ok_job "b"; ok_job "c" ]
            in
            check "all ok" true (Sup.all_ok outcomes);
            check "queue drained" true
              (Obs.Metrics.get_gauge "harness.queue_depth" = Some 0.);
            check "no worker left inflight" true
              (Obs.Metrics.get_gauge "harness.inflight" = Some 0.);
            check "throughput gauge set and positive" true
              (match Obs.Metrics.get_gauge "harness.jobs_per_s" with
              | Some v -> v > 0.
              | None -> false)));
    Alcotest.test_case "breaker transitions land in the interaction log"
      `Quick (fun () ->
        with_fresh_obs (fun () ->
            let b = Breaker.create ~threshold:1 ~cooldown_us:10. "cls" in
            Breaker.record b ~now_us:0. ~ok:false;
            (* tripped: closed -> open *)
            check "probe admitted after cooldown" true
              (Breaker.allow b ~now_us:20.);
            (* timed: open -> half-open *)
            Breaker.record b ~now_us:21. ~ok:true;
            (* probe success: half-open -> closed *)
            let services =
              List.filter_map
                (function Obs.Interaction_log.Service s -> Some s | _ -> None)
                (Obs.Interaction_log.events ())
            in
            Alcotest.(check (list string))
              "all three transitions, in order"
              [
                "breaker cls: closed -> open";
                "breaker cls: open -> half-open";
                "breaker cls: half-open -> closed";
              ]
              services));
  ]

let suite =
  ( "snapshot",
    json_tests @ sketch_tests @ snapshot_tests @ unwind_tests
    @ bench_diff_tests @ worker_tests @ service_tests )
