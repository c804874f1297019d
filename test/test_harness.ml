(** Tests for the supervised batch-execution layer ([lib/harness]):
    deterministic backoff/jitter schedules, circuit-breaker state
    transitions including the half-open probe, the crash-safe
    checkpoint journal (torn lines, last-status-wins), process-isolated
    workers (crash / timeout / OOM classification), and the supervisor
    end to end — retry after a worker [kill -9], degraded fallback,
    breaker shedding, and journal-driven resume. *)

module Diag = Support.Diagnostics
module Backoff = Harness.Backoff
module Breaker = Harness.Breaker
module Checkpoint = Harness.Checkpoint
module Worker = Harness.Worker
module Sup = Harness.Supervisor

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tmpfile name =
  let path = Filename.temp_file "occo-harness-" ("-" ^ name) in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* ------------------------------------------------------------------ *)
(* Backoff                                                            *)
(* ------------------------------------------------------------------ *)

let backoff_tests =
  [
    Alcotest.test_case "raw delays grow geometrically and cap" `Quick
      (fun () ->
        let p = Backoff.default in
        check "attempt 1 = base" true
          (Backoff.raw_delay_us p ~attempt:1 = p.Backoff.base_us);
        check "attempt 2 = base*factor" true
          (Backoff.raw_delay_us p ~attempt:2
          = p.Backoff.base_us *. p.Backoff.factor);
        check "attempt 3 = base*factor^2" true
          (Backoff.raw_delay_us p ~attempt:3
          = p.Backoff.base_us *. (p.Backoff.factor ** 2.));
        check "large attempts hit the cap" true
          (Backoff.raw_delay_us p ~attempt:40 = p.Backoff.max_us));
    Alcotest.test_case "jitter stays within the advertised band" `Quick
      (fun () ->
        let p = Backoff.default in
        let rng = Random.State.make [| 42 |] in
        for attempt = 1 to 8 do
          let raw = Backoff.raw_delay_us p ~attempt in
          let d = Backoff.delay_us p ~rng ~attempt in
          let lo = raw *. (1. -. p.Backoff.jitter)
          and hi = raw *. (1. +. p.Backoff.jitter) in
          check
            (Printf.sprintf "attempt %d: %.0f in [%.0f, %.0f]" attempt d lo hi)
            true
            (d >= lo && d <= hi)
        done);
    Alcotest.test_case "same seed, same schedule (deterministic)" `Quick
      (fun () ->
        let p = Backoff.default in
        let s1 =
          Backoff.schedule p ~rng:(Random.State.make [| 7; 13 |]) ~retries:6
        in
        let s2 =
          Backoff.schedule p ~rng:(Random.State.make [| 7; 13 |]) ~retries:6
        in
        check_int "length" 6 (List.length s1);
        check "identical schedules" true (s1 = s2));
    Alcotest.test_case "different seeds de-synchronize the jitter" `Quick
      (fun () ->
        let p = Backoff.default in
        let s1 =
          Backoff.schedule p ~rng:(Random.State.make [| 1 |]) ~retries:6
        in
        let s2 =
          Backoff.schedule p ~rng:(Random.State.make [| 2 |]) ~retries:6
        in
        check "schedules differ" true (s1 <> s2));
    Alcotest.test_case "zero jitter reduces to the raw schedule" `Quick
      (fun () ->
        let p = { Backoff.default with Backoff.jitter = 0. } in
        let rng = Random.State.make [| 0 |] in
        for attempt = 1 to 5 do
          check "raw" true
            (Backoff.delay_us p ~rng ~attempt = Backoff.raw_delay_us p ~attempt)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Breaker                                                            *)
(* ------------------------------------------------------------------ *)

let breaker_tests =
  [
    Alcotest.test_case "stays closed below the threshold; ok resets" `Quick
      (fun () ->
        let b = Breaker.create ~threshold:3 ~cooldown_us:1e6 "t" in
        Breaker.record b ~now_us:0. ~ok:false;
        Breaker.record b ~now_us:1. ~ok:false;
        Breaker.record b ~now_us:2. ~ok:true;
        (* the streak was broken: two more failures still don't trip *)
        Breaker.record b ~now_us:3. ~ok:false;
        Breaker.record b ~now_us:4. ~ok:false;
        check "still closed" true (Breaker.state b ~now_us:5. = Breaker.Closed);
        check "still allows" true (Breaker.allow b ~now_us:5.);
        check_int "no trips" 0 (Breaker.trips b));
    Alcotest.test_case "trips open at threshold consecutive failures" `Quick
      (fun () ->
        let b = Breaker.create ~threshold:3 ~cooldown_us:1e6 "t" in
        List.iter (fun t -> Breaker.record b ~now_us:t ~ok:false) [ 0.; 1.; 2. ];
        check "open" true (Breaker.state b ~now_us:3. = Breaker.Open);
        check "sheds while open" false (Breaker.allow b ~now_us:3.);
        check_int "one trip" 1 (Breaker.trips b));
    Alcotest.test_case "half-open after cooldown admits a single probe" `Quick
      (fun () ->
        let b = Breaker.create ~threshold:1 ~cooldown_us:100. "t" in
        Breaker.record b ~now_us:0. ~ok:false;
        check "open before cooldown" false (Breaker.allow b ~now_us:50.);
        check "half-open after cooldown" true
          (Breaker.state b ~now_us:200. = Breaker.Half_open);
        check "probe admitted" true (Breaker.allow b ~now_us:200.);
        check "second job shed while probe is in flight" false
          (Breaker.allow b ~now_us:201.));
    Alcotest.test_case "successful probe closes the breaker" `Quick
      (fun () ->
        let b = Breaker.create ~threshold:1 ~cooldown_us:100. "t" in
        Breaker.record b ~now_us:0. ~ok:false;
        check "probe" true (Breaker.allow b ~now_us:200.);
        Breaker.record b ~now_us:210. ~ok:true;
        check "closed again" true
          (Breaker.state b ~now_us:211. = Breaker.Closed);
        check "allows freely" true
          (Breaker.allow b ~now_us:212. && Breaker.allow b ~now_us:213.));
    Alcotest.test_case "failed probe re-opens for another cooldown" `Quick
      (fun () ->
        let b = Breaker.create ~threshold:1 ~cooldown_us:100. "t" in
        Breaker.record b ~now_us:0. ~ok:false;
        check "probe" true (Breaker.allow b ~now_us:200.);
        Breaker.record b ~now_us:210. ~ok:false;
        check "open again" true (Breaker.state b ~now_us:211. = Breaker.Open);
        check "sheds again" false (Breaker.allow b ~now_us:250.);
        check_int "two trips" 2 (Breaker.trips b);
        (* and the new cooldown is measured from the re-open *)
        check "half-open after the second cooldown" true
          (Breaker.allow b ~now_us:320.));
  ]

(* ------------------------------------------------------------------ *)
(* Checkpoint journal                                                 *)
(* ------------------------------------------------------------------ *)

let entry id status attempts =
  {
    Checkpoint.e_id = id;
    e_class = "test";
    e_status = status;
    e_attempts = attempts;
    e_elapsed_us = 12.5;
  }

let checkpoint_tests =
  [
    Alcotest.test_case "missing journal is an empty journal" `Quick
      (fun () ->
        check "empty" true
          (Checkpoint.load "/nonexistent/occo-journal.jsonl" = []));
    Alcotest.test_case "appended entries round-trip through load" `Quick
      (fun () ->
        let path = tmpfile "roundtrip.jsonl" in
        let w = Checkpoint.open_journal ~truncate:true path in
        Checkpoint.append w (entry "a" "ok" 1);
        Checkpoint.append w (entry "b" "failed" 3);
        Checkpoint.close w;
        match Checkpoint.load path with
        | [ a; b ] ->
          check "a id" true (a.Checkpoint.e_id = "a");
          check "a status" true (a.Checkpoint.e_status = "ok");
          check_int "b attempts" 3 b.Checkpoint.e_attempts;
          check "b elapsed" true (b.Checkpoint.e_elapsed_us = 12.5)
        | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
    Alcotest.test_case "a torn final line is skipped, not fatal" `Quick
      (fun () ->
        let path = tmpfile "torn.jsonl" in
        let w = Checkpoint.open_journal ~truncate:true path in
        Checkpoint.append w (entry "a" "ok" 1);
        Checkpoint.close w;
        (* simulate a kill -9 mid-write: a half-written record *)
        let oc = open_out_gen [ Open_append ] 0o644 path in
        output_string oc "{\"job\": \"b\", \"stat";
        close_out oc;
        match Checkpoint.load path with
        | [ a ] -> check "only the whole line" true (a.Checkpoint.e_id = "a")
        | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es));
    Alcotest.test_case "completed_ids: last status wins, failures retry" `Quick
      (fun () ->
        let entries =
          [
            entry "a" "ok" 1;
            entry "b" "crashed" 2;
            entry "c" "ok" 1;
            entry "c" "failed" 1;
            (* later failure: c must re-run *)
            entry "d" "failed" 1;
            entry "d" "degraded" 2;
            (* later degraded completion: d skips *)
          ]
        in
        let ids = Checkpoint.completed_ids entries in
        check "a completed" true (Hashtbl.mem ids "a");
        check "b (crashed) retries" false (Hashtbl.mem ids "b");
        check "c (ok then failed) retries" false (Hashtbl.mem ids "c");
        check "d (failed then degraded) skips" true (Hashtbl.mem ids "d"));
    Alcotest.test_case "truncate starts afresh; append preserves" `Quick
      (fun () ->
        let path = tmpfile "trunc.jsonl" in
        let w = Checkpoint.open_journal ~truncate:true path in
        Checkpoint.append w (entry "old" "ok" 1);
        Checkpoint.close w;
        let w = Checkpoint.open_journal path in
        Checkpoint.append w (entry "new" "ok" 1);
        Checkpoint.close w;
        check_int "append keeps both" 2 (List.length (Checkpoint.load path));
        let w = Checkpoint.open_journal ~truncate:true path in
        Checkpoint.append w (entry "fresh" "ok" 1);
        Checkpoint.close w;
        match Checkpoint.load path with
        | [ e ] -> check "only the fresh entry" true (e.Checkpoint.e_id = "fresh")
        | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es));
  ]

(* ------------------------------------------------------------------ *)
(* Checkpoint compaction                                              *)
(* ------------------------------------------------------------------ *)

let compact_tests =
  [
    Alcotest.test_case "compact keeps the last status per id" `Quick
      (fun () ->
        let path = tmpfile "compact.jsonl" in
        let w = Checkpoint.open_journal ~truncate:true path in
        Checkpoint.append w (entry "a" "crashed" 1);
        Checkpoint.append w (entry "b" "ok" 1);
        Checkpoint.append w (entry "a" "crashed" 2);
        Checkpoint.append w (entry "a" "ok" 3);
        Checkpoint.close w;
        let kept, dropped = Checkpoint.compact path in
        check_int "two survivors" 2 kept;
        check_int "two superseded lines dropped" 2 dropped;
        (match Checkpoint.load path with
        | [ a; b ] ->
          (* first-appearance order, each with its final status *)
          check "a first" true (a.Checkpoint.e_id = "a");
          check "a final status" true (a.Checkpoint.e_status = "ok");
          check_int "a final attempts" 3 a.Checkpoint.e_attempts;
          check "b second" true (b.Checkpoint.e_id = "b")
        | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
        (* compaction is idempotent *)
        let kept2, dropped2 = Checkpoint.compact path in
        check_int "second pass keeps both" 2 kept2;
        check_int "second pass drops nothing" 0 dropped2);
    Alcotest.test_case "compact drops torn and foreign lines" `Quick
      (fun () ->
        let path = tmpfile "compact-torn.jsonl" in
        let w = Checkpoint.open_journal ~truncate:true path in
        Checkpoint.append w (entry "a" "ok" 1);
        Checkpoint.append_json w
          (Obs.Json.Obj [ ("note", Obs.Json.Str "not an entry") ]);
        Checkpoint.close w;
        let oc = open_out_gen [ Open_append ] 0o644 path in
        output_string oc "{\"job\": \"b\", \"stat";
        close_out oc;
        let kept, dropped = Checkpoint.compact path in
        check_int "one entry survives" 1 kept;
        check_int "foreign + torn dropped" 2 dropped;
        match Checkpoint.load path with
        | [ a ] -> check "a" true (a.Checkpoint.e_id = "a")
        | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es));
    Alcotest.test_case "compacting a missing journal is a no-op" `Quick
      (fun () ->
        check "zero" true
          (Checkpoint.compact "/nonexistent/occo-journal.jsonl" = (0, 0)));
    Alcotest.test_case "a compacted journal still resumes correctly" `Quick
      (fun () ->
        let path = tmpfile "compact-resume.jsonl" in
        let w = Checkpoint.open_journal ~truncate:true path in
        Checkpoint.append w (entry "a" "ok" 1);
        Checkpoint.append w (entry "b" "failed" 2);
        Checkpoint.append w (entry "c" "poisoned" 3);
        Checkpoint.close w;
        ignore (Checkpoint.compact path);
        let ids = Checkpoint.completed_ids (Checkpoint.load path) in
        check "a still done" true (Hashtbl.mem ids "a");
        check "b still retries" false (Hashtbl.mem ids "b");
        (* the poisoned marker — what `occo serve --resume` greps for —
           must survive compaction verbatim *)
        check "c still poisoned" true
          (List.exists
             (fun e ->
               e.Checkpoint.e_id = "c" && e.Checkpoint.e_status = "poisoned")
             (Checkpoint.load path)));
  ]

(* ------------------------------------------------------------------ *)
(* Breaker under the service admission loop                           *)
(* ------------------------------------------------------------------ *)

(* The supervisor loop calls [allow] once per queued job each launch
   round and [record] when the worker concludes. These tests drive the
   breaker exactly that way, with a simulated clock. *)
let breaker_service_tests =
  [
    Alcotest.test_case "open breaker sheds a whole queued burst" `Quick
      (fun () ->
        let b = Breaker.create ~threshold:2 ~cooldown_us:1_000. "svc" in
        Breaker.record b ~now_us:0. ~ok:false;
        Breaker.record b ~now_us:10. ~ok:false;
        (* six requests queued while open: every admission check fails *)
        let admitted =
          List.filter (fun t -> Breaker.allow b ~now_us:t)
            [ 20.; 30.; 40.; 50.; 60.; 70. ]
        in
        check_int "all shed" 0 (List.length admitted));
    Alcotest.test_case
      "half-open: one probe from a burst of queued requests" `Quick
      (fun () ->
        let b = Breaker.create ~threshold:2 ~cooldown_us:1_000. "svc" in
        Breaker.record b ~now_us:0. ~ok:false;
        Breaker.record b ~now_us:10. ~ok:false;
        (* cooldown elapses with five requests waiting; the same launch
           round polls allow for each of them *)
        let admitted =
          List.filter (fun t -> Breaker.allow b ~now_us:t)
            [ 1_100.; 1_101.; 1_102.; 1_103.; 1_104. ]
        in
        check_int "exactly one probe admitted" 1 (List.length admitted);
        (* probe succeeds: the next round admits everyone *)
        Breaker.record b ~now_us:1_200. ~ok:true;
        let admitted =
          List.filter (fun t -> Breaker.allow b ~now_us:t)
            [ 1_300.; 1_301.; 1_302. ]
        in
        check_int "closed again, burst admitted" 3 (List.length admitted));
    Alcotest.test_case "failed probe re-opens; queue keeps shedding" `Quick
      (fun () ->
        let b = Breaker.create ~threshold:2 ~cooldown_us:1_000. "svc" in
        Breaker.record b ~now_us:0. ~ok:false;
        Breaker.record b ~now_us:10. ~ok:false;
        check "probe admitted" true (Breaker.allow b ~now_us:1_100.);
        Breaker.record b ~now_us:1_150. ~ok:false;
        check_int "re-opened (second trip)" 2 (Breaker.trips b);
        (* the fresh cooldown is measured from the re-open, so the
           still-queued requests shed for another full window... *)
        check "sheds right after re-open" false
          (Breaker.allow b ~now_us:1_200.);
        check "sheds near the end of the window" false
          (Breaker.allow b ~now_us:2_100.);
        (* ...and only then is a second probe admitted *)
        check "second probe after the full cooldown" true
          (Breaker.allow b ~now_us:2_200.));
    Alcotest.test_case "late failure from a pre-open worker is ignored"
      `Quick (fun () ->
        (* a worker launched before the trip concludes while the
           breaker is open: its outcome must not extend the cooldown *)
        let b = Breaker.create ~threshold:1 ~cooldown_us:1_000. "svc" in
        Breaker.record b ~now_us:0. ~ok:false;
        Breaker.record b ~now_us:500. ~ok:false;
        check "probe timing unaffected by the late failure" true
          (Breaker.allow b ~now_us:1_100.));
  ]

(* ------------------------------------------------------------------ *)
(* Worker                                                             *)
(* ------------------------------------------------------------------ *)

let worker_tests =
  [
    Alcotest.test_case "a healthy job's result crosses the pipe" `Quick
      (fun () ->
        match Worker.run (fun () -> Ok (6 * 7)) with
        | Worker.Returned (Ok 42) -> ()
        | _ -> Alcotest.fail "expected Returned (Ok 42)");
    Alcotest.test_case "a structured Error is a result, not a crash" `Quick
      (fun () ->
        let d =
          Diag.make ~phase:Diag.Batch ~kind:Diag.Validation_failure "no"
        in
        match Worker.run (fun () -> Error d) with
        | Worker.Returned (Error d') ->
          check "kind survives marshaling" true
            (d'.Diag.kind = Diag.Validation_failure)
        | _ -> Alcotest.fail "expected Returned (Error _)");
    Alcotest.test_case "an uncaught exception becomes a diagnostic" `Quick
      (fun () ->
        match Worker.run (fun () -> failwith "boom") with
        | Worker.Returned (Error d) ->
          check "internal error" true (d.Diag.kind = Diag.Internal_error)
        | _ -> Alcotest.fail "expected Returned (Error _)");
    Alcotest.test_case "kill -9 in the child is classified as a crash" `Quick
      (fun () ->
        match
          Worker.run (fun () ->
              Unix.kill (Unix.getpid ()) Sys.sigkill;
              Ok 0)
        with
        | Worker.Crashed why ->
          check
            (Printf.sprintf "names the signal: %s" why)
            true
            (why = "SIGKILL")
        | _ -> Alcotest.fail "expected Crashed");
    Alcotest.test_case "a hung job is killed at its deadline" `Quick
      (fun () ->
        match
          Worker.run ~timeout_us:200_000. (fun () ->
              while true do
                ignore (Sys.opaque_identity 0)
              done;
              Ok 0)
        with
        | Worker.Timed_out -> ()
        | _ -> Alcotest.fail "expected Timed_out");
    Alcotest.test_case "a runaway allocator trips the memory watchdog" `Quick
      (fun () ->
        match
          Worker.run ~timeout_us:20e6 ~memlimit_bytes:(32 * 1024 * 1024)
            (fun () ->
              let rec grow acc =
                grow (Array.make 65536 (List.length acc) :: acc)
              in
              grow [])
        with
        | Worker.Oom -> ()
        | _ -> Alcotest.fail "expected Oom");
  ]

(* ------------------------------------------------------------------ *)
(* Supervisor                                                         *)
(* ------------------------------------------------------------------ *)

(* Fast retry schedule so the tests don't sleep for real. *)
let fast_backoff =
  { Backoff.base_us = 1_000.; factor = 2.0; max_us = 5_000.; jitter = 0.25 }

let test_config =
  {
    Sup.default_config with
    Sup.c_backoff = fast_backoff;
    c_timeout_us = Some 20e6;
    c_seed = 1;
  }

let job ?degraded ?(cls = "test") id run =
  Sup.job ~cls ?degraded:(Option.map (fun f ~attempt:_ -> f ()) degraded) id run

let find outcomes id =
  match List.find_opt (fun o -> o.Sup.o_id = id) outcomes with
  | Some o -> o
  | None -> Alcotest.failf "no outcome for job %s" id

let supervisor_tests =
  [
    Alcotest.test_case "a worker killed -9 is retried and succeeds" `Quick
      (fun () ->
        (* Attempt 0 SIGKILLs its own worker process — the simulated
           [kill -9]; Job_crashed is transient, so the supervisor backs
           off and retries, and attempt 1 completes. *)
        let j =
          job "flaky" (fun ~attempt ->
              if attempt = 0 then Unix.kill (Unix.getpid ()) Sys.sigkill;
              Ok attempt)
        in
        let o = find (Sup.run test_config [ j ]) "flaky" in
        check "completed" true (o.Sup.o_status = Sup.Completed);
        check "payload from the retry" true (o.Sup.o_payload = Some 1);
        check_int "two launches" 2 o.Sup.o_attempts);
    Alcotest.test_case "a deterministic failure is not retried" `Quick
      (fun () ->
        let d =
          Diag.make ~phase:Diag.Batch ~kind:Diag.Validation_failure "wrong"
        in
        let j = job "det" (fun ~attempt:_ -> Error d) in
        let o = find (Sup.run test_config [ j ]) "det" in
        check "failed" true (o.Sup.o_status = Sup.Failed);
        check_int "single launch" 1 o.Sup.o_attempts;
        check "diagnostic kept" true
          (match o.Sup.o_diag with
          | Some d' -> d'.Diag.kind = Diag.Validation_failure
          | None -> false));
    Alcotest.test_case "exhausted retries fall back to the degraded run"
      `Quick (fun () ->
        let j =
          job "deg"
            ~degraded:(fun () -> Ok (-1))
            (fun ~attempt:_ ->
              Unix.kill (Unix.getpid ()) Sys.sigkill;
              Ok 0)
        in
        let cfg = { test_config with Sup.c_retries = 1 } in
        let o = find (Sup.run cfg [ j ]) "deg" in
        check "degraded" true (o.Sup.o_status = Sup.Degraded);
        check "fallback payload" true (o.Sup.o_payload = Some (-1));
        (* two crashed attempts + the degraded one *)
        check_int "three launches" 3 o.Sup.o_attempts);
    Alcotest.test_case "a failing class trips its breaker; later jobs shed"
      `Quick (fun () ->
        let d =
          Diag.make ~phase:Diag.Batch ~kind:Diag.Validation_failure "wrong"
        in
        let bad i = job (Printf.sprintf "bad%d" i) (fun ~attempt:_ -> Error d) in
        let cfg =
          {
            test_config with
            Sup.c_breaker_threshold = 2;
            c_breaker_cooldown_us = 60e6 (* stays open for the whole test *);
          }
        in
        let outcomes = Sup.run cfg (List.init 4 bad) in
        check "bad0 ran and failed" true
          ((find outcomes "bad0").Sup.o_status = Sup.Failed);
        check "bad1 ran and failed" true
          ((find outcomes "bad1").Sup.o_status = Sup.Failed);
        List.iter
          (fun id ->
            let o = find outcomes id in
            check (id ^ " shed") true (o.Sup.o_status = Sup.Shed);
            check_int (id ^ " never launched") 0 o.Sup.o_attempts;
            check (id ^ " has a circuit-open diagnostic") true
              (match o.Sup.o_diag with
              | Some d' -> d'.Diag.kind = Diag.Circuit_open
              | None -> false))
          [ "bad2"; "bad3" ];
        check "summary counts the shed jobs" true
          (Sup.count outcomes Sup.Shed = 2));
    Alcotest.test_case "journal + resume skip completed jobs after kill -9"
      `Quick (fun () ->
        let path = tmpfile "resume.jsonl" in
        (* First run: "a" completes; "b"'s worker dies by kill -9 on
           every attempt and ends Crashed — as if the batch was cut
           down mid-run. *)
        let a = job "a" (fun ~attempt:_ -> Ok 1) in
        let b_bad =
          job "b" (fun ~attempt:_ ->
              Unix.kill (Unix.getpid ()) Sys.sigkill;
              Ok 0)
        in
        let cfg =
          { test_config with Sup.c_retries = 1; c_journal = Some path }
        in
        let o1 = Sup.run cfg [ a; b_bad ] in
        check "a completed" true ((find o1 "a").Sup.o_status = Sup.Completed);
        check "b crashed" true ((find o1 "b").Sup.o_status = Sup.Crashed);
        (* the journal recorded both outcomes durably *)
        let ids = Checkpoint.completed_ids (Checkpoint.load path) in
        check "journal completed a" true (Hashtbl.mem ids "a");
        check "journal did not complete b" false (Hashtbl.mem ids "b");
        (* Resume: "a" is skipped without launching a worker; "b" —
           healthy this time — runs to completion. *)
        let b_ok = job "b" (fun ~attempt:_ -> Ok 2) in
        let cfg2 = { cfg with Sup.c_resume = true } in
        let o2 = Sup.run cfg2 [ a; b_ok ] in
        let oa = find o2 "a" and ob = find o2 "b" in
        check "a skipped" true (oa.Sup.o_status = Sup.Skipped);
        check_int "a not launched" 0 oa.Sup.o_attempts;
        check "b completed on resume" true (ob.Sup.o_status = Sup.Completed);
        check "resumed batch is all ok" true (Sup.all_ok o2);
        (* and now the journal completes b too *)
        let ids = Checkpoint.completed_ids (Checkpoint.load path) in
        check "journal completed b" true (Hashtbl.mem ids "b"));
    Alcotest.test_case "parallel workers deliver every result in order"
      `Quick (fun () ->
        let js =
          List.init 6 (fun i ->
              job (Printf.sprintf "j%d" i) (fun ~attempt:_ -> Ok (i * i)))
        in
        let cfg = { test_config with Sup.c_jobs = 3 } in
        let outcomes = Sup.run cfg js in
        check "all ok" true (Sup.all_ok outcomes);
        check "outcomes in job order" true
          (List.map (fun o -> o.Sup.o_id) outcomes
          = List.init 6 (Printf.sprintf "j%d"));
        List.iteri
          (fun i o -> check "payload" true (o.Sup.o_payload = Some (i * i)))
          outcomes);
  ]

let hang ~attempt:_ =
  while true do
    ignore (Sys.opaque_identity 0)
  done;
  Ok 0

let executor_tests =
  [
    Alcotest.test_case "a queued job past its deadline is never launched"
      `Quick (fun () ->
        (* one worker, held by a hanging job: the second job's deadline
           passes while it waits in the queue *)
        let cfg =
          {
            test_config with
            Sup.c_jobs = 1;
            c_retries = 0;
            c_timeout_us = Some 0.5e6;
          }
        in
        let late =
          Sup.job ~cls:"test" ~deadline_us:(Obs.now_us () +. 50e3) "late"
            (fun ~attempt:_ -> Ok 1)
        in
        let outcomes = Sup.run cfg [ job "hang" hang; late ] in
        let o = find outcomes "late" in
        check "failed" true (o.Sup.o_status = Sup.Failed);
        check "deadline diagnostic" true
          (match o.Sup.o_diag with
          | Some d -> d.Diag.kind = Diag.Deadline_exceeded
          | None -> false);
        check_int "never launched" 0 o.Sup.o_attempts;
        check "the hang timed out" true
          ((find outcomes "hang").Sup.o_status = Sup.Timed_out));
    Alcotest.test_case "a crash-looping job is poisoned, not degraded" `Quick
      (fun () ->
        let path = tmpfile "poison.jsonl" in
        let j =
          job "loop"
            ~degraded:(fun () -> Ok (-1))
            (fun ~attempt:_ ->
              Unix.kill (Unix.getpid ()) Sys.sigkill;
              Ok 0)
        in
        let cfg =
          {
            test_config with
            Sup.c_retries = 5;
            c_poison_threshold = Some 2;
            c_journal = Some path;
          }
        in
        let o = find (Sup.run cfg [ j ]) "loop" in
        check "poisoned" true (o.Sup.o_status = Sup.Poisoned);
        check_int "two crashed launches, no more" 2 o.Sup.o_attempts;
        check_int "both crashed" 2 o.Sup.o_crashes;
        check "journaled as poisoned" true
          (List.exists
             (fun e -> e.Checkpoint.e_status = "poisoned")
             (Checkpoint.load path)));
    Alcotest.test_case "a streaming source submits jobs until it closes"
      `Quick (fun () ->
        (* the source reads job names from a pipe, one per line *)
        let rfd, wfd = Unix.pipe () in
        let lines = "a\nb\n" in
        ignore (Unix.write_substring wfd lines 0 (String.length lines));
        Unix.close wfd;
        let live = ref true and got = ref [] in
        let source =
          {
            Sup.src_fds = (fun () -> if !live then [ rfd ] else []);
            src_ready =
              (fun exec _ ->
                let buf = Bytes.create 64 in
                match Unix.read rfd buf 0 64 with
                | 0 ->
                  live := false;
                  Unix.close rfd
                | n ->
                  String.split_on_char '\n' (Bytes.sub_string buf 0 n)
                  |> List.iter (fun id ->
                         if id <> "" then
                           Sup.submit exec
                             (Sup.job ~cls:"test" id (fun ~attempt:_ ->
                                  Ok (String.length id)))
                             (fun o -> got := o :: !got)));
            src_live = (fun () -> !live);
          }
        in
        check "no static outcomes" true (Sup.run ~source test_config [] = []);
        Alcotest.(check (list string))
          "both streamed jobs completed" [ "a"; "b" ]
          (List.sort compare
             (List.filter_map
                (fun o ->
                  if o.Sup.o_status = Sup.Completed then Some o.Sup.o_id
                  else None)
                !got)));
  ]

(* ------------------------------------------------------------------ *)
(* The campaign kernel                                                *)
(* ------------------------------------------------------------------ *)

module Campaign = Harness.Campaign

(* A four-trial campaign whose trials finish in reverse index order
   under four workers: trial [i] waits until the parent has recorded
   trial [i+1] (a marker file [on_result] creates). *)
let reverse_campaign ~dir : int Campaign.t =
  let marker i = Filename.concat dir (string_of_int i) in
  {
    Campaign.job = "rev";
    job_class = "test";
    trial =
      (fun ~seed:_ i ->
        let t0 = Unix.gettimeofday () in
        while
          i < 3
          && (not (Sys.file_exists (marker (i + 1))))
          && Unix.gettimeofday () -. t0 < 10.
        do
          Unix.sleepf 0.005
        done;
        Some i);
    record = (fun i -> close_out (open_out (marker i)));
    record_report = ignore;
    row_title = "parity";
    row_width = 8;
    rows = [ ("even", fun i -> i mod 2 = 0); ("odd", fun i -> i mod 2 = 1) ];
    totals = [ { Campaign.name = "tried"; width = 6; counts = (fun _ -> true) } ];
    rate = false;
    columns = [ { Campaign.name = "big"; width = 12; counts = (fun i -> i > 1) } ];
  }

let marker_dir name =
  let dir = Filename.temp_file "occo-campaign-" name in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  at_exit (fun () ->
      try
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Unix.rmdir dir
      with Sys_error _ | Unix.Unix_error _ -> ());
  dir

let campaign_tests =
  [
    Alcotest.test_case "supervised trials are reported in index order" `Quick
      (fun () ->
        let finished = ref [] in
        let rp, outcomes =
          Campaign.run_supervised
            (reverse_campaign ~dir:(marker_dir "rev"))
            ~on_result:(fun i -> finished := i :: !finished)
            ~cfg:{ test_config with Sup.c_jobs = 4 }
            ~seed:0 ~trials:4
        in
        check "every worker completed" true (Sup.all_ok outcomes);
        Alcotest.(check (list int))
          "the workers finished in reverse order" [ 3; 2; 1; 0 ]
          (List.rev !finished);
        Alcotest.(check (list int))
          "the report lists them by index" [ 0; 1; 2; 3 ] rp.Campaign.results);
    Alcotest.test_case "in-process and supervised runs tally alike" `Quick
      (fun () ->
        let quick =
          {
            (reverse_campaign ~dir:(marker_dir "quick")) with
            Campaign.trial = (fun ~seed:_ i -> Some i);
          }
        in
        let a = Campaign.run quick ~seed:0 ~trials:4 in
        let b, _ = Campaign.run_supervised quick ~cfg:test_config ~seed:0 ~trials:4 in
        check "same report" true (a = b);
        check "tally" true
          (Campaign.cell a ~row:"odd" ~col:"big" = Some 1
          && Campaign.cell a ~row:"even" ~col:"tried" = Some 2));
  ]

(* ------------------------------------------------------------------ *)
(* Monotonic clock (satellite: lib/obs/control.ml)                    *)
(* ------------------------------------------------------------------ *)

let clock_tests =
  [
    Alcotest.test_case "now_us never goes backwards" `Quick (fun () ->
        let prev = ref (Obs.now_us ()) in
        for _ = 1 to 10_000 do
          let t = Obs.now_us () in
          check "monotonic" true (t >= !prev);
          prev := t
        done);
  ]

let suite =
  ( "harness",
    backoff_tests @ breaker_tests @ breaker_service_tests @ checkpoint_tests
    @ compact_tests @ worker_tests @ supervisor_tests @ executor_tests
    @ campaign_tests @ clock_tests )
