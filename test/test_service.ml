(** Tests for the compile service ([lib/service]): the content-addressed
    on-disk cache (atomic writes, checksum verify-on-read, quarantine of
    corrupt entries, epoch-scoped program payloads), the line-JSON wire
    protocol, the cached compile engine, and the daemon end to end —
    forked into a child process and driven over its Unix-domain socket
    through crash/hang/corruption chaos, poisoning, deadlines, overload
    shedding and graceful drain. *)

module Cache = Service.Cache
module Protocol = Service.Protocol
module Engine = Service.Engine
module Serve = Service.Serve
module Checkpoint = Harness.Checkpoint
module Sup = Harness.Supervisor
module Json = Obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tmpdir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "occo-svc-%d-%s" (Unix.getpid ()) name)
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  (try rm dir with Sys_error _ | Unix.Unix_error _ -> ());
  Unix.mkdir dir 0o755;
  at_exit (fun () -> try rm dir with Sys_error _ | Unix.Unix_error _ -> ());
  dir

let source n =
  Printf.sprintf
    "int f%d(int a, int b) { int i; int acc; acc = %d; for (i = 0; i < b; i \
     = i + 1) { acc = acc + a * i; } return acc; }\n\
     int main(void) { return f%d(%d, 5); }\n"
    n n n (n + 2)

(* ------------------------------------------------------------------ *)
(* Cache                                                              *)
(* ------------------------------------------------------------------ *)

let cache_tests =
  [
    Alcotest.test_case "put/get roundtrip verifies the checksum" `Quick
      (fun () ->
        let c = Cache.open_store (tmpdir "roundtrip") in
        let key = Cache.key_of ~source:"int main(void) { return 0; }" in
        Cache.put c ~key ~pass:"summary" ~opts:"O2" ~payload:"{\"x\":1}";
        (match Cache.get c ~key ~pass:"summary" ~opts:"O2" with
        | `Hit p -> check "payload intact" true (p = "{\"x\":1}")
        | _ -> Alcotest.fail "expected a hit");
        check_int "one entry" 1 (Cache.entry_count c));
    Alcotest.test_case "absent entries miss; options key the entry" `Quick
      (fun () ->
        let c = Cache.open_store (tmpdir "miss") in
        let key = Cache.key_of ~source:"x" in
        check "cold miss" true
          (Cache.get c ~key ~pass:"summary" ~opts:"O2" = `Miss);
        Cache.put c ~key ~pass:"summary" ~opts:"O2" ~payload:"p";
        (* same source, different options: a distinct entry *)
        check "O0 still misses" true
          (Cache.get c ~key ~pass:"summary" ~opts:"O0" = `Miss));
    Alcotest.test_case "a corrupt entry is quarantined, not served" `Quick
      (fun () ->
        let c = Cache.open_store (tmpdir "corrupt") in
        let key = Cache.key_of ~source:"y" in
        Cache.put c ~key ~pass:"summary" ~opts:"O2" ~payload:"payload";
        check "flipped a byte" true
          (Cache.corrupt_for_test c ~key ~pass:"summary" ~opts:"O2");
        (match Cache.get c ~key ~pass:"summary" ~opts:"O2" with
        | `Corrupt -> ()
        | _ -> Alcotest.fail "expected `Corrupt on first read");
        check_int "moved to quarantine" 1 (Cache.quarantined_count c);
        (* quarantined means gone from the hot path: re-derivable *)
        check "second read is a plain miss" true
          (Cache.get c ~key ~pass:"summary" ~opts:"O2" = `Miss));
    Alcotest.test_case
      "program payloads are epoch-scoped; summaries survive" `Quick
      (fun () ->
        let dir = tmpdir "epoch" in
        let a = Cache.open_store ~epoch:"session-a" dir in
        let key = Cache.key_of ~source:"z" in
        Cache.put a ~key ~pass:"rtl" ~opts:"O2" ~payload:"marshaled";
        Cache.put a ~key ~pass:"summary" ~opts:"O2" ~payload:"{}";
        (* same session: both hit *)
        check "rtl hits in-session" true
          (match Cache.get a ~key ~pass:"rtl" ~opts:"O2" with
          | `Hit _ -> true
          | _ -> false);
        (* a restarted store must not trust another session's interned
           program payloads, but portable summaries stay warm *)
        let b = Cache.open_store ~epoch:"session-b" dir in
        check "rtl is stale across sessions" true
          (Cache.get b ~key ~pass:"rtl" ~opts:"O2" = `Stale);
        check "summary survives the restart" true
          (match Cache.get b ~key ~pass:"summary" ~opts:"O2" with
          | `Hit _ -> true
          | _ -> false));
    Alcotest.test_case "open_store scrubs orphans and junk entries" `Quick
      (fun () ->
        let dir = tmpdir "scrub" in
        let c = Cache.open_store dir in
        let key = Cache.key_of ~source:"w" in
        Cache.put c ~key ~pass:"summary" ~opts:"O2" ~payload:"p";
        (* a crash mid-put leaves a tmp file; a stray write leaves junk *)
        let oc = open_out (Filename.concat dir "orphan.entry.1.tmp") in
        output_string oc "half-written";
        close_out oc;
        let oc = open_out (Filename.concat dir "junk.summary.O2.entry") in
        output_string oc "not a JSON header\n";
        close_out oc;
        let c2 = Cache.open_store dir in
        check "tmp orphan scrubbed" false
          (Sys.file_exists (Filename.concat dir "orphan.entry.1.tmp"));
        check_int "junk quarantined on the rebuild scan" 1
          (Cache.quarantined_count c2);
        check_int "the good entry survives" 1 (Cache.entry_count c2));
  ]

(* ------------------------------------------------------------------ *)
(* Protocol                                                           *)
(* ------------------------------------------------------------------ *)

let protocol_tests =
  [
    Alcotest.test_case "requests round-trip through the wire format" `Quick
      (fun () ->
        let r =
          {
            Protocol.rq_id = "r1";
            rq_op = Protocol.Compile;
            rq_source = "int main(void) { return 7; }";
            rq_optimize = false;
            rq_deadline_ms = Some 1500;
          }
        in
        let line = Json.to_string (Protocol.request_to_json r) in
        match Protocol.request_of_line line with
        | Ok r' -> check "identical" true (r' = r)
        | Error e -> Alcotest.failf "roundtrip: %s" e);
    Alcotest.test_case "sparse requests get defaults; junk is rejected"
      `Quick (fun () ->
        (match Protocol.request_of_line "{\"source\":\"int x;\"}" with
        | Ok r ->
          check "op defaults to compile" true (r.Protocol.rq_op = Protocol.Compile);
          check "optimize defaults on" true r.Protocol.rq_optimize;
          check "no deadline" true (r.Protocol.rq_deadline_ms = None)
        | Error e -> Alcotest.failf "sparse: %s" e);
        check "non-JSON rejected" true
          (Result.is_error (Protocol.request_of_line "not json at all")));
    Alcotest.test_case "replies carry status, cache tier and diagnostics"
      `Quick (fun () ->
        let ok =
          Protocol.reply ~id:"a" ~status:"ok" ~cache:"hit" ~elapsed_us:12.0 ()
        in
        check "status" true (Protocol.reply_status ok = Some "ok");
        check "cache tier" true (Protocol.reply_field ok "cache" = Some "hit");
        let failed =
          Protocol.reply ~id:"b" ~status:"failed"
            ~diag:
              (Support.Diagnostics.make ~phase:Support.Diagnostics.Service
                 ~kind:Support.Diagnostics.Deadline_exceeded "too late")
            ()
        in
        check "typed diagnostic kind" true
          (Protocol.reply_diag_kind failed = Some "deadline-exceeded"));
  ]

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let engine_tests =
  [
    Alcotest.test_case "cold miss, then summary hit, then rtl re-derive"
      `Slow (fun () ->
        let c = Cache.open_store (tmpdir "engine") in
        let src = source 100 in
        (match Engine.compile_cached c ~source:src ~optimize:true () with
        | Ok r -> check "first compile is a miss" true (r.Engine.er_cache = "miss")
        | Error d ->
          Alcotest.failf "cold: %s" (Support.Diagnostics.to_string d));
        (match Engine.compile_cached c ~source:src ~optimize:true () with
        | Ok r -> check "second is a summary hit" true (r.Engine.er_cache = "hit")
        | Error d ->
          Alcotest.failf "warm: %s" (Support.Diagnostics.to_string d));
        (* corrupt the summary: the engine must quarantine it and
           re-derive from the cached RTL (backend-only recompile) *)
        let key = Cache.key_of ~source:src in
        check "corrupted" true
          (Cache.corrupt_for_test c ~key ~pass:"summary" ~opts:"O2");
        (match Engine.compile_cached c ~source:src ~optimize:true () with
        | Ok r ->
          check "re-derived from rtl" true (r.Engine.er_cache = "rtl")
        | Error d ->
          Alcotest.failf "re-derive: %s" (Support.Diagnostics.to_string d));
        check_int "corrupt summary quarantined" 1 (Cache.quarantined_count c);
        (* the re-derived summary is cached again *)
        match Engine.compile_cached c ~source:src ~optimize:true () with
        | Ok r -> check "warm again" true (r.Engine.er_cache = "hit")
        | Error d ->
          Alcotest.failf "re-warm: %s" (Support.Diagnostics.to_string d));
    Alcotest.test_case "O0 and O2 are distinct cache lines" `Slow (fun () ->
        let c = Cache.open_store (tmpdir "engine-opts") in
        let src = source 101 in
        (match Engine.compile_cached c ~source:src ~optimize:true () with
        | Ok r -> check "O2 miss" true (r.Engine.er_cache = "miss")
        | Error d -> Alcotest.failf "O2: %s" (Support.Diagnostics.to_string d));
        match Engine.compile_cached c ~source:src ~optimize:false () with
        | Ok r ->
          check "O0 misses despite the warm O2 line" true
            (r.Engine.er_cache = "miss");
          check "reply records the tier" true (not r.Engine.er_optimized)
        | Error d -> Alcotest.failf "O0: %s" (Support.Diagnostics.to_string d));
    Alcotest.test_case "a compile failure is a diagnostic, not a cache write"
      `Quick (fun () ->
        let c = Cache.open_store (tmpdir "engine-bad") in
        (match
           Engine.compile_cached c ~source:"int main(void) { return 0 }"
             ~optimize:true ()
         with
        | Ok _ -> Alcotest.fail "expected a syntax error"
        | Error _ -> ());
        check_int "nothing cached" 0 (Cache.entry_count c));
  ]

(* ------------------------------------------------------------------ *)
(* Daemon end to end                                                  *)
(* ------------------------------------------------------------------ *)

let compile_req ?(id = "t") ?(optimize = true) ?deadline_ms src =
  {
    Protocol.rq_id = id;
    rq_op = Protocol.Compile;
    rq_source = src;
    rq_optimize = optimize;
    rq_deadline_ms = deadline_ms;
  }

let op_req op = { (compile_req "") with Protocol.rq_op = op }

let must ~socket req =
  match Serve.request ~socket req with
  | Ok j -> j
  | Error e -> Alcotest.failf "request: %s" e

let status j = Option.value ~default:"?" (Protocol.reply_status j)
let cache_tier j = Option.value ~default:"?" (Protocol.reply_field j "cache")
let diag_kind j = Option.value ~default:"?" (Protocol.reply_diag_kind j)

let wait_exit0 name pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> Alcotest.failf "%s: daemon exited %d" name n
  | _, Unix.WSIGNALED s -> Alcotest.failf "%s: daemon killed by signal %d" name s
  | _, Unix.WSTOPPED _ -> Alcotest.failf "%s: daemon stopped" name

(* Fork the daemon into a child process (as `occo serve` would run it);
   the tests drive it through its socket with [Serve.request] and watch
   the exit status through SIGTERM / shutdown. *)
let spawn_daemon cfg ~dir =
  let socket = Filename.concat dir "d.sock" in
  let cfg =
    { cfg with Serve.s_socket = socket;
      s_cache_dir = Filename.concat dir "cache" }
  in
  let pid = Unix.fork () in
  if pid = 0 then begin
    (* metrics always on, as under [occo serve] *)
    Obs.reset_all ();
    Obs.enabled := true;
    (try ignore (Serve.serve cfg) with _ -> Unix._exit 2);
    Unix._exit 0
  end
  else (pid, socket)

(* The default daemon config with [f] applied to its executor config. *)
let with_sup f =
  {
    Serve.default_config with
    Serve.s_supervisor = f Serve.default_config.Serve.s_supervisor;
  }

let serve_tests =
  [
    Alcotest.test_case
      "compile, warm hit, SIGTERM drain, compacted journal" `Slow (fun () ->
        let dir = tmpdir "e2e-basic" in
        let journal = Filename.concat dir "journal.jsonl" in
        let cfg = with_sup (fun c -> { c with Sup.c_journal = Some journal }) in
        let pid, socket = spawn_daemon cfg ~dir in
        Fun.protect
          ~finally:(fun () ->
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          (fun () ->
            let src = source 1 in
            let r1 = must ~socket (compile_req src) in
            check "first compile ok" true (status r1 = "ok");
            check "cold path" true (cache_tier r1 = "miss");
            let r2 = must ~socket (compile_req src) in
            check "second compile ok" true (status r2 = "ok");
            check "warm summary hit" true (cache_tier r2 = "hit");
            check "ping answers" true
              (status (must ~socket (op_req Protocol.Ping)) = "pong");
            (* graceful drain: finish in flight, flush, exit 0 *)
            Unix.kill pid Sys.sigterm;
            wait_exit0 "basic" pid;
            check "socket unlinked on exit" false (Sys.file_exists socket);
            (* the journal was compacted on clean shutdown: one
               last-status line per request id, every one completed *)
            let entries = Checkpoint.load journal in
            check "journal non-empty" true (entries <> []);
            let ids = List.map (fun e -> e.Checkpoint.e_id) entries in
            check "one line per request after compaction" true
              (List.sort_uniq compare ids = List.sort compare ids);
            check "every entry completed" true
              (List.for_all
                 (fun e -> e.Checkpoint.e_status = "ok")
                 entries)));
    Alcotest.test_case "crash+hang chaos: the request still completes" `Slow
      (fun () ->
        let cfg =
          {
            (with_sup (fun c ->
                 { c with Sup.c_timeout_us = Some 0.5e6; c_retries = 3 }))
            with
            Serve.s_chaos =
              { Serve.no_chaos with Serve.ch_crash = true; ch_hang = true };
          }
        in
        let dir = tmpdir "e2e-chaos" in
        let pid, socket = spawn_daemon cfg ~dir in
        Fun.protect
          ~finally:(fun () ->
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          (fun () ->
            (* attempt 0 SIGSEGVs, attempt 1 hangs until the watchdog
               kills it, attempt 2 compiles: the client just sees ok *)
            let r = must ~socket (compile_req (source 2)) in
            check "survived crash then hang" true (status r = "ok");
            Unix.kill pid Sys.sigterm;
            wait_exit0 "chaos" pid));
    Alcotest.test_case
      "corrupt cache entry: quarantined and re-derived, never served" `Slow
      (fun () ->
        let cfg =
          {
            Serve.default_config with
            Serve.s_chaos = { Serve.no_chaos with Serve.ch_corrupt = true };
          }
        in
        let dir = tmpdir "e2e-corrupt" in
        let pid, socket = spawn_daemon cfg ~dir in
        Fun.protect
          ~finally:(fun () ->
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          (fun () ->
            let src = source 3 in
            let r1 = must ~socket (compile_req src) in
            check "first compile ok" true (status r1 = "ok");
            (* chaos corrupted the summary it just wrote: the repeat
               must detect it and re-derive instead of serving junk *)
            let r2 = must ~socket (compile_req src) in
            check "re-derived ok" true (status r2 = "ok");
            check "not served from the corrupt summary" true
              (cache_tier r2 <> "hit");
            Unix.kill pid Sys.sigterm;
            wait_exit0 "corrupt" pid;
            let c =
              Cache.open_store ~epoch:"inspect"
                (Filename.concat dir "cache")
            in
            check "at least one quarantined entry" true
              (Cache.quarantined_count c >= 1)));
    Alcotest.test_case "poison: crash-looping request quarantined; \
                        survives --resume" `Slow (fun () ->
        let dir = tmpdir "e2e-poison" in
        let journal = Filename.concat dir "journal.jsonl" in
        let chaos_cfg =
          {
            (with_sup (fun c ->
                 {
                   c with
                   Sup.c_journal = Some journal;
                   c_retries = 4;
                   c_poison_threshold = Some 2;
                 }))
            with
            Serve.s_chaos =
              { Serve.no_chaos with Serve.ch_crash = true;
                ch_crash_forever = true };
          }
        in
        let pid, socket = spawn_daemon chaos_cfg ~dir in
        let src = source 4 in
        Fun.protect
          ~finally:(fun () ->
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          (fun () ->
            let r = must ~socket (compile_req src) in
            check "poisoned, not crash-looped" true (status r = "poisoned");
            check "typed diagnostic" true (diag_kind r = "poisoned");
            (* repeats are rejected instantly, no worker spawned *)
            let r2 = must ~socket (compile_req src) in
            check "instant reject" true (status r2 = "poisoned");
            Unix.kill pid Sys.sigterm;
            wait_exit0 "poison" pid);
        (* restart healthy (no chaos) with --resume: the poison set is
           reloaded from the journal, so the request stays quarantined
           rather than crash-looping a fresh daemon *)
        let resumed =
          with_sup (fun c ->
              { c with Sup.c_journal = Some journal; c_resume = true })
        in
        let pid, socket = spawn_daemon resumed ~dir in
        Fun.protect
          ~finally:(fun () ->
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          (fun () ->
            let r = must ~socket (compile_req src) in
            check "still poisoned after restart" true (status r = "poisoned");
            (* but the daemon itself is healthy for other work *)
            let r2 = must ~socket (compile_req (source 5)) in
            check "fresh work compiles" true (status r2 = "ok");
            Unix.kill pid Sys.sigterm;
            wait_exit0 "resume" pid));
    Alcotest.test_case "poison after the -O0 lifeline: repeats rejected"
      `Slow (fun () ->
        (* no retries: the first crash goes straight to the -O0
           lifeline, the second reaches the poison threshold; the
           quarantine must still cover the request as admitted *)
        let cfg =
          {
            (with_sup (fun c ->
                 { c with Sup.c_retries = 0; c_poison_threshold = Some 2 }))
            with
            Serve.s_chaos =
              { Serve.no_chaos with Serve.ch_crash = true;
                ch_crash_forever = true };
          }
        in
        let dir = tmpdir "e2e-poison-degraded" in
        let pid, socket = spawn_daemon cfg ~dir in
        Fun.protect
          ~finally:(fun () ->
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          (fun () ->
            let src = source 8 in
            check "poisoned" true (status (must ~socket (compile_req src)) = "poisoned");
            check "repeat poisoned" true
              (status (must ~socket (compile_req src)) = "poisoned");
            let counter k =
              Option.bind
                (Option.bind
                   (Json.member "metrics" (must ~socket (op_req Protocol.Stats)))
                   (Json.member "counters"))
                (Json.member k)
              |> Fun.flip Option.bind Json.to_num
              |> Option.fold ~none:0 ~some:int_of_float
            in
            check_int "two worker crashes, not four" 2 (counter "serve.crashes");
            check_int "the repeat never reached a worker" 1
              (counter "serve.poisoned_rejects");
            Unix.kill pid Sys.sigterm;
            wait_exit0 "poison-degraded" pid));
    Alcotest.test_case "degrade watermark: optimized work drops to -O0"
      `Slow (fun () ->
        let dir = tmpdir "e2e-watermark" in
        let journal = Filename.concat dir "journal.jsonl" in
        let cfg =
          {
            (with_sup (fun c -> { c with Sup.c_journal = Some journal })) with
            Serve.s_degrade_watermark = 0;
          }
        in
        let pid, socket = spawn_daemon cfg ~dir in
        Fun.protect
          ~finally:(fun () ->
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          (fun () ->
            let r = must ~socket (compile_req (source 9)) in
            check "degraded reply" true (status r = "degraded");
            Unix.kill pid Sys.sigterm;
            wait_exit0 "watermark" pid;
            check "journaled degraded" true
              (List.map (fun e -> e.Checkpoint.e_status) (Checkpoint.load journal)
              = [ "degraded" ])));
    Alcotest.test_case "deadline exceeded end to end" `Slow (fun () ->
        let cfg =
          {
            Serve.default_config with
            Serve.s_chaos = { Serve.no_chaos with Serve.ch_hang = true };
          }
        in
        let dir = tmpdir "e2e-deadline" in
        let pid, socket = spawn_daemon cfg ~dir in
        Fun.protect
          ~finally:(fun () ->
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          (fun () ->
            let r =
              must ~socket (compile_req ~deadline_ms:300 (source 6))
            in
            check "failed, not wedged" true (status r = "failed");
            check "typed deadline diagnostic" true
              (diag_kind r = "deadline-exceeded");
            Unix.kill pid Sys.sigterm;
            wait_exit0 "deadline" pid));
    Alcotest.test_case "overload: beyond the queue cap, requests shed"
      `Slow (fun () ->
        let cfg = { Serve.default_config with Serve.s_queue_cap = 0 } in
        let dir = tmpdir "e2e-shed" in
        let pid, socket = spawn_daemon cfg ~dir in
        Fun.protect
          ~finally:(fun () ->
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          (fun () ->
            let r = must ~socket (compile_req (source 7)) in
            check "shed" true (status r = "shed");
            check "typed overload diagnostic" true
              (diag_kind r = "overloaded");
            (* shedding is load protection, not a crash *)
            check "daemon still answers" true
              (status (must ~socket (op_req Protocol.Ping)) = "pong");
            Unix.kill pid Sys.sigterm;
            wait_exit0 "shed" pid));
    Alcotest.test_case "shutdown op drains like SIGTERM" `Slow (fun () ->
        let dir = tmpdir "e2e-shutdown" in
        let pid, socket = spawn_daemon Serve.default_config ~dir in
        Fun.protect
          ~finally:(fun () ->
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          (fun () ->
            let r = must ~socket (op_req Protocol.Shutdown) in
            check "acknowledged" true (status r = "draining");
            wait_exit0 "shutdown" pid));
  ]

let suite =
  ( "service",
    cache_tests @ protocol_tests @ engine_tests @ serve_tests )
