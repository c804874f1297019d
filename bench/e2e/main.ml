(** The end-to-end benchmark (see bench/e2e/README.md).

    {v main.exe --workload W --seed N --seconds S --trace 0|1 [--self-test] v}

    Runs one workload in this process, from the root of the repository.
    With [--trace 0] it sets the workload up three times (the median is
    [setup_s]), warms up for two seconds, measures for [S] seconds with
    tracing off, and prints the end-to-end metrics. With [--trace 1] it
    sets up once with tracing on, measures [S/2] seconds untraced and
    [S/2] seconds traced, runs the layer probes, writes
    [bench-e2e-out/trace-W.json] and [bench-e2e-out/layers-W.json], and
    prints the per-layer metrics. The last line of standard output is
    the result as one JSON object. *)

module Json = Obs.Json

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  self_test : bool;
}

let workloads = [ "compile"; "run-loops"; "run-calls"; "verify"; "serve" ]
let out_dir = "bench-e2e-out"
let warmup_s = 2.
let serve_rate = 200.

let usage () =
  prerr_endline
    "usage: main.exe --workload (compile|run-loops|run-calls|verify|serve) \
     --seed N --seconds S --trace 0|1 [--self-test]";
  exit 2

let parse_args () =
  let rec go acc = function
    | "--workload" :: w :: rest when List.mem w workloads ->
      go { acc with workload = w } rest
    | "--seed" :: n :: rest -> go { acc with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { acc with seconds = float_of_string s } rest
    | "--trace" :: t :: rest -> go { acc with trace = t = "1" } rest
    | "--self-test" :: rest -> go { acc with self_test = true } rest
    | [] -> acc
    | _ -> usage ()
  in
  match
    go
      { workload = ""; seed = 1; seconds = 10.; trace = false; self_test = false }
      (List.tl (Array.to_list Sys.argv))
  with
  | { workload = ""; _ } -> usage ()
  | a when a.seconds <= 0. -> usage ()
  | a -> a
  | exception Failure _ -> usage ()

(** [occo]'s GC settings (a 16 MB minor heap), unless [OCAMLRUNPARAM]
    is set: the nursery size alone moves call-heavy tail latencies by a
    third. *)
let tune_gc () =
  if Option.is_none (Sys.getenv_opt "OCAMLRUNPARAM") then
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 }

let command_line cmd =
  match Unix.open_process_in cmd with
  | ic ->
    let l = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    l
  | exception Unix.Unix_error _ -> ""

let meta (a : args) =
  let g = Gc.get () in
  Json.Obj
    [
      ("workload", Json.Str a.workload);
      ("seed", Json.num_of_int a.seed);
      ("seconds", Json.Num a.seconds);
      ("trace", Json.Bool a.trace);
      ( "git_rev",
        Json.Str
          (if Sys.file_exists ".git" then command_line "git rev-parse --short HEAD"
           else "unknown") );
      ("nproc", Json.Str (command_line "nproc"));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("minor_heap_words", Json.num_of_int g.Gc.minor_heap_size);
      ("space_overhead", Json.num_of_int g.Gc.space_overhead);
      ( "ocamlrunparam",
        Json.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")) );
    ]

(** {1 Workloads} *)

type instance =
  | Closed of Closed.t * float  (** the op, and the share of draws dropped *)
  | Serve of Serve_load.env

let build (a : args) ~dir (c : Corpus.t) =
  let seed = a.seed and self_test = a.self_test in
  match a.workload with
  | "compile" -> Closed (Workloads.compile ~seed ~self_test c, 0.)
  | "run-loops" -> Closed (Workloads.run_loops ~seed ~self_test c, 0.)
  | "run-calls" -> Closed (Workloads.run_calls ~seed ~self_test c, 0.)
  | "verify" ->
    let v = Workloads.verify ~seed ~self_test in
    Closed (v.Workloads.v_closed, v.Workloads.v_excluded)
  | _ ->
    Serve
      (Serve_load.setup ~dir:(Filename.concat dir "serve") ~seed ~self_test
         ~n_warm:32 ~n_rtl:64 ~n_cold:256)

let teardown = function Serve e -> Serve_load.teardown e | Closed _ -> ()

(** Set up [n] times, keeping the last instance; returns the set-up
    times in reference seconds (see {!Stats.in_reference_s}): in wall
    seconds, the median of three set-ups moved by 31% between two sets
    of runs of the same code. *)
let setup (a : args) ~dir ~n =
  let once () =
    let (c, inst), dt =
      Stats.in_reference_s (fun () ->
          let c = Corpus.check () in
          (c, build a ~dir c))
    in
    (dt, c, inst)
  in
  let rec go k times =
    let dt, c, inst = once () in
    if k >= n then (List.rev (dt :: times), c, inst)
    else begin
      teardown inst;
      go (k + 1) (dt :: times)
    end
  in
  go 1 []

(** {1 Output} *)

type metric = {
  name : string;
  value : float;
  unit : string;
  n : int option;  (** samples behind the value *)
  raw : float option;  (** the raw median in milliseconds *)
}

let m ?n ?raw name value unit = { name; value; unit; n; raw }

let metrics_json ?(with_n = false) (ms : metric list) =
  Json.Obj
    (List.map
       (fun x ->
         ( x.name,
           Json.Obj
             ([ ("value", Json.Num x.value); ("unit", Json.Str x.unit) ]
             @
             match x.n with
             | Some n when with_n -> [ ("n", Json.num_of_int n) ]
             | _ -> []) ))
       ms)

let result_json ~correct ~attempted ~failed (ms : metric list) =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.num_of_int attempted);
      ("failed", Json.num_of_int failed);
      ("metrics", metrics_json ms);
    ]

let print (a : args) ~correct ~attempted ~failed (ms : metric list) =
  Printf.printf "meta: %s\n" (Json.to_string (meta a));
  Printf.printf "%s: attempted %d, failed %d, outputs %s\n" a.workload attempted
    failed
    (if correct then "correct" else "WRONG");
  List.iter
    (fun x ->
      Printf.printf "  %-36s %14.6g %-8s%s%s\n" x.name x.value x.unit
        (match x.n with Some n -> Printf.sprintf " n=%d" n | None -> "")
        (match x.raw with Some r -> Printf.sprintf " ms=%.6g" r | None -> ""))
    ms;
  print_endline
    (Json.to_string (result_json ~correct ~attempted ~failed ms)
    |> String.map (fun c -> if c = '\n' then ' ' else c))

let ms_of s = s *. 1e3

(** [reading] is the phase's median op time and ops per second, in
    reference time for the closed loops (see {!Stats.read}) and as
    measured for serve (see {!Serve_load.read}); [lat] holds its raw op
    times, whose median is shown as [ms=]. [setup_s] holds the set-ups'
    times in reference seconds. *)
let end_to_end ~setup_s ~(c : Corpus.t) ~reading:(p50, rate) ~lat ~rss =
  [
    m ~n:(List.length setup_s) "setup_s" (Stats.median_of setup_s) "s";
    m ~n:(Stats.count lat) ~raw:(ms_of (Stats.median lat)) "latency_ref_ms.p50" (ms_of p50)
      "ref_ms";
    m "throughput_per_ref_s" rate "1/ref_s";
    m "code_size" (float_of_int c.Corpus.code_size) "instrs";
    m "dyn_instrs" (float_of_int c.Corpus.dyn_instrs) "instrs";
    m "peak_rss_mb" rss "MB";
  ]

(** {1 Per-layer metrics} *)

let samples name =
  Option.value (Hashtbl.find_opt Layer.samples name) ~default:(Stats.create ())

let count name = Stats.count (samples name)
let p50 name = Stats.median (samples name)
let mean name = Stats.mean (samples name)
let sum name = Stats.sum (samples name)

let mean_of (xs : (string * float) list) =
  List.fold_left (fun acc (_, v) -> acc +. v) 0. xs /. float_of_int (List.length xs)

let hist_mean name =
  match Obs.Metrics.histogram_stats name with
  | Some s -> s.Obs.Metrics.mean
  | None -> nan

(* The [pass.*] duration histograms [Driver.Compiler] records, as sum/count. *)
let pass_metrics () =
  Obs.Metrics.histogram_names ()
  |> List.filter (fun k ->
         String.starts_with ~prefix:"pass." k && not (String.ends_with ~suffix:"_words" k))
  |> List.map (fun k -> m (k ^ ".us_mean") (hist_mean k) "us")

(* The [run:<language>] spans of [Obs_lts]; compositions, whose names are
   not metric names, are left out. *)
let run_metrics () =
  let plain = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' -> true | _ -> false in
  Hashtbl.fold (fun k _ acc -> k :: acc) Layer.samples []
  |> List.filter (fun k -> String.starts_with ~prefix:"run." k && String.for_all plain k)
  |> List.sort compare
  |> List.map (fun k -> m ~n:(count k) (k ^ ".us_mean") (mean k) "us")

let interp_metrics (c : Corpus.t) =
  let instrs = mean_of (Layer.noted "asm.instrs") in
  let transitions = mean_of (Layer.noted "asm.transitions") in
  let dc_lookups, dc_misses = Backend.Asm.decode_cache_stats () in
  let alloc_free = p50 "mem.alloc_free" in
  let frames = Layer.noted "mem.frames" in
  let pushes = Layer.noted "hcomp.pushes" in
  let fig5 kind = p50 ("query.fig5_driver/" ^ kind) in
  [
    m ~n:(count "callconv.fwd_query") "callconv.fwd_query_us.p50" (p50 "callconv.fwd_query")
      "us";
    m "callconv.bwd_reply_us.p50" (p50 "callconv.bwd_reply") "us";
    m ~n:(count "asm.init") "asm.init_us.p50" (p50 "asm.init") "us";
    m "asm.transitions_per_query" transitions "count";
    m "asm.instrs_per_transition" (instrs /. transitions) "ratio";
    m "asm.ns_per_instr" (sum "asm.run_us" *. 1e3 /. sum "asm.instrs") "ns";
    m ~n:dc_lookups "asm.decode_cache.hit_rate"
      (float_of_int (dc_lookups - dc_misses) /. float_of_int (max 1 dc_lookups))
      "ratio";
    m "asm.minor_words_per_query"
      (mean_of (List.map (fun r -> (r.Corpus.r_name, r.Corpus.r_words)) c.Corpus.runnables))
      "words";
    m "mem.frames_per_query" (mean_of frames) "count";
    m ~n:(count "mem.alloc_free") "mem.alloc_free_us.p50" alloc_free "us";
    m "mem.frame_share"
      (List.fold_left (fun acc (_, f) -> acc +. (f *. alloc_free)) 0. frames
      /. List.fold_left (fun acc (q, _) -> acc +. p50 ("query." ^ q)) 0. frames)
      "ratio";
    m "hcomp.push_per_query"
      (mean_of (List.filter (fun (q, _) -> String.ends_with ~suffix:"/hcomp" q) pushes))
      "count";
    m "hcomp.us_per_push"
      ((fig5 "hcomp" -. fig5 "linked")
      /. Option.value (List.assoc_opt "fig5_driver/hcomp" pushes) ~default:nan)
      "us";
    m ~n:(count "query.fig5_driver/linked") "hcomp.linked_ms.p50"
      (fig5 "linked" /. 1e3) "ms";
    m "hcomp.overhead" (fig5 "hcomp" /. fig5 "linked") "ratio";
  ]

let serve_metrics (ph : Serve_load.phase) ~rss_growth =
  let c = Serve_load.counter ph in
  let ms_p q (t : Stats.t) = ms_of (Stats.quantile t q) in
  let tier i name =
    let t = ph.Serve_load.by_tier.(i) in
    m ~n:(Stats.count t) ("serve." ^ name ^ "_ms.p50") (ms_p 0.5 t) "ms"
  in
  [
    tier 0 "warm";
    tier 1 "rtl";
    tier 2 "cold";
    m ~n:(Stats.count ph.Serve_load.server) "serve.server_ms.p50"
      (ms_p 0.5 ph.Serve_load.server) "ms";
    m "serve.server_ms.p99" (ms_p 0.99 ph.Serve_load.server) "ms";
    m "serve.client_overhead_ms.p50" (ms_p 0.5 ph.Serve_load.overhead) "ms";
    m "serve.cache.hit" (c "serve.cache.hit") "count";
    m "serve.cache.rtl_hit" (c "serve.cache.rtl_hit") "count";
    m "serve.cache.miss" (c "serve.cache.miss") "count";
    m "serve.retries" (c "serve.retries") "count";
    m "serve.crashes" (c "serve.crashes") "count";
    m "serve.shed" (c "serve.shed.overload" +. c "serve.shed.breaker") "count";
    m "serve.degraded" (c "serve.degraded") "count";
    m "serve.queue_depth_max" ph.Serve_load.queue_max "count";
    m "serve.daemon_rss_growth_mb" rss_growth "MB";
  ]

(* Every traced run ends with the same probes, so each per-layer metric
   has a value on every workload: twenty traced runs of every corpus
   query, fork/reap of no-op workers and [occo compile] processes. *)
let probes ~dir (c : Corpus.t) =
  List.iter
    (fun r ->
      for _ = 1 to 20 do
        ignore (Layer.with_op ~workload:"probe" (fun () -> Corpus.run_traced r));
        Layer.record "mem.alloc_free" (Corpus.alloc_free_us r ~n:1000)
      done)
    c.Corpus.runnables;
  let fork = Probes.fork_reap ~n:20 in
  Layer.harvest ~op:0;
  let trivial = Filename.concat dir "trivial.c" in
  Out_channel.with_open_text trivial (fun oc ->
      output_string oc "int main(void) { return 0; }\n");
  let examples =
    List.map (fun (f, _) -> Filename.concat Inputs.examples_dir f) (Inputs.examples ())
  in
  let startup = Probes.cli ~files:[ trivial ] ~n:10 in
  let cli = Probes.cli ~files:examples ~n:20 in
  let p50_ms name t = m ~n:(Stats.count t) name (ms_of (Stats.median t)) "ms" in
  [
    p50_ms "harness.fork_reap_ms.p50" fork;
    p50_ms "cli.startup_ms.p50" startup;
    p50_ms "cli_ms.p50" cli;
  ]

(* The workloads that do not load the daemon measure the service layer
   on one second of the serve mix at 50 requests per second; returns the
   phase and the daemon's RSS growth in MB. *)
let serve_probe (a : args) ~dir =
  let e =
    Serve_load.setup ~dir:(Filename.concat dir "probe") ~seed:a.seed ~self_test:false
      ~n_warm:8 ~n_rtl:8 ~n_cold:32
  in
  let ph = Serve_load.run_phase ~traced:true e (Serve_load.plan e ~rate:50. ~seconds:1.) in
  let growth = Serve_load.rss_growth e in
  Serve_load.teardown e;
  (ph, growth)

(** What a traced run measured around its phases: the untraced and
    traced readings (see {!Stats.read}), the untraced op times, and the
    load generator's numbers from the untraced phase. *)
type traced = {
  untraced : float * float;
  traced : float * float;
  untraced_lat : Stats.t;
  lateness : Stats.t;
  max_inflight : int;
  max_ok_rps : float;
  op_words : float;  (** minor words per op, untraced *)
  excluded : float;
  serve : (Serve_load.phase * float) option;  (** with the daemon's RSS growth *)
}

let per_layer (a : args) ~dir (c : Corpus.t) (t : traced) =
  let serve_ph, rss_growth =
    match t.serve with Some s -> s | None -> serve_probe a ~dir
  in
  let probe_ms = probes ~dir c in
  let compiles = count "driver.compile" in
  [
    m ~n:(count "cfrontend.parse") "cfrontend.parse_us.p50" (p50 "cfrontend.parse") "us";
    m "cfrontend.bytes_per_s"
      (sum "cfrontend.bytes" /. (sum "cfrontend.parse" /. 1e6))
      "B/s";
  ]
  @ pass_metrics ()
  @ List.map
      (fun pass ->
        m ("pass." ^ pass ^ ".alloc_words_mean")
          (hist_mean ("pass." ^ pass ^ ".alloc_words"))
          "words")
      [ "Allocation"; "AllocCheck" ]
  @ [
      m ~n:compiles "driver.compile_us_mean" (mean "driver.compile") "us";
      m "driver.glue_us_mean" (mean "driver.glue") "us";
      m "alloc.fallback_frac"
        (float_of_int (Obs.Metrics.get_counter "alloc.linear_scan_fallback")
        /. float_of_int (max 1 compiles))
        "ratio";
    ]
  @ interp_metrics c
  @ run_metrics ()
  @ [
      m ~n:(count "verify.check") "verify.check_us_mean" (mean "verify.check") "us";
      m "verify.excluded_frac" t.excluded "ratio";
      m "op.minor_words" t.op_words "words";
    ]
  @ serve_metrics serve_ph ~rss_growth
  @ probe_ms
  @ [
      m ~n:(Stats.count t.lateness) "loadgen.lateness_ms.p99"
        (ms_of (Stats.quantile t.lateness 0.99)) "ms";
      m "loadgen.max_inflight" (float_of_int t.max_inflight) "count";
      m "loadgen.max_ok_rps" t.max_ok_rps "1/s";
      m "trace.overhead_frac" ((fst t.traced /. fst t.untraced) -. 1.) "ratio";
      m ~n:(Stats.count t.untraced_lat) "latency_ms.p95"
        (ms_of (Stats.quantile t.untraced_lat 0.95)) "ms";
    ]

let traced_outputs (a : args) (ms : metric list) =
  Layer.write_chrome (Filename.concat out_dir ("trace-" ^ a.workload ^ ".json"));
  Out_channel.with_open_text
    (Filename.concat out_dir ("layers-" ^ a.workload ^ ".json"))
    (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj [ ("meta", meta a); ("metrics", metrics_json ~with_n:true ms) ])))

(* The highest rate of the ladder whose p95 stays within the limit with
   no failures, each step one second long. *)
let ladder_limit_ms = 50.

let max_ok_rps (e : Serve_load.env) =
  List.fold_left
    (fun best rate ->
      let ph = Serve_load.run_phase e (Serve_load.plan e ~rate ~seconds:1.) in
      if ph.Serve_load.failed = 0
         && ms_of (Stats.quantile ph.Serve_load.lat 0.95) <= ladder_limit_ms
      then Float.max best rate
      else best)
    0. [ 100.; 200.; 400.; 800. ]

(** {1 Running} *)

let run_closed (a : args) ~dir ~setup_s (c : Corpus.t) (w : Closed.t) ~excluded =
  let _, i = Closed.run ~seconds:warmup_s ~start:0 w in
  if not a.trace then begin
    let ph, _ = Closed.run ~seconds:a.seconds ~start:i w in
    print a ~correct:(ph.Closed.failed = 0) ~attempted:ph.Closed.attempted
      ~failed:ph.Closed.failed
      (end_to_end ~setup_s ~c ~reading:(Closed.read ph) ~lat:ph.Closed.lat
         ~rss:(Serve_load.proc_mb (Unix.getpid ()) "VmHWM"))
  end
  else begin
    let half = a.seconds /. 2. in
    let pu, i = Closed.run ~seconds:half ~start:i w in
    Obs.enabled := true;
    Backend.Asm.reset_decode_cache_stats ();
    let traced_op i = Layer.with_op ~workload:a.workload (fun () -> w.Closed.op_traced i) in
    let pt, _ =
      Closed.run ~traced:true ~seconds:half ~start:i { w with Closed.op_traced = traced_op }
    in
    let ms =
      per_layer a ~dir c
        {
          untraced = Closed.read pu;
          traced = Closed.read pt;
          untraced_lat = pu.Closed.lat;
          lateness = pu.Closed.gaps;
          max_inflight = 1;
          max_ok_rps = float_of_int pu.Closed.attempted /. pu.Closed.elapsed;
          op_words = Closed.words_per_op pu;
          excluded;
          serve = None;
        }
    in
    Obs.enabled := false;
    traced_outputs a ms;
    let failed = pt.Closed.failed + pu.Closed.failed in
    print a ~correct:(failed = 0) ~attempted:(pt.Closed.attempted + pu.Closed.attempted)
      ~failed ms
  end

let run_serve (a : args) ~dir ~setup_s (c : Corpus.t) (e : Serve_load.env) =
  let plan seconds = Serve_load.plan e ~rate:serve_rate ~seconds in
  ignore (Serve_load.run_phase e (plan warmup_s));
  if not a.trace then begin
    let ph = Serve_load.run_phase e (plan a.seconds) in
    let rss = Serve_load.proc_mb e.Serve_load.d.Serve_load.pid "VmHWM" in
    Serve_load.teardown e;
    let late = ms_of (Stats.quantile ph.Serve_load.lateness 0.99) in
    if late > 5. then
      Printf.printf "invalid run: load generator lateness p99 %.2f ms > 5 ms\n" late;
    print a ~correct:(ph.Serve_load.failed = 0 && late <= 5.)
      ~attempted:ph.Serve_load.attempted ~failed:ph.Serve_load.failed
      (end_to_end ~setup_s ~c ~reading:(Serve_load.read ph) ~lat:ph.Serve_load.lat ~rss)
  end
  else begin
    let half = a.seconds /. 2. in
    let w0 = Gc.minor_words () in
    let pu = Serve_load.run_phase e (plan half) in
    let op_words =
      (Gc.minor_words () -. w0) /. float_of_int (max 1 pu.Serve_load.attempted)
    in
    Obs.enabled := true;
    Backend.Asm.reset_decode_cache_stats ();
    let pt = Serve_load.run_phase ~traced:true e (plan half) in
    let rss_growth = Serve_load.rss_growth e in
    Obs.enabled := false;
    let max_ok_rps = max_ok_rps e in
    Serve_load.teardown e;
    Obs.enabled := true;
    let ms =
      per_layer a ~dir c
        {
          untraced = Serve_load.read pu;
          traced = Serve_load.read pt;
          untraced_lat = pu.Serve_load.lat;
          lateness = pu.Serve_load.lateness;
          max_inflight = pu.Serve_load.max_inflight;
          max_ok_rps;
          op_words;
          excluded = 0.;
          serve = Some (pt, rss_growth);
        }
    in
    Obs.enabled := false;
    traced_outputs a ms;
    let failed = pt.Serve_load.failed + pu.Serve_load.failed in
    print a ~correct:(failed = 0)
      ~attempted:(pt.Serve_load.attempted + pu.Serve_load.attempted) ~failed ms
  end

let run (a : args) =
  let dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Serve_load.rm_rf dir;
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
  Unix.mkdir dir 0o755;
  at_exit (fun () -> Serve_load.rm_rf dir);
  Obs.enabled := a.trace;
  let setup_s, c, inst = setup a ~dir ~n:(if a.trace then 1 else 3) in
  Layer.harvest ~op:0;
  Obs.enabled := false;
  (* Start every measurement from a compacted heap, so the major GC's
     pacing does not carry over from however set-up left it. *)
  Gc.compact ();
  match inst with
  | Closed (w, excluded) -> run_closed a ~dir ~setup_s c w ~excluded
  | Serve e -> run_serve a ~dir ~setup_s c e

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 2));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 2));
  tune_gc ();
  let a = parse_args () in
  match run a with
  | () -> ()
  | exception e ->
    Printf.eprintf "bench/e2e: %s failed: %s\n" a.workload (Printexc.to_string e);
    exit 1
