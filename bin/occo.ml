(** occo — the CompCertO-in-OCaml compiler driver.

    Compile a C source file through the 18-pass pipeline, optionally
    dumping intermediate representations and running the program at any
    level through the marshaled simulation conventions.

    Examples:
    {v
    occo compile file.c -dclight -drtl -dasm
    occo run file.c --level asm --entry main
    occo run file.c --level all --entry gcd --args 252,105
    occo batch dir/ --jobs 4 --journal batch.journal --resume
    occo derive
    occo table 3
    v} *)

open Support
open Memory.Mtypes
open Memory.Values
open Iface
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(** Parse a C file through the diagnosed front end and continue with the
    program; a front-end failure prints its diagnostic and exits 1. *)
let with_parsed path k =
  match Driver.Compiler.parse_diag (read_file path) with
  | Error d ->
    Format.eprintf "%s: %a@." path Diagnostics.pp d;
    1
  | Ok p -> k p

let dump_section title pp =
  Format.printf "=== %s ===@.%t@." title pp

let dump_program_with pp_fun (prog : ('f, 'v) Ast.program) fmt =
  List.iter
    (fun (id, d) ->
      match d with
      | Ast.Gfun (Ast.Internal f) ->
        Format.fprintf fmt "%a:@.%a@." Ident.pp id pp_fun f
      | _ -> ())
    prog.Ast.prog_defs

(** {1 Observability options (shared by compile and run)}

    [--trace FILE.json] records a span per executed pass (wall time,
    before/after program shape) and writes a Chrome trace-event JSON
    loadable in chrome://tracing or Perfetto; [--metrics] prints the
    metrics-registry snapshot as JSON on stdout. [OCCO_TRACE=FILE.json]
    is honored when [--trace] is absent. *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.json"
        ~env:(Cmd.Env.info "OCCO_TRACE")
        ~doc:
          "Record per-pass/per-run spans and export them as Chrome \
           trace-event JSON to $(docv) (open in chrome://tracing or \
           Perfetto).")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the metrics registry (per-pass duration histograms, \
           counters) as JSON on stdout after the command finishes.")

let with_obs trace metrics f =
  if trace = None && not metrics then f ()
  else begin
    Obs.reset_all ();
    Obs.enabled := true;
    let finish () =
      Obs.enabled := false;
      (match trace with
      | Some path -> (
        try
          Obs.Trace.export_chrome path;
          Format.eprintf "trace written to %s@." path
        with Sys_error msg -> Format.eprintf "occo: cannot write trace: %s@." msg)
      | None -> ());
      if metrics then
        Format.printf "%s@." (Obs.Json.to_string (Obs.Metrics.dump_json ()))
    in
    Fun.protect ~finally:finish f
  end

(** {1 Supervised-execution options (shared by batch, fuzz, chaos,
    compromise and serve)}

    These commands run their work as jobs of the {!Harness.Supervisor}:
    each job in a forked worker process with wall-clock (and, for
    batch and serve, memory) watchdogs, transient failures retried with
    exponential backoff + jitter, a per-class circuit breaker shedding
    load after repeated failures, and — when [--journal] is given — an
    fsync'd checkpoint journal that makes [--resume] skip the jobs a
    previous (possibly killed) run already completed. *)

module Sup = Harness.Supervisor

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Run up to $(docv) worker processes concurrently.")

let retries_arg =
  Arg.(
    value & opt int 2
    & info [ "retries" ] ~docv:"K"
        ~doc:
          "Retry a transiently-failed job (worker crash, timeout, \
           exhausted budget) up to $(docv) times with exponential \
           backoff and jitter.")

let timeout_arg =
  Arg.(
    value & opt float 120.
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-attempt wall-clock limit; a worker past it is killed and \
           the job reported as a timeout. 0 disables the watchdog.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Append each terminal job outcome to $(docv) (fsync'd \
           line-JSON). Without $(b,--resume) the journal is started \
           afresh.")

let resume_flag =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Skip jobs the $(b,--journal) already records as completed \
           (after a crash or interrupt, only the remainder runs).")

let supervisor_config ?memlimit_mb ?(breaker_threshold = 5)
    ?(breaker_cooldown_s = 2.) ?poison_threshold ~jobs ~retries ~timeout_s
    ~journal ~resume ~seed () =
  {
    Sup.default_config with
    Sup.c_jobs = jobs;
    c_retries = max 0 retries;
    c_timeout_us = (if timeout_s <= 0. then None else Some (timeout_s *. 1e6));
    c_memlimit_bytes =
      Option.map (fun mb -> mb * 1024 * 1024) memlimit_mb;
    c_breaker_threshold = breaker_threshold;
    c_breaker_cooldown_us = breaker_cooldown_s *. 1e6;
    c_poison_threshold = poison_threshold;
    c_seed = seed;
    c_journal = journal;
    c_resume = resume;
  }

(** [--resume] without a journal cannot know what to skip: a usage
    error under the documented 124 convention. *)
let check_resume ~resume ~journal k =
  if resume && journal = None then begin
    Format.eprintf "occo: --resume requires --journal FILE@.";
    124
  end
  else k ()

let pp_outcome fmt (o : 'a Sup.outcome) =
  Format.fprintf fmt "%-24s %-8s attempts=%d%s" o.Sup.o_id
    (Sup.status_name o.Sup.o_status)
    o.Sup.o_attempts
    (match o.Sup.o_diag with
    | Some d -> "  " ^ Support.Diagnostics.to_string d
    | None -> "")

(** Write a report as one JSON line; [what] names it on stderr. *)
let write_json ~cmd ~what path (j : Obs.Json.t) =
  try
    let oc = open_out path in
    output_string oc (Obs.Json.to_string j);
    output_char oc '\n';
    close_out oc;
    Format.eprintf "%s written to %s@." what path
  with Sys_error msg -> Format.eprintf "occo %s: cannot write report: %s@." cmd msg

(** Did every [what] worker complete? If not, say which did not. *)
let workers_ok ~what outcomes =
  Sup.all_ok outcomes
  || begin
    Format.printf "FAIL: a %s worker did not complete:@." what;
    List.iter
      (fun o ->
        if not (Sup.status_ok o.Sup.o_status) then
          Format.printf "  %a@." pp_outcome o)
      outcomes;
    false
  end

(** The first line of a campaign's report; returns whether the journal
    skipped any trial (a resumed campaign is held to the weaker
    "nothing judged this run escaped"). *)
let campaign_header ~title ~noun ~verb (rp : 'r Harness.Campaign.report)
    outcomes =
  let skipped = Sup.count outcomes Sup.Skipped in
  Format.printf "%s campaign: seed %d, %d %s requested, %d %s%s@." title
    rp.Harness.Campaign.seed rp.Harness.Campaign.requested noun
    (List.length rp.Harness.Campaign.results)
    verb
    (if skipped > 0 then
       Printf.sprintf " (%d skipped via --resume journal)" skipped
     else "");
  skipped > 0

(** {1 compile} *)

let compile_cmd_run file o0 dumps trace metrics =
  with_obs trace metrics @@ fun () ->
  with_parsed file @@ fun p ->
  let options =
    if o0 then Driver.Compiler.no_optims else Driver.Compiler.all_optims
  in
  match Driver.Compiler.compile ~options p with
  | Error e ->
    Format.eprintf "%s: compilation error: %s@." file e;
    1
  | Ok arts ->
    if List.mem "clight" dumps then
      dump_section "Clight (after SimplLocals)" (fun fmt ->
          Cfrontend.Cprint.pp_program fmt arts.clight2);
    if List.mem "rtl" dumps then
      dump_section "RTL (after optimizations)"
        (dump_program_with Middle.Rtl.pp_function arts.rtl);
    if List.mem "ltl" dumps then
      dump_section "LTL (after tunneling)"
        (dump_program_with Backend.Ltl.pp_function arts.ltl_tunneled);
    if List.mem "linear" dumps then
      dump_section "Linear"
        (dump_program_with Backend.Linear.pp_function arts.linear_clean);
    if List.mem "mach" dumps then
      dump_section "Mach" (dump_program_with Backend.Mach.pp_function arts.mach);
    if List.mem "asm" dumps || dumps = [] then
      dump_section "Asm" (dump_program_with Backend.Asm.pp_function arts.asm);
    0

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c")

let o0_flag = Arg.(value & flag & info [ "O0" ] ~doc:"Disable optimizations.")

let dump_flags =
  let mk name doc = Arg.(value & flag & info [ "d" ^ name ] ~doc) in
  let combine cl rtl ltl lin mach asm =
    List.filter_map
      (fun (b, n) -> if b then Some n else None)
      [ (cl, "clight"); (rtl, "rtl"); (ltl, "ltl"); (lin, "linear");
        (mach, "mach"); (asm, "asm") ]
  in
  Term.(
    const combine
    $ mk "clight" "Dump Clight after SimplLocals."
    $ mk "rtl" "Dump RTL after optimizations."
    $ mk "ltl" "Dump LTL."
    $ mk "linear" "Dump Linear."
    $ mk "mach" "Dump Mach."
    $ mk "asm" "Dump Asm.")

let compile_cmd =
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a C file and dump IRs.")
    Term.(
      const compile_cmd_run $ file_arg $ o0_flag $ dump_flags $ trace_arg
      $ metrics_flag)

(** {1 run} *)

let parse_args (spec : string) (sg : signature) : value list option =
  if spec = "" then Some []
  else
    let parts = String.split_on_char ',' spec in
    if List.length parts <> List.length sg.sig_args then None
    else
      List.fold_right
        (fun (s, t) acc ->
          match acc with
          | None -> None
          | Some vs -> (
            match t with
            | Tint -> Option.map (fun n -> Vint n :: vs) (Int32.of_string_opt s)
            | Tlong -> Option.map (fun n -> Vlong n :: vs) (Int64.of_string_opt s)
            | Tfloat -> Option.map (fun f -> Vfloat f :: vs) (float_of_string_opt s)
            | Tsingle ->
              Option.map (fun f -> Vsingle (to_single f) :: vs)
                (float_of_string_opt s)
            | Tany64 -> None))
        (List.combine parts sg.sig_args)
        (Some [])

let run_cmd_run file level entry args_spec fuel o0 trace metrics =
  with_obs trace metrics @@ fun () ->
  with_parsed file @@ fun p ->
  let symbols = Ast.prog_defs_names p in
  let options =
    if o0 then Driver.Compiler.no_optims else Driver.Compiler.all_optims
  in
  match Driver.Compiler.compile_levels ~options p with
  | Error f ->
    Format.eprintf "compilation error: %s@."
      (Diagnostics.to_string f.Driver.Compiler.fail_diag);
    1
  | Ok kept -> (
    (* Determine the entry signature from the source program. *)
    let sg =
      match Ast.find_def p (Ident.intern entry) with
      | Some (Ast.Gfun fd) ->
        Some (Ast.fundef_sig ~internal_sig:Cfrontend.Csyntax.fn_sig fd)
      | _ -> None
    in
    match sg with
    | None ->
      Format.eprintf "no function named %s@." entry;
      1
    | Some sg -> (
      match parse_args args_spec sg with
      | None ->
        Format.eprintf "bad arguments for signature %a@." pp_signature sg;
        1
      | Some args -> (
        match
          Driver.Runners.main_query ~symbols ~defs:p ~name:entry ~args ~sg ()
        with
        | None ->
          Format.eprintf "cannot build the query@.";
          1
        | Some q ->
          (* The levels [--level] can name, and the kept level each
             one runs. *)
          let levels =
            [ ("clight", "clight1"); ("rtl", "rtl_opt"); ("ltl", "ltl_tunneled");
              ("mach", "mach"); ("asm", "asm") ]
          in
          let run_level lv =
            match List.assoc_opt lv levels with
            | None -> Format.eprintf "unknown level %s@." lv
            | Some name -> (
              let l = List.find (fun l -> l.Driver.Pipeline.level = name) kept in
              match Driver.Pipeline.run_level ~symbols ~fuel q l with
              | Ok o -> Format.printf "%-8s %a@." lv Driver.Runners.pp_c_outcome o
              | Error e -> Format.printf "%-8s marshal error: %s@." lv e)
          in
          (if level = "all" then List.iter (fun (lv, _) -> run_level lv) levels
           else run_level level);
          0)))

let run_cmd =
  let level =
    Arg.(
      value
      & opt string "asm"
      & info [ "level" ] ~docv:"LEVEL"
          ~doc:"Level to run at: clight, rtl, ltl, mach, asm, or all.")
  in
  let entry =
    Arg.(value & opt string "main" & info [ "entry" ] ~docv:"NAME")
  in
  let args_spec =
    Arg.(value & opt string "" & info [ "args" ] ~docv:"V1,V2,...")
  in
  let fuel =
    Arg.(value & opt int 10_000_000 & info [ "fuel" ] ~docv:"STEPS")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a function of a compiled program at a chosen level, marshaled \
          through the simulation conventions.")
    Term.(
      const run_cmd_run $ file_arg $ level $ entry $ args_spec $ fuel $ o0_flag
      $ trace_arg $ metrics_flag)

(** {1 derive} *)

let derive_cmd =
  Cmd.v
    (Cmd.info "derive"
       ~doc:"Print the machine-checked Thm 3.8 derivation (Figs. 10-11).")
    Term.(
      const (fun () ->
          let out, inc =
            Convalg.Derive.thm_3_8
              (Driver.Pipeline.passes Driver.Compiler.all_optims)
          in
          Format.printf "%a@.@.%a@." Convalg.Derive.pp_side out
            Convalg.Derive.pp_side inc;
          if out.Convalg.Derive.ok && inc.Convalg.Derive.ok then 0 else 1)
      $ const ())

(** {1 table} *)

let table_cmd =
  Cmd.v
    (Cmd.info "table" ~doc:"Print a reproduction of a paper table (3 or 5).")
    Term.(
      const (fun n ->
          match n with
          | 3 ->
            List.iter
              (fun (p : Convalg.Derive.pass_info) ->
                Format.printf "%-14s %-12s %-12s %-18s %-18s %d@."
                  (p.pass_name ^ if p.optional then "*" else "")
                  p.pass_source p.pass_target
                  (Convalg.Cterm.to_string p.outgoing)
                  (Convalg.Cterm.to_string p.incoming)
                  (Sloccount.Sloc.measure_pass p.pass_name))
              (Driver.Pipeline.passes Driver.Compiler.all_optims);
            0
          | 5 ->
            List.iter
              (fun (name, sloc) -> Format.printf "%-55s %6d@." name sloc)
              (Sloccount.Sloc.measure_table5 ());
            0
          | _ ->
            Format.eprintf "only tables 3 and 5 are reproducible@.";
            1)
      $ Arg.(required & pos 0 (some int) None & info [] ~docv:"N"))

(** {1 fuzz} *)

(** The fuzz campaign, rewired onto the supervisor: program [i] is one
    job, generated in the worker from an RNG derived from [(seed, i)],
    so a miscompiled generator case that segfaults or diverges costs
    one worker, not the campaign — and a journal makes long runs
    resumable. *)
let fuzz_cmd_run n seed verbose jobs retries timeout_s journal resume =
  check_resume ~resume ~journal @@ fun () ->
  let seed =
    match seed with
    | Some s -> s
    | None -> truncate (Unix.gettimeofday () *. 1000.) land 0xFFFFFF
  in
  let fuzz_job i =
    Sup.job ~cls:"fuzz" (Printf.sprintf "fuzz-%05d" i) (fun ~attempt:_ ->
        let st = Random.State.make [| seed; 104729 * (i + 1) |] in
        let src =
          QCheck.Gen.generate1 ~rand:st (QCheck.gen Fuzz.Gen.arb_program)
        in
        match Driver.Differential.differential src with
        | Ok _ -> Ok None
        | Error e ->
          (* Shrink the counterexample: keep reductions that still
             parse, still have [main] and still fail the check. *)
          let small =
            Fuzz.Gen.minimize ~still_failing:Driver.Differential.still_fails src
          in
          Ok (Some (e, src, small)))
  in
  let cfg =
    supervisor_config ~jobs ~retries ~timeout_s ~journal ~resume ~seed ()
  in
  let failures = ref 0 in
  let on_outcome (o : (string * string * string) option Sup.outcome) =
    match o.Sup.o_payload with
    | Some (Some (e, src, small)) ->
      incr failures;
      Format.printf
        "=== FAILURE %d (%s) ===@.%s@.--- program ---@.%s@.--- minimized ---@.%s@.@."
        !failures o.Sup.o_id e src small
    | Some None -> if verbose then Format.printf "%s ok@." o.Sup.o_id
    | None ->
      if not (Sup.status_ok o.Sup.o_status) || verbose then
        Format.printf "%a@." pp_outcome o
  in
  let outcomes = Sup.run ~on_outcome cfg (List.init n fuzz_job) in
  Format.printf "%d programs fuzzed (seed %d), %d failures@." n seed !failures;
  if not (Sup.all_ok outcomes) then
    Format.printf "%a" Sup.pp_summary outcomes;
  if !failures = 0 && Sup.all_ok outcomes then 0 else 1

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generate random well-defined C programs and check that every \
          pipeline level refines the Clight behavior (differential testing \
          of Thm 3.8). Each program is judged in a supervised worker \
          process; see the batch options for retry/backoff, journaling \
          and resume.")
    Term.(
      const fuzz_cmd_run
      $ Arg.(value & opt int 50 & info [ "n" ] ~docv:"COUNT")
      $ Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED")
      $ Arg.(value & flag & info [ "verbose" ])
      $ jobs_arg $ retries_arg $ timeout_arg $ journal_arg $ resume_flag)

(** {1 chaos}

    The fault-injection campaign: seeded semantic mutants of the
    pipeline's own IRs pushed through the differential harness and the
    co-execution checker, plus adversarial environment oracles at the C
    and A levels. Reports a kill-rate matrix (mutant class × detector)
    and dumps survivors for triage. Exit 0 iff every must-kill-class
    mutant was killed and every chaos mode was diagnosed. *)

let chaos_cmd_run seed mutants json_out survivors_out jobs retries timeout_s
    journal resume trace metrics =
  with_obs trace metrics @@ fun () ->
  check_resume ~resume ~journal @@ fun () ->
  let module F = Faultinject.Campaign in
  (* Survivors stream out incrementally (fsync'd line-JSON), so a
     campaign killed halfway still leaves its triage artifacts. *)
  let survivors_path =
    match survivors_out with
    | Some _ -> survivors_out
    | None -> Option.map (fun p -> p ^ ".survivors.jsonl") json_out
  in
  let sw =
    Option.map
      (Harness.Checkpoint.open_journal ~truncate:(not resume))
      survivors_path
  in
  let on_result r =
    if r.F.mr_survived then
      Option.iter
        (fun w -> Harness.Checkpoint.append_json w (F.survivor_to_json r))
        sw
  in
  let cfg =
    supervisor_config ~jobs ~retries ~timeout_s ~journal ~resume ~seed ()
  in
  let result =
    Fun.protect
      ~finally:(fun () -> Option.iter Harness.Checkpoint.close sw)
      (fun () ->
        Obs.with_enabled (fun () ->
            Result.map
              (fun compiled ->
                let c = F.mutants compiled in
                let rp, outcomes =
                  Harness.Campaign.run_supervised ~on_result c ~cfg ~seed
                    ~trials:mutants
                in
                (c, rp, outcomes, F.run_chaos_modes ()))
              (F.compile_corpus ())))
  in
  match result with
  | Error d ->
    Format.eprintf "occo chaos: %a@." Support.Diagnostics.pp d;
    1
  | Ok (c, rp, outcomes, chaos) ->
    let resumed =
      campaign_header ~title:"fault-injection" ~noun:"mutants" ~verb:"tried"
        rp outcomes
    in
    Format.printf "@.%a@." (Harness.Campaign.pp_matrix c) rp;
    Format.printf "%a@." F.pp_chaos chaos;
    Format.printf "%a@." F.pp_survivors rp;
    (match survivors_path with
    | Some p -> Format.eprintf "survivors streamed to %s@." p
    | None -> ());
    Option.iter
      (fun path ->
        write_json ~cmd:"chaos" ~what:"campaign report" path (F.to_json rp chaos))
      json_out;
    let mk = if resumed then F.partial_must_kill_ok rp else F.must_kill_ok rp in
    let ck = F.chaos_ok chaos in
    if not mk then
      Format.printf "FAIL: a must-kill mutant class escaped all detectors@.";
    if not ck then
      Format.printf "FAIL: a chaos mode was not diagnosed as expected@.";
    let wk = workers_ok ~what:"mutant" outcomes in
    if mk && ck && wk then 0 else 1

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded fault-injection campaign: semantic mutants of the \
          compiler's own IRs pushed through the differential harness and \
          co-execution checker (kill-rate matrix, survivors dumped), plus \
          adversarial environment oracles that must each be diagnosed.")
    Term.(
      const chaos_cmd_run
      $ Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED")
      $ Arg.(value & opt int 60 & info [ "mutants" ] ~docv:"COUNT")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "json" ] ~docv:"FILE.json"
              ~doc:"Write the campaign report as JSON to $(docv).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "survivors" ] ~docv:"FILE.jsonl"
              ~doc:
                "Stream each survivor as a JSON line to $(docv) the moment \
                 it is found (default: $(b,--json) path + .survivors.jsonl).")
      $ jobs_arg $ retries_arg $ timeout_arg $ journal_arg $ resume_flag
      $ trace_arg $ metrics_flag)

(** {1 compromise}

    The compromised-component campaign: a correct compiled component
    linked (via horizontal composition) against synthesized adversarial
    partners that replay a recorded interaction prefix and then go
    rogue. Reports a partner-mode × safety-property survival matrix.
    Exit 0 iff every rogue partner was detected, the faithful control
    stayed undetected, and every worker completed. *)

let compromise_cmd_run seed partners multi fuel json_out jobs retries
    timeout_s journal resume inject_hang trace metrics =
  with_obs trace metrics @@ fun () ->
  check_resume ~resume ~journal @@ fun () ->
  let module R = Robust.Campaign in
  let cfg =
    supervisor_config ~jobs ~retries ~timeout_s ~journal ~resume ~seed ()
  in
  let result =
    Obs.with_enabled (fun () ->
        Result.map
          (fun compiled ->
            let c = R.partners ~fuel compiled in
            ( compiled,
              c,
              Harness.Campaign.run_supervised c ~cfg ~seed ~trials:partners
                ~extra:(if inject_hang then [ R.hang_job ] else []) ))
          (R.compile_corpus ~fuel ()))
  in
  match result with
  | Error d ->
    Format.eprintf "occo compromise: %a@." Support.Diagnostics.pp d;
    1
  | Ok (compiled, c, (rp, outcomes)) ->
    let partner_outcomes, hang_outcomes =
      List.partition (fun o -> o.Sup.o_id <> R.hang_job_id) outcomes
    in
    let resumed =
      campaign_header ~title:"compromise" ~noun:"partners" ~verb:"judged" rp
        partner_outcomes
    in
    Format.printf "@.%a@." (Harness.Campaign.pp_matrix c) rp;
    Format.printf "%a@." R.pp_failures rp;
    Option.iter
      (fun path ->
        write_json ~cmd:"compromise" ~what:"survival matrix" path (R.to_json rp))
      json_out;
    let sv = if resumed then R.partial_survival_ok rp else R.survival_ok rp in
    if not sv then
      Format.printf
        "FAIL: a partner trial missed its expectation (see above)@.";
    let wk = workers_ok ~what:"partner" partner_outcomes in
    (* The injected hang must be *classified* by the watchdog — a
       timeout verdict, not a wedged campaign. *)
    let hg =
      (not inject_hang)
      || List.exists
           (fun o -> o.Sup.o_status = Sup.Timed_out)
           hang_outcomes
    in
    if not hg then
      Format.printf
        "FAIL: the injected diverging partner was not classified as a \
         timeout@.";
    if inject_hang && hg then
      Format.printf "injected diverging partner classified as timeout: OK@.";
    (* The multi-partner arm: two synthesized partners (one faithful,
       one rogue) linked via compose_all against the correct component.
       The survival matrix must still catch every rogue mode. *)
    let mu =
      multi <= 0
      ||
      let mc = R.multi ~fuel compiled in
      let mrp =
        Obs.with_enabled (fun () ->
            Harness.Campaign.run mc ~seed ~trials:multi)
      in
      Format.printf "@.multi-partner (faithful + rogue via ⊕) matrix:@.";
      Format.printf "%a@." (Harness.Campaign.pp_matrix mc) mrp;
      Format.printf "%a@." R.pp_failures mrp;
      R.survival_ok mrp
      || begin
        Format.printf "FAIL: a multi-partner trial missed its expectation@.";
        false
      end
    in
    if sv && wk && hg && mu then 0 else 1

let compromise_cmd =
  Cmd.v
    (Cmd.info "compromise"
       ~doc:
         "Run the compromised-component campaign: link a correct compiled \
          component against synthesized adversarial partners (faithful \
          replay up to a seeded rogue activation, then wrong results, \
          callee-save clobbers, wild pointers, re-entrant call storms, \
          silent divergence, early halts) and report which safety \
          properties detect each partner mode.")
    Term.(
      const compromise_cmd_run
      $ Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED")
      $ Arg.(
          value & opt int 14
          & info [ "partners" ] ~docv:"COUNT"
              ~doc:"Number of synthesized partner trials.")
      $ Arg.(
          value & opt int 0
          & info [ "multi" ] ~docv:"COUNT"
              ~doc:
                "Additionally run $(docv) multi-partner trials: the \
                 component linked against $(i,two) synthesized partners \
                 (one faithful, one rogue) composed with compose_all; \
                 the run fails unless every rogue mode is still \
                 detected.")
      $ Arg.(
          value
          & opt int Robust.Campaign.default_fuel
          & info [ "fuel" ] ~docv:"STEPS"
              ~doc:"Step budget per composed run.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "json" ] ~docv:"FILE.json"
              ~doc:"Write the survival matrix as JSON to $(docv).")
      $ jobs_arg $ retries_arg $ timeout_arg $ journal_arg $ resume_flag
      $ Arg.(
          value & flag
          & info [ "inject-hang" ]
              ~doc:
                "Add one deliberately diverging partner worker; the run \
                 fails unless the supervisor classifies it as a timeout \
                 (CI smoke test of the watchdog).")
      $ trace_arg $ metrics_flag)

(** {1 batch}

    Run a directory of C inputs through the pipeline under the
    supervisor: process isolation, watchdogs, retry/backoff, circuit
    breaking, checkpoint/resume, and [-O0] degradation for inputs the
    optimizing pipeline cannot get through. *)

let batch_cmd_run dir jobs retries timeout_s memlimit_mb journal resume
    report_out o0 inject_crash breaker_threshold breaker_cooldown_s trace
    metrics =
  with_obs trace metrics @@ fun () ->
  check_resume ~resume ~journal @@ fun () ->
  let inputs = Driver.Batch.inputs dir in
  if inputs = [] then begin
    Format.eprintf "occo batch: no .c inputs in %s@." dir;
    1
  end
  else begin
    let cfg =
      supervisor_config ?memlimit_mb ~breaker_threshold
        ~breaker_cooldown_s ~jobs ~retries ~timeout_s ~journal ~resume
        ~seed:0 ()
    in
    let batch_jobs =
      List.map
        (fun path ->
          Driver.Batch.compile_job
            ~inject_crash:(inject_crash = Some (Filename.basename path))
            ~optimize:(not o0) path)
        inputs
    in
    let t0 = Unix.gettimeofday () in
    let on_outcome o = Format.printf "%a@." pp_outcome o in
    let outcomes = Sup.run ~on_outcome cfg batch_jobs in
    let elapsed = Unix.gettimeofday () -. t0 in
    let ran =
      List.length outcomes - Sup.count outcomes Sup.Skipped
    in
    Format.printf "%a" Sup.pp_summary outcomes;
    Format.printf "wall %.2fs (%.1f jobs/s over %d executed)@." elapsed
      (if elapsed > 0. then float_of_int ran /. elapsed else 0.)
      ran;
    Option.iter
      (fun path ->
        write_json ~cmd:"batch" ~what:"batch report" path
          (match Sup.report_to_json ~payload_to_json:Fun.id outcomes with
          | Obs.Json.Obj kvs ->
            Obs.Json.Obj
              (kvs
              @ [
                  ("elapsed_s", Obs.Json.Num elapsed);
                  ( "jobs_per_s",
                    Obs.Json.Num
                      (if elapsed > 0. then float_of_int ran /. elapsed
                       else 0.) );
                ])
          | j -> j))
      report_out;
    if Sup.all_ok outcomes then 0 else 1
  end

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Compile every .c file in a directory under the supervised \
          batch executor: each input in its own worker process with \
          wall-clock and memory watchdogs, transient failures retried \
          with backoff, repeated failures shed by a circuit breaker, \
          outcomes checkpointed to an fsync'd journal ($(b,--journal)) \
          so $(b,--resume) continues a killed run, and stubborn inputs \
          degraded to -O0 rather than dropped.")
    Term.(
      const batch_cmd_run
      $ Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR")
      $ jobs_arg $ retries_arg $ timeout_arg
      $ Arg.(
          value
          & opt (some int) None
          & info [ "memlimit" ] ~docv:"MB"
              ~doc:
                "Per-worker major-heap limit; a worker over it exits and \
                 the job is reported as resource-exhausted.")
      $ journal_arg $ resume_flag
      $ Arg.(
          value
          & opt (some string) None
          & info [ "report" ] ~docv:"FILE.json"
              ~doc:"Write the batch report (per-job outcomes) as JSON.")
      $ o0_flag
      $ Arg.(
          value
          & opt (some string) None
          & info [ "inject-crash" ] ~docv:"JOB"
              ~doc:
                "Testing hook: SIGSEGV the worker of job $(docv) on its \
                 first attempt, to exercise crash isolation and retry.")
      $ Arg.(
          value & opt int 5
          & info [ "breaker-threshold" ] ~docv:"N"
              ~doc:
                "Consecutive failures of a job class that trip its \
                 circuit breaker.")
      $ Arg.(
          value & opt float 2.
          & info [ "breaker-cooldown" ] ~docv:"SECONDS"
              ~doc:"Open time before the breaker admits a half-open probe.")
      $ trace_arg $ metrics_flag)

(** {1 bench}

    The full evaluation harness (tables, figures, pipeline and service
    benchmarks), in process. [--runs] is the sampling depth: CI runs a
    fast smoke with a small value; the dev box takes more samples. *)

let bench_cmd =
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the evaluation harness (paper tables and figures, \
          whole-pipeline and compile-service benchmarks) and write the \
          metrics snapshot to BENCH_pipeline.json in the current \
          directory.")
    Term.(
      const (fun runs -> Benchkit.Bench_main.main ~runs ())
      $ Arg.(
          value & opt int 20
          & info [ "runs" ] ~docv:"N"
              ~doc:
                "Sampling depth: instrumented pipeline runs feeding the \
                 per-pass histograms, with the per-estimate timing quota \
                 and the service warm rounds scaled proportionally. The \
                 default reproduces the historical sampling; a small \
                 $(docv) is a fast CI smoke."))

(** {1 bench-diff}

    Compare two metrics snapshots (as emitted by the bench harness or
    [--metrics]) with relative per-key thresholds; exit 1 on any
    regression. This replaces CI's old absolute microsecond budget: a
    relative gate survives runners of different speeds. *)

let bench_diff_cmd_run old_path new_path threshold_pct key_overrides
    min_delta_us =
  let load path =
    match Obs.Json.parse_opt (read_file path) with
    | Some j -> Ok j
    | None -> Error (Printf.sprintf "%s: not valid JSON" path)
    | exception Sys_error msg -> Error msg
  in
  match (load old_path, load new_path) with
  | Error msg, _ | _, Error msg ->
    Format.eprintf "occo bench-diff: %s@." msg;
    124
  | Ok baseline, Ok current ->
    let thresholds =
      List.map (fun (k, pct) -> (k, pct /. 100.)) key_overrides
    in
    let verdicts =
      Obs.Bench_diff.compare_snapshots
        ~default_threshold:(threshold_pct /. 100.)
        ~thresholds ~min_delta_us ~baseline ~current ()
    in
    Format.printf "%a" Obs.Bench_diff.pp_report verdicts;
    Format.printf "%a" Obs.Bench_diff.pp_movers verdicts;
    (match Obs.Bench_diff.only_in current baseline with
    | [] -> ()
    | fresh ->
      Format.printf "new keys (not compared): %s@."
        (String.concat ", " fresh));
    (match Obs.Bench_diff.only_in baseline current with
    | [] -> ()
    | gone ->
      Format.printf "keys gone from the new snapshot: %s@."
        (String.concat ", " gone));
    if Obs.Bench_diff.regressions verdicts = [] then 0 else 1

let bench_diff_cmd =
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two metrics snapshots (every gauge, every histogram's \
          mean_us and p99_us) with relative thresholds; exit 1 if any \
          compared key regressed, 124 if a snapshot is unreadable. Keys \
          present in only one snapshot are reported but never fail the \
          gate; the snapshots' $(b,meta) stamps are ignored.")
    Term.(
      const bench_diff_cmd_run
      $ Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.json")
      $ Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.json")
      $ Arg.(
          value & opt float 20.
          & info [ "threshold" ] ~docv:"PCT"
              ~doc:
                "Default relative increase (percent) above which a key \
                 counts as regressed.")
      $ Arg.(
          value
          & opt_all (pair ~sep:'=' string float) []
          & info [ "key" ] ~docv:"PREFIX=PCT"
              ~doc:
                "Per-key threshold override (percent); the longest \
                 matching prefix wins, so $(b,--key pass.=50) covers the \
                 pass family while $(b,--key bench.interp_asm_us=10) pins \
                 one key. Repeatable.")
      $ Arg.(
          value & opt float 10.
          & info [ "min-delta" ] ~docv:"US"
              ~doc:
                "Absolute increase floor: a key under it never regresses, \
                 keeping sub-microsecond jitter out of the gate."))

(** {1 serve / request}

    The long-running compile service and its line-protocol client. The
    daemon accepts one JSON request per line over a Unix-domain socket,
    schedules compiles onto fork-isolated workers, memoizes results in
    the content-addressed cache, and survives — by design — corrupt
    cache entries, poison jobs, overload, blown deadlines, SIGTERM and
    kill -9 (see {!Service.Serve}). *)

let socket_arg =
  Arg.(
    value & opt string "occo.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

let serve_cmd_run socket cache_dir jobs retries timeout_s memlimit_mb
    queue_cap degrade_watermark poison_threshold journal resume seed
    inject_crash inject_crash_forever inject_hang inject_corrupt metrics =
  check_resume ~resume ~journal @@ fun () ->
  (* The service's gauges and counters are its operational surface;
     they are always on while it runs ([--metrics] additionally prints
     the snapshot on clean exit). *)
  Obs.reset_all ();
  Obs.enabled := true;
  let cfg =
    {
      Service.Serve.s_socket = socket;
      s_cache_dir = cache_dir;
      s_queue_cap = max 1 queue_cap;
      s_degrade_watermark = max 1 degrade_watermark;
      s_supervisor =
        supervisor_config ?memlimit_mb
          ~breaker_threshold:
            Service.Serve.default_config.s_supervisor.Sup.c_breaker_threshold
          ~poison_threshold:(max 1 poison_threshold) ~jobs ~retries ~timeout_s
          ~journal ~resume ~seed ();
      s_chaos =
        {
          Service.Serve.ch_crash = inject_crash || inject_crash_forever;
          ch_crash_forever = inject_crash_forever;
          ch_hang = inject_hang;
          ch_corrupt = inject_corrupt;
        };
    }
  in
  Format.eprintf "occo serve: listening on %s (cache %s)@." socket cache_dir;
  let served = Service.Serve.serve cfg in
  Format.eprintf "occo serve: drained after %d request%s@." served
    (if served = 1 then "" else "s");
  if metrics then
    Format.printf "%s@." (Obs.Json.to_string (Obs.Metrics.dump_json ()));
  Obs.enabled := false;
  0

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the compile service: accept line-JSON compile requests \
          over a Unix-domain socket, schedule them onto fork-isolated \
          workers, and memoize results in a checksummed \
          content-addressed cache. Corrupt entries are quarantined and \
          re-derived; requests that repeatedly crash workers are \
          poisoned instead of retried forever; the queue is bounded \
          (overload degrades to -O0, then sheds); SIGTERM drains \
          in-flight work, compacts the journal and exits 0.")
    Term.(
      const serve_cmd_run $ socket_arg
      $ Arg.(
          value & opt string ".occo-cache"
          & info [ "cache" ] ~docv:"DIR"
              ~doc:"Content-addressed artifact cache directory.")
      $ jobs_arg $ retries_arg $ timeout_arg
      $ Arg.(
          value
          & opt (some int) None
          & info [ "memlimit" ] ~docv:"MB"
              ~doc:"Per-worker major-heap cap in megabytes.")
      $ Arg.(
          value & opt int 64
          & info [ "queue-cap" ] ~docv:"N"
              ~doc:
                "Bound on queued requests; beyond it new work is shed \
                 with an $(i,overloaded) diagnostic.")
      $ Arg.(
          value & opt int 32
          & info [ "degrade-watermark" ] ~docv:"N"
              ~doc:
                "Queue depth at which new optimized requests are \
                 degraded to the -O0 fast path.")
      $ Arg.(
          value & opt int 3
          & info [ "poison-threshold" ] ~docv:"K"
              ~doc:
                "Worker crashes after which a request is quarantined \
                 as poisoned and never retried.")
      $ journal_arg $ resume_flag
      $ Arg.(
          value & opt int 0
          & info [ "seed" ] ~docv:"SEED" ~doc:"Retry-jitter determinism seed.")
      $ Arg.(
          value & flag
          & info [ "inject-crash" ]
              ~doc:
                "Chaos: each compile's first attempt kills its own \
                 worker with SIGSEGV (retries then succeed).")
      $ Arg.(
          value & flag
          & info [ "inject-crash-forever" ]
              ~doc:
                "Chaos: every attempt crashes — drives requests into \
                 the poison-quarantine path.")
      $ Arg.(
          value & flag
          & info [ "inject-hang" ]
              ~doc:
                "Chaos: one attempt per request spins until the \
                 wall-clock watchdog kills it.")
      $ Arg.(
          value & flag
          & info [ "inject-corrupt" ]
              ~doc:
                "Chaos: flip a byte in each freshly written cache \
                 summary, forcing the verify-on-read quarantine path.")
      $ metrics_flag)

let request_cmd_run file socket o0 deadline_s ping stats shutdown repeat =
  let op =
    match (ping, stats, shutdown) with
    | true, false, false -> Some Service.Protocol.Ping
    | false, true, false -> Some Service.Protocol.Stats
    | false, false, true -> Some Service.Protocol.Shutdown
    | false, false, false -> Some Service.Protocol.Compile
    | _ -> None
  in
  match op with
  | None ->
    Format.eprintf "occo request: --ping, --stats and --shutdown are \
                    mutually exclusive@.";
    124
  | Some Service.Protocol.Compile when file = None ->
    Format.eprintf "occo request: a compile request needs FILE.c@.";
    124
  | Some op ->
    let source =
      match (op, file) with
      | Service.Protocol.Compile, Some path -> read_file path
      | _ -> ""
    in
    let ok = ref true in
    for i = 1 to max 1 repeat do
      let req =
        {
          Service.Protocol.rq_id = Printf.sprintf "cli-%d" i;
          rq_op = op;
          rq_source = source;
          rq_optimize = not o0;
          rq_deadline_ms =
            Option.map (fun s -> int_of_float (s *. 1000.)) deadline_s;
        }
      in
      match Service.Serve.request ~socket req with
      | Error msg ->
        Format.eprintf "occo request: %s@." msg;
        ok := false
      | Ok reply ->
        Format.printf "%s@." (Obs.Json.to_string reply);
        (match Service.Protocol.reply_status reply with
        | Some ("ok" | "degraded" | "pong" | "stats" | "draining") -> ()
        | _ -> ok := false)
    done;
    if !ok then 0 else 1

let request_cmd =
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one request to a running compile service and print its \
          reply line. Exit 0 if the reply status is ok/degraded (or \
          pong/stats/draining), 1 otherwise or when the daemon is \
          unreachable.")
    Term.(
      const request_cmd_run
      $ Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.c")
      $ socket_arg
      $ Arg.(
          value & flag
          & info [ "O0" ] ~doc:"Request the unoptimized pipeline.")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "deadline" ] ~docv:"SECONDS"
              ~doc:
                "End-to-end deadline enforced by the daemon, queue wait \
                 included.")
      $ Arg.(value & flag & info [ "ping" ] ~doc:"Liveness probe.")
      $ Arg.(
          value & flag
          & info [ "stats" ] ~doc:"Fetch the daemon's serve.* metrics.")
      $ Arg.(
          value & flag
          & info [ "shutdown" ] ~doc:"Ask the daemon to drain and exit.")
      $ Arg.(
          value & opt int 1
          & info [ "repeat" ] ~docv:"N"
              ~doc:"Send the request $(docv) times (throughput smoke)."))

let main =
  Cmd.group
    (Cmd.info "occo" ~version:"0.1"
       ~doc:"CompCertO in OCaml: a compiler for certified open C components.")
    [ compile_cmd; run_cmd; batch_cmd; derive_cmd; table_cmd; fuzz_cmd;
      chaos_cmd; compromise_cmd; bench_cmd; bench_diff_cmd; serve_cmd;
      request_cmd ]

(** An interrupt (SIGINT/SIGTERM) raised as an exception at the next
    safe point, so it unwinds through every [Fun.protect] on the way
    out: [with_obs] exports the trace and prints the metrics snapshot,
    the supervisor kills its workers and closes the checkpoint journal
    (each line of which was already fsync'd — the run is resumable),
    and the survivors stream is closed. Workers reset these handlers to
    the default, so a batch's children still die instantly. *)
exception Interrupted of string

let install_interrupt_handlers () =
  let arm signal name =
    try
      Sys.set_signal signal (Sys.Signal_handle (fun _ -> raise (Interrupted name)))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  arm Sys.sigint "SIGINT";
  arm Sys.sigterm "SIGTERM"

(** Exit-code contract (documented in the README):
    - 0: success;
    - 1: the command ran and failed (compilation error, refinement
      failure, batch job failed/crashed/shed, must-kill mutant escaped,
      chaos mode undiagnosed, interrupted mid-run);
    - 3: internal error — an exception escaped a command. It is turned
      into a structured diagnostic here; no raw backtrace reaches the
      user;
    - 124: command-line usage error (Cmdliner's convention, shared by
      [--resume] without [--journal]). *)
(* The pipeline is allocation-heavy even after the mutable-core work:
   a full compile churns through a few hundred kwords of short-lived
   sets, maps and closures, and the stock 256kw minor heap forces a
   minor collection every couple of passes — the pauses land inside
   whichever pass crosses the threshold and dominate its histogram.
   A larger nursery moves those collections out of the hot paths;
   OCAMLRUNPARAM still wins if the user sets one explicitly. *)
let tune_gc () =
  if Option.is_none (Sys.getenv_opt "OCAMLRUNPARAM") then
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 }

let () =
  tune_gc ();
  install_interrupt_handlers ();
  match Cmd.eval' ~catch:false main with
  | code -> exit code
  | exception Interrupted signal ->
    Format.eprintf
      "occo: interrupted by %s; sinks flushed, checkpoint journal intact \
       (use --resume)@."
      signal;
    exit 1
  | exception e ->
    let d = Support.Diagnostics.of_exn ~phase:Support.Diagnostics.Running e in
    Format.eprintf "occo: internal error: %a@." Support.Diagnostics.pp d;
    exit 3
