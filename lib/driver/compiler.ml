(** The compiler driver: the entry points into the pass pipeline of
    {!Pipeline}.

    [compile_diag] runs the full pipeline from parsed Clight to Asm,
    keeping every intermediate program so that tests and benchmarks can
    co-execute adjacent levels (the executable counterpart of the
    per-pass simulation proofs). Every pass runs guarded: a failure is a
    structured {!Diagnostics.t} carrying the pass name and pipeline
    phase, an exception a buggy pass raises becomes an [Internal_error]
    instead of escaping, and an optional per-pass wall-clock budget is
    enforced. On failure the caller still gets the levels kept before
    the failing pass ([fail_partial]), so downstream consumers can
    degrade gracefully (dump what exists, report the diagnostic) instead
    of aborting. *)

open Support.Errors
module Errors = Support.Errors
module Diag = Support.Diagnostics
module C = Cfrontend.Csyntax

(** The pipeline as configured: {!Pipeline.full} with passes removed
    ({!Pipeline.without}) or substituted. It keeps every level, which
    {!artifacts} names. *)
type options = Pipeline.t

let all_optims = Pipeline.full
let no_optims = Pipeline.mandatory

(** Every intermediate program of the pipeline. [clight1] is the source
    (memory-resident parameters); [clight2] is after [SimplLocals]. *)
type artifacts = {
  clight1 : C.program;
  clight2 : C.program;
  csharpminor : Cfrontend.Csharpminor.program;
  cminor : Middle.Cminor.program;
  cminorsel : Middle.Cminorsel.program;
  rtl_gen : Middle.Rtl.program;  (** straight out of RTLgen *)
  rtl : Middle.Rtl.program;  (** after the optional RTL optimizations *)
  ltl : Backend.Ltl.program;
  ltl_tunneled : Backend.Ltl.program;
  linear : Backend.Linear.program;
  linear_clean : Backend.Linear.program;
  mach : Backend.Mach.program;
  asm : Backend.Asm.program;
}

(** A diagnosed compilation failure, with the levels that did build. *)
type failure = Pipeline.failure = {
  fail_diag : Diag.t;
  fail_partial : Pipeline.level list;
}

(** The name of the last pass whose output is present in a partial. *)
let partial_progress = Pipeline.progress

(** Compile to every level of the pipeline, in order. *)
let compile_levels ?(options = all_optims) ?budget_us (p : C.program) :
    (Pipeline.level list, failure) result =
  Obs.Trace.with_span "compile" @@ fun () ->
  Pipeline.run ?budget_us options Pipeline.Clight1 p

let compile_diag ?options ?budget_us (p : C.program) :
    (artifacts, failure) result =
  Result.map
    (fun levels ->
      let get ir name = Pipeline.find ir name levels in
      {
        clight1 = get Clight1 "clight1";
        clight2 = get Clight2 "clight2";
        csharpminor = get Csharpminor "csharpminor";
        cminor = get Cminor "cminor";
        cminorsel = get CminorSel "cminorsel";
        rtl_gen = get RTL "rtl_gen";
        rtl = get RTL "rtl_opt";
        ltl = get LTL "ltl";
        ltl_tunneled = get LTL "ltl_tunneled";
        linear = get Linear "linear";
        linear_clean = get Linear "linear_clean";
        mach = get Mach "mach";
        asm = get Asm "asm";
      })
    (compile_levels ?options ?budget_us p)

(** The string-error view of {!compile_diag}, kept for the many callers
    that only need the message. *)
let compile ?options (p : C.program) : artifacts Errors.t =
  Result.map_error (fun f -> Diag.to_string f.fail_diag) (compile_diag ?options p)

(** Parse a C source string as a diagnosed result: lexer and parser
    exceptions become [Parsing]-phase diagnostics instead of escaping.
    Traced, the front end runs in a [parse] span carrying the source
    size and its Gc work, and feeds the [cfrontend.parse] duration (µs)
    and [cfrontend.parse.alloc_words] histograms, as {!Pipeline.observed}
    does for passes. When [Obs.enabled] is off this costs one boolean
    test. *)
let parse_diag (src : string) : C.program Diag.r =
  let parse () =
    match Cfrontend.Cparser.parse_program src with
    | p -> Ok p
    | exception Cfrontend.Cparser.Parse_error (msg, line) ->
      Diag.error ~phase:Diag.Parsing ~kind:Diag.Syntax_error
        ~context:[ ("line", string_of_int line) ]
        "line %d: %s" line msg
    | exception Cfrontend.Clexer.Lex_error (msg, line) ->
      Diag.error ~phase:Diag.Parsing ~kind:Diag.Lexical_error
        ~context:[ ("line", string_of_int line) ]
        "line %d: %s" line msg
    | exception e -> Error (Diag.of_exn ~phase:Diag.Parsing e)
  in
  if not !Obs.enabled then parse ()
  else
    Obs.Trace.with_span "parse" (fun () ->
        Obs.Trace.add_attr "bytes" (Obs.Json.num_of_int (String.length src));
        let r, minor, major =
          Pipeline.alloc_words (fun () -> Obs.Metrics.time "cfrontend.parse" parse)
        in
        Obs.Trace.add_attr "minor_alloc_words" (Obs.Json.Num minor);
        Obs.Trace.add_attr "major_alloc_words" (Obs.Json.Num major);
        Obs.Metrics.observe "cfrontend.parse.alloc_words" (minor +. major);
        if Result.is_error r then Obs.Trace.add_attr "failed" (Obs.Json.Bool true);
        r)

(** Parse and compile a C source string, fully diagnosed. A source that
    does not parse has no levels at all. *)
let compile_source_diag ?options ?budget_us (src : string) :
    (artifacts, failure) result =
  match parse_diag src with
  | Error d -> Error { fail_diag = d; fail_partial = [] }
  | Ok p -> compile_diag ?options ?budget_us p

(** {1 Resuming the pipeline from an intermediate program}

    The fault-injection harness simulates a buggy pass by mutating one
    pass's output and recompiling everything downstream of it, so the
    mutation propagates to the final Asm exactly as a real
    miscompilation would; the compile service resumes from a cached
    RTL program. These entry points run the suffix of the pipeline from
    a kept level, with the same guards, validators and pass spans as the
    full driver (so an ill-formed mutant can already be caught here),
    and return the Mach and Asm programs. *)

let resume ~from ir p : (Backend.Mach.program * Backend.Asm.program) Errors.t =
  match Pipeline.run ~from all_optims ir p with
  | Error f -> Error (Diag.to_string f.fail_diag)
  | Ok levels -> Ok (Pipeline.find Mach "mach" levels, Pipeline.find Asm "asm" levels)

(** From a (possibly mutated) optimized RTL program: Allocation onwards. *)
let backend_from_rtl (rtl : Middle.Rtl.program) = resume ~from:"rtl_opt" RTL rtl

(** From a (possibly mutated) cleaned-up Linear program: Debugvar,
    Stacking, Asmgen. *)
let finish_from_linear (linear_clean : Backend.Linear.program) =
  resume ~from:"linear_clean" Linear linear_clean

(** Parse and compile a C source string. *)
let compile_source ?options (src : string) : artifacts Errors.t =
  match parse_diag src with
  | Error d -> Error (Diag.to_string d)
  | Ok p -> compile ?options p

(** Compile a C source string to Asm only. *)
let compile_c_to_asm ?options (src : string) : Backend.Asm.program Errors.t =
  let* arts = compile_source ?options src in
  ok arts.asm
