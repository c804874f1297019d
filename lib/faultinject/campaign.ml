(** The fault-injection campaign runner.

    A campaign pushes [n] seeded mutants — each a single semantic
    corruption of one pass's output ({!Mutate}) — through the
    verification harness and records, per mutant class and per detector,
    whether the corruption was {e killed} (detected) or {e survived}.
    The resulting kill-rate matrix quantifies how much the executable
    checkers actually constrain the pipeline, the operational analogue
    of the paper's simulation proofs.

    Detectors:

    - [pipeline]: recompiling downstream of the injection point fails —
      typically the register-allocation validator ([AllocCheck])
      rejecting the mutated RTL;
    - [differential]: some level compiled from the mutant no longer
      refines the Clight reference under the simulation conventions'
      marshaling;
    - [coexec]: the co-execution checker (the executable Fig. 6 proof)
      refutes the simulation between the source and the mutated Asm
      under [CA].

    Survivors are legitimate objects of study — a mutation of dead or
    semantically-neutral code {e should} survive — so they are dumped
    with their injection site for triage rather than treated as errors.
    The classes in {!Mutate.must_kill_classes}, however, must each be
    killed at least once; a campaign where one escapes entirely fails
    its acceptance check ({!must_kill_ok}). The campaign is an instance
    of the {!Harness.Campaign} kernel: rows are mutant classes, columns
    are detectors.

    The adversarial-environment half ({!run_chaos_modes}) subjects an
    open component to each {!Chaos_oracle.mode} and checks the harness
    {e diagnoses} the misbehavior (as [Env_stuck], [Env_violation] or
    [Out_of_fuel]) instead of crashing. *)

open Support
module Diag = Support.Diagnostics
module K = Harness.Campaign

let detectors = [ "pipeline"; "differential"; "coexec" ]

(** {1 The corpus}

    Small deterministic closed programs, chosen so every mutation class
    has sites: arithmetic with non-commutative operators and immediates
    (swap/perturb), loads and stores (drop/dup), conditional branches
    (retarget), and a call with more arguments than there are parameter
    registers, so the Linear code traffics in [Outgoing] stack slots
    (convention-slot corruption). *)
let corpus : (string * string) list =
  [
    ( "arith-branch",
      {|
int main(void) {
  int a = 41; int b = 17;
  int d = a - b;
  int q = a / 7;
  int r = a % 7;
  int s = 0;
  if (d > 20) s = d - q; else s = d + r;
  return s * 3 - b;
}
|} );
    ( "loop-memory",
      {|
int g[8];
int main(void) {
  int i;
  for (i = 0; i < 8; i++) g[i] = i * i - 3;
  int acc = 0;
  for (i = 0; i < 8; i++) acc = acc * 2 + g[i];
  return acc - 5;
}
|} );
    ( "many-args",
      {|
int wide(int a, int b, int c, int d, int e, int f, int g, int h) {
  return (a - b) + (c - d) + (e - f) + (g - h) * 2;
}
int main(void) {
  int x = wide(9, 4, 12, 5, 30, 11, 7, 2);
  int y = wide(x, 3, x / 2, 1, x % 5, 0, 6, x);
  return x + y;
}
|} );
    ( "nested-calls",
      {|
int dec(int n) { return n - 1; }
int tri(int n) {
  int acc = 0;
  while (n > 0) { acc = acc + n; n = dec(n); }
  return acc;
}
int main(void) { return tri(9) - tri(4); }
|} );
  ]

let fuel = 300_000

(** {1 Campaign records} *)

type mutant_result = {
  mr_program : string;  (** corpus program name *)
  mr_class : Mutate.mclass;
  mr_site : Mutate.site;
  mr_killed_by : (string * string) list;
      (** (detector, reason) for each detector that killed it *)
  mr_survived : bool;
}

type chaos_result = {
  cr_mode : Chaos_oracle.mode;
  cr_level : string;  (** "C" or "A" *)
  cr_outcome : string;  (** printable outcome classification *)
  cr_diagnosed : bool;
      (** the harness reported the misbehavior as a structured outcome *)
}

(** {1 Detectors} *)

(* Run a detector defensively: a detector that crashes on a mutant has
   detected it (the mutant broke an invariant the detector relies on),
   but the campaign itself must never propagate the exception. *)
let guard name f =
  match f () with
  | Some reason -> Some (name, reason)
  | None -> None
  | exception e ->
    Some (name, Printf.sprintf "detector raised: %s" (Printexc.to_string e))

let reference_outcome (arts : Driver.Compiler.artifacts) ~symbols q =
  Driver.Runners.run_c_level
    (Cfrontend.Clight.semantics ~symbols arts.Driver.Compiler.clight1)
    ~fuel q

(* The differential detector over the mutated backend: each mutated
   level, run through its simulation convention, must still refine the
   Clight reference. *)
let differential_detector ~symbols ~ref_outcome
    (levels : (string * (unit -> (Driver.Runners.c_outcome, string) result)) list)
    () : string option =
  let check (name, run) =
    match run () with
    | Error e -> Some (Printf.sprintf "%s: %s" name e)
    | Ok o ->
      if Driver.Runners.outcome_refines ref_outcome o then None
      else
        Some
          (Format.asprintf "%s does not refine the reference: %a" name
             Driver.Runners.pp_c_outcome o)
  in
  ignore symbols;
  List.find_map check levels

(* The coexec detector: source Clight (post-SimplLocals, whose memory
   is exactly the shared globals) against the mutated Asm under CA. *)
let coexec_detector ~symbols ~(clight2 : Cfrontend.Csyntax.program)
    (asm : Backend.Asm.program) q () : string option =
  let l1 = Cfrontend.Clight.semantics ~mode:`Temp_params ~symbols clight2 in
  let l2 = Backend.Asm.semantics ~symbols asm in
  match
    Core.Coexec.check ~fuel ~l1 ~l2 ~cc_in:Driver.Runners.cc_ca
      ~cc_out:Driver.Runners.cc_ca
      ~oracle:(fun _ -> None)
      q
  with
  | Core.Coexec.Pass -> None
  | Core.Coexec.Fail msg -> Some msg

(** Judge one mutant: recompile downstream of the injection point and
    run every detector. *)
let judge ~symbols ~(arts : Driver.Compiler.artifacts) ~ref_outcome ~program
    ~(cls : Mutate.mclass) ~(site : Mutate.site) q
    (mutated : [ `Rtl of Middle.Rtl.program | `Linear of Backend.Linear.program ])
    : mutant_result =
  let open Driver in
  let run ir p () = Pipeline.run_program ir ~symbols ~fuel p q in
  let recompiled, mutated_level =
    match mutated with
    | `Rtl rtl -> (Compiler.backend_from_rtl rtl, ("rtl(mutated)", run RTL rtl))
    | `Linear linear ->
      (Compiler.finish_from_linear linear, ("linear(mutated)", run Linear linear))
  in
  let pipeline_err, levels, masm =
    match recompiled with
    | Error e -> (Some e, [], None)
    | Ok (mach, asm) ->
      ( None,
        [ mutated_level; ("mach(mutated)", run Mach mach); ("asm(mutated)", run Asm asm) ],
        Some asm )
  in
  let kills =
    List.filter_map
      (fun k -> k)
      [
        (match pipeline_err with
        | Some e -> Some ("pipeline", e)
        | None -> None);
        guard "differential"
          (differential_detector ~symbols ~ref_outcome levels);
        (match masm with
        | Some asm ->
          guard "coexec"
            (coexec_detector ~symbols ~clight2:arts.Compiler.clight2 asm q)
        | None -> None);
      ]
  in
  {
    mr_program = program;
    mr_class = cls;
    mr_site = site;
    mr_killed_by = kills;
    mr_survived = kills = [];
  }

(** {1 The mutation campaign} *)

type compiled = {
  cp_name : string;
  cp_symbols : Ident.t list;
  cp_arts : Driver.Compiler.artifacts;
  cp_query : Iface.Li.c_query;
  cp_ref : Driver.Runners.c_outcome;
}

let compile_corpus () : (compiled list, Diag.t) result =
  K.prepare_corpus
    (fun (name, src) ->
      Result.map
        (fun (arts, symbols, q) ->
          { cp_name = name; cp_symbols = symbols; cp_arts = arts; cp_query = q;
            cp_ref = reference_outcome arts ~symbols q })
        (Driver.Compiler.compile_main ~name src))
    corpus

(** {1 Adversarial environments}

    Subject one open component (external calls to two primitives) to
    every chaos mode, at the C level (Clight + C oracle) and the A level
    (compiled Asm + A oracle), with the conformance checkers installed.
    Each misbehavior must come back as a structured outcome. *)

let chaos_src =
  "int env_twice(int n);\n\
   int env_out(int chan, int v);\n\
   int main(void) {\n\
  \  int acc = 0;\n\
  \  for (int i = 0; i < 4; i++) {\n\
  \    int d = env_twice(i + acc);\n\
  \    env_out(1, d);\n\
  \    acc = acc + d;\n\
  \  }\n\
  \  return acc;\n\
   }\n"

let chaos_prims () =
  let open Memory.Mtypes in
  [
    { Driver.Io_oracle.prim_name = "env_twice";
      prim_sig = { sig_args = [ Tint ]; sig_res = Some Tint };
      prim_impl =
        (fun args -> match args with [ n ] -> Int32.mul 2l n | _ -> 0l) };
    { Driver.Io_oracle.prim_name = "env_out";
      prim_sig = { sig_args = [ Tint; Tint ]; sig_res = Some Tint };
      prim_impl = (fun _ -> 0l) };
  ]

(** Expected diagnosis per mode: [Well_behaved] must complete normally;
    every other mode must be diagnosed (not crash, not complete). *)
let chaos_expectation (m : Chaos_oracle.mode) (diagnosed : bool) : bool =
  match m with
  | Chaos_oracle.Well_behaved -> not diagnosed
  | _ -> diagnosed

let run_chaos_modes () : chaos_result list =
  match Driver.Compiler.compile_main ~name:"chaos" chaos_src with
  | Error _ -> [] (* the corpus is fixed; this cannot happen *)
  | Ok (arts, symbols, q) ->
    let p = arts.Driver.Compiler.clight1 in
    List.concat_map
      (fun mode ->
        let fuel = Chaos_oracle.fuel_for mode ~fuel in
        let c_run () =
          let rec_, _ = Driver.Io_oracle.make_log () in
          let base =
            Driver.Io_oracle.c_oracle ~symbols (chaos_prims ()) rec_
          in
          Driver.Runners.run_c_level
            (Cfrontend.Clight.semantics ~symbols p)
            ~fuel
            ~oracle:(Chaos_oracle.c_chaos mode base)
            ~check_reply:Chaos_oracle.conformance_c q
        in
        let a_run () =
          let rec_, _ = Driver.Io_oracle.make_log () in
          let base =
            Driver.Io_oracle.a_oracle ~symbols (chaos_prims ()) rec_
          in
          match
            Driver.Runners.run_a_level
              (Backend.Asm.semantics ~symbols arts.Driver.Compiler.asm)
              ~fuel
              ~oracle:(Chaos_oracle.a_chaos mode base)
              ~check_reply:(Chaos_oracle.conformance_a ?sg:None)
              q
          with
          | Ok o -> o
          | Error e -> Core.Smallstep.Goes_wrong ([], "marshal: " ^ e)
        in
        let result level run =
          let outcome, diagnosed =
            match run () with
            | o -> Driver.Runners.classify_outcome o
            | exception e ->
              ("uncaught exception: " ^ Printexc.to_string e, false)
          in
          { cr_mode = mode; cr_level = level; cr_outcome = outcome;
            cr_diagnosed = diagnosed }
        in
        [ result "C" c_run; result "A" a_run ])
      Chaos_oracle.all_modes

(** {1 The campaign}

    Mutant [i] of a seeded campaign is deterministic in [(seed, i)]
    alone: its class cycles over [classes], its corpus program rotates
    with [i], and its site is drawn from an RNG derived from [seed] and
    [i] — {e not} from a state threaded through the whole run, which
    is what the {!Harness.Campaign} kernel's two runners rely on. *)

(** Attempt mutant [i]: pick class, program and site, apply the
    mutation and judge it. [None] when the class has no applicable
    site anywhere in the corpus. *)
let try_mutant ~(compiled : compiled list) ~classes ~seed i :
    mutant_result option =
  let n_classes = List.length classes in
  let n_programs = List.length compiled in
  let cls = List.nth classes (i mod n_classes) in
  (* Pick a corpus program that has sites for this class, starting
     from a rotating index so the load spreads. *)
  let start = i mod n_programs in
  let candidates =
    List.init n_programs (fun k ->
        List.nth compiled ((start + k) mod n_programs))
  in
  let pick =
    List.find_map
      (fun cp ->
        let sites =
          match Mutate.injection_point cls with
          | `Rtl -> Mutate.rtl_sites cls cp.cp_arts.Driver.Compiler.rtl
          | `Linear ->
            Mutate.linear_sites cls cp.cp_arts.Driver.Compiler.linear_clean
        in
        if sites = [] then None else Some (cp, sites))
      candidates
  in
  match pick with
  | None -> None (* no sites anywhere for this class: nothing to try *)
  | Some (cp, sites) ->
    let rng = Random.State.make [| seed; 7919 * (i + 1) |] in
    let site = List.nth sites (Random.State.int rng (List.length sites)) in
    let mutated =
      match Mutate.injection_point cls with
      | `Rtl ->
        Option.map
          (fun p -> `Rtl p)
          (Mutate.apply_rtl cls site cp.cp_arts.Driver.Compiler.rtl)
      | `Linear ->
        Option.map
          (fun p -> `Linear p)
          (Mutate.apply_linear cls site cp.cp_arts.Driver.Compiler.linear_clean)
    in
    match mutated with
    | None -> None (* site did not apply; enumeration/application skew *)
    | Some m ->
      Some
        (judge ~symbols:cp.cp_symbols ~arts:cp.cp_arts ~ref_outcome:cp.cp_ref
           ~program:cp.cp_name ~cls ~site cp.cp_query m)

let record_result_metrics (r : mutant_result) =
  Obs.Metrics.incr_counter "chaos.mutants";
  Obs.Metrics.incr_counter
    (if r.mr_survived then "chaos.survived" else "chaos.killed")

(** The mutation campaign over a compiled corpus: mutant [i] is
    {!try_mutant} [i]; the matrix counts, per class, the mutants tried
    and killed and the kills of each detector. *)
let mutants ?(classes = Mutate.all_classes) (compiled : compiled list) :
    mutant_result K.t =
  {
    K.job = "mutant";
    job_class = "chaos-mutant";
    trial = (fun ~seed i -> try_mutant ~compiled ~classes ~seed i);
    record = record_result_metrics;
    record_report = ignore;
    row_title = "class";
    row_width = 18;
    rows =
      List.map (fun c -> (Mutate.class_name c, fun r -> r.mr_class = c)) classes;
    totals =
      [
        { K.name = "mutants"; width = 8; counts = (fun _ -> true) };
        { K.name = "killed"; width = 8; counts = (fun r -> not r.mr_survived) };
      ];
    rate = true;
    columns =
      List.map
        (fun d ->
          { K.name = d; width = 12; counts = (fun r -> List.mem_assoc d r.mr_killed_by) })
        detectors;
  }

(** Every chaos mode behaved as expected (misbehavior diagnosed, the
    control run clean, no uncaught exceptions). *)
let chaos_ok (chaos : chaos_result list) : bool =
  chaos <> []
  && List.for_all (fun c -> chaos_expectation c.cr_mode c.cr_diagnosed) chaos

(* Every must-kill mutant judged was killed; [exercised] further
   requires every must-kill class to have been tried. *)
let must_kill ~exercised (rp : mutant_result K.report) : bool =
  List.for_all
    (fun c ->
      let cell col = K.cell rp ~row:(Mutate.class_name c) ~col in
      match (cell "mutants", cell "killed") with
      | Some tried, Some killed -> killed = tried && (tried > 0 || not exercised)
      | _ -> not exercised)
    Mutate.must_kill_classes

(** Every must-kill class was exercised, and every mutant of it
    killed. *)
let must_kill_ok = must_kill ~exercised:true

(** The weaker acceptance check for resumed campaigns: every must-kill
    mutant that {e was} judged in this run was killed, but classes whose
    mutants were all skipped by the journal are not required to have
    been exercised again. *)
let partial_must_kill_ok = must_kill ~exercised:false

let survivors (rp : mutant_result K.report) : mutant_result list =
  List.filter (fun r -> r.mr_survived) rp.K.results

(** One survivor as a JSON line — the incremental triage artifact
    streamed out as the campaign runs, and the shape used in the final
    report's [survivors] array. *)
let survivor_to_json (r : mutant_result) : Obs.Json.t =
  let open Obs.Json in
  Obj
    [
      ("class", Str (Mutate.class_name r.mr_class));
      ("program", Str r.mr_program);
      ("function", Str r.mr_site.Mutate.site_fun);
      ("loc", num_of_int r.mr_site.Mutate.site_loc);
      ("note", Str r.mr_site.Mutate.site_note);
    ]

(** {1 Reporting} *)

let pp_chaos fmt (chaos : chaos_result list) =
  Format.fprintf fmt "%-22s %-4s %-10s %s@." "chaos mode" "lvl" "verdict"
    "outcome";
  List.iter
    (fun c ->
      Format.fprintf fmt "%-22s %-4s %-10s %s@."
        (Chaos_oracle.mode_name c.cr_mode)
        c.cr_level
        (if chaos_expectation c.cr_mode c.cr_diagnosed then "ok"
         else "UNEXPECTED")
        c.cr_outcome)
    chaos

let pp_survivors fmt (rp : mutant_result K.report) =
  match survivors rp with
  | [] -> Format.fprintf fmt "no survivors@."
  | ss ->
    List.iter
      (fun r ->
        Format.fprintf fmt "SURVIVOR %s in %s at %a@."
          (Mutate.class_name r.mr_class)
          r.mr_program Mutate.pp_site r.mr_site)
      ss

let to_json (rp : mutant_result K.report) (chaos : chaos_result list) :
    Obs.Json.t =
  let open Obs.Json in
  let ss = survivors rp in
  K.to_json rp
    ~summary:
      [
        ("killed", num_of_int (List.length rp.K.results - List.length ss));
        ("survived", num_of_int (List.length ss));
        ("must_kill_ok", Bool (must_kill_ok rp));
        ("chaos_ok", Bool (chaos_ok chaos));
      ]
    ~extra:
      [
        ("survivors", List (List.map survivor_to_json ss));
        ( "chaos",
          List
            (List.map
               (fun c ->
                 Obj
                   [
                     ("mode", Str (Chaos_oracle.mode_name c.cr_mode));
                     ("level", Str c.cr_level);
                     ("outcome", Str c.cr_outcome);
                     ("diagnosed", Bool c.cr_diagnosed);
                     ( "as_expected",
                       Bool (chaos_expectation c.cr_mode c.cr_diagnosed) );
                   ])
               chaos) );
      ]
