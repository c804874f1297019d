(** The compromised-component campaign.

    For each trial, a correct compiled component is linked (via
    {!Core.Hcomp.compose}) against a partner synthesized by
    {!Partner} — faithful up to a seeded rogue activation, adversarial
    after it — and run on the differential harness while the
    {!Property} monitors watch the boundary. The campaign tallies a
    partner-mode × property {b survival matrix}: which safety
    properties caught which class of compromise.

    Detection has three independent sources, in the order a triager
    would trust them:

    - {b property monitors}: a boundary obligation was violated
      (imports, callee-save, memory, welltyped);
    - {b diagnosed outcome}: the composite run ended in a structured
      non-final outcome (stuck, out of fuel, …) — the harness noticed
      {e something} even if no monitor named it;
    - {b divergence}: the run completed but its answer does not
      mutually refine the recorded reference.

    Trial [i] of a seeded campaign is deterministic in [(seed, i)]
    alone — partner mode and corpus program cycle with [i], the rogue
    activation is drawn from an RNG derived from [seed] and [i] — so
    the supervised runner can judge trials in isolated worker
    processes, in any completion order, and still agree with the
    in-process runner on what trial [i] is. Both the single-partner
    campaign and its multi-partner arm are instances of the
    {!Harness.Campaign} kernel (rows: partner modes; columns: safety
    properties), like {!Faultinject.Campaign}. Every trial ends in a
    classified verdict; a trial whose machinery raises is itself
    recorded as a failed expectation, never propagated. *)

open Support
module Diag = Support.Diagnostics
module Io = Driver.Io_oracle
module Sup = Harness.Supervisor
module K = Harness.Campaign

(** {1 The corpus}

    Closed loops over partner calls where {e every} partner result
    feeds the final answer through injective (affine, factor ≥ 1)
    updates — so a wrong result at {e any} activation provably
    diverges the final answer, and the wrong-result mode can never hide
    behind an unused return value. *)

let corpus : (string * string * (unit -> Io.primitive list)) list =
  let open Memory.Mtypes in
  let sg1 = { sig_args = [ Tint ]; sig_res = Some Tint } in
  let sg2 = { sig_args = [ Tint; Tint ]; sig_res = Some Tint } in
  [
    ( "step-mix",
      "int p_step(int x);\n\
       int p_mix(int a, int b);\n\
       int main(void) {\n\
      \  int acc = 1;\n\
      \  for (int i = 0; i < 4; i++) {\n\
      \    int s = p_step(i + acc);\n\
      \    acc = p_mix(acc, s);\n\
      \  }\n\
      \  return acc;\n\
       }\n",
      fun () ->
        [
          { Io.prim_name = "p_step"; prim_sig = sg1;
            prim_impl =
              (fun args ->
                match args with
                | [ x ] -> Int32.add (Int32.mul 2l x) 3l
                | _ -> 0l) };
          { Io.prim_name = "p_mix"; prim_sig = sg2;
            prim_impl =
              (fun args ->
                match args with
                | [ a; b ] -> Int32.sub (Int32.mul 3l a) b
                | _ -> 0l) };
        ] );
    ( "query-fold",
      "int p_query(int k);\n\
       int p_fold(int acc, int v);\n\
       int main(void) {\n\
      \  int total = 5;\n\
      \  total = p_fold(total, p_query(0));\n\
      \  total = p_fold(total, p_query(1));\n\
      \  total = p_fold(total, p_query(2));\n\
      \  return total;\n\
       }\n",
      fun () ->
        [
          { Io.prim_name = "p_query"; prim_sig = sg1;
            prim_impl =
              (fun args ->
                match args with
                | [ k ] -> Int32.add (Int32.mul 7l k) 5l
                | _ -> 0l) };
          { Io.prim_name = "p_fold"; prim_sig = sg2;
            prim_impl =
              (fun args ->
                match args with
                | [ a; v ] -> Int32.add (Int32.mul 2l a) v
                | _ -> 0l) };
        ] );
  ]

let default_fuel = 120_000

(** {1 Compiling the corpus and recording reference traces} *)

type compiled = {
  cc_name : string;
  cc_symbols : Ident.t list;
  cc_asm : Backend.Asm.program;
  cc_entry : Ident.t;
  cc_prims : Io.primitive list;
  cc_query : Iface.Li.c_query;
  cc_ref : Driver.Runners.c_outcome;  (** the well-behaved reference run *)
  cc_trace : Io.log_entry list;  (** its partner-call log, in order *)
}

(** Compile each corpus program and record its well-behaved interaction
    trace: the compiled Asm run against the [A]-level oracle
    implementation of its partner primitives, with the call log
    captured. This log is the prefix the synthesized partners
    back-translate. *)
let compile_corpus ~fuel () : (compiled list, Diag.t) result =
  K.prepare_corpus
    (fun (name, src, prims_of) ->
      Result.bind (Driver.Compiler.compile_main ~name src)
        (fun (arts, symbols, q) ->
          let prims = prims_of () in
          let record, read = Io.make_log () in
          let oracle = Io.a_oracle ~symbols prims record in
          match
            Driver.Runners.run_a_level
              (Backend.Asm.semantics ~symbols arts.Driver.Compiler.asm)
              ~fuel ~oracle q
          with
          | Error e ->
            Error
              (Diag.make ~phase:Diag.Campaign ~kind:Diag.Marshal_failure
                 ~context:[ ("program", name) ]
                 "reference run of %s failed: %s" name e)
          | Ok ref_out -> (
            match read () with
            | [] ->
              Error
                (Diag.make ~phase:Diag.Campaign ~kind:Diag.Internal_error
                   ~context:[ ("program", name) ]
                   "corpus program %s never calls its partner" name)
            | trace ->
              Ok
                { cc_name = name; cc_symbols = symbols;
                  cc_asm = arts.Driver.Compiler.asm;
                  cc_entry = arts.Driver.Compiler.clight1.Iface.Ast.prog_main;
                  cc_prims = prims; cc_query = q; cc_ref = ref_out;
                  cc_trace = trace })))
    corpus

(** {1 Trials} *)

type verdict = Detected | Undetected

let verdict_name = function Detected -> "detected" | Undetected -> "undetected"

type trial_result = {
  t_index : int;
  t_program : string;
  t_mode : Partner.mode;
  t_rogue_at : int;  (** 0-based activation where the partner went rogue *)
  t_outcome : string;  (** printable classification of the composed run *)
  t_props : Property.prop list;  (** distinct properties violated *)
  t_detected_by : string list;  (** every detection source that fired *)
  t_prefix_ok : bool;
      (** the replayed call prefix matched the recorded trace (the
          back-translation sanity check) *)
  t_verdict : verdict;
}

(* Does the observed sequence of partner activations agree with the
   recorded trace on the first [upto] of them (names and decoded
   arguments)? *)
let prefix_matches ~(trace : Io.log_entry list) ~(calls : Property.call list)
    ~(upto : int) : bool =
  let rec go k ts cs =
    k >= upto
    ||
    match (ts, cs) with
    | t :: ts', c :: cs' ->
      t.Io.call_name = c.Property.c_name
      && c.Property.c_args = Some t.Io.call_args
      && go (k + 1) ts' cs'
    | _ -> false
  in
  go 0 trace calls

(* Judge one composed run: link the correct component against the
   environment [env ()] under the boundary monitors, run it, classify,
   and check the replayed call prefix up to [rogue_at] — the whole
   trace for the faithful control. Never raises. *)
let judge ~(cp : compiled) ~fuel ~index ~mode ~rogue_at env : trial_result =
  let trial ~outcome ~props ~detected_by ~prefix_ok =
    {
      t_index = index;
      t_program = cp.cc_name;
      t_mode = mode;
      t_rogue_at = rogue_at;
      t_outcome = outcome;
      t_props = props;
      t_detected_by = detected_by;
      t_prefix_ok = prefix_ok;
      t_verdict = (if detected_by <> [] then Detected else Undetected);
    }
  in
  try
    let env = env () in
    let exports = Io.export_table ~symbols:cp.cc_symbols cp.cc_prims in
    let mon = Property.monitor ~exports ~partner_imports:[] () in
    let composed =
      Core.Hcomp.compose ~observe:mon.Property.m_observe
        (Backend.Asm.semantics ~symbols:cp.cc_symbols cp.cc_asm)
        env
    in
    let outcome, diagnosed, diverged =
      match Driver.Runners.run_a_level composed ~fuel cp.cc_query with
      | Error e -> ("marshal: " ^ e, true, false)
      | Ok o ->
        let name, diagnosed = Driver.Runners.classify_outcome o in
        let diverged =
          (not diagnosed)
          && not
               (Driver.Runners.outcome_refines cp.cc_ref o
               && Driver.Runners.outcome_refines o cp.cc_ref)
        in
        (name, diagnosed, diverged)
    in
    let props = Property.violated (mon.Property.m_violations ()) in
    let calls = mon.Property.m_calls () in
    let upto =
      if mode = Partner.Replay_faithful then
        (* the control must replay the whole trace, call for call *)
        max (List.length cp.cc_trace) (List.length calls)
      else rogue_at
    in
    trial ~outcome ~props
      ~prefix_ok:(prefix_matches ~trace:cp.cc_trace ~calls ~upto)
      ~detected_by:
        (List.map (fun p -> "property:" ^ Property.prop_name p) props
        @ (if diagnosed then [ "diagnosed:" ^ outcome ] else [])
        @ if diverged then [ "divergence" ] else [])
  with e ->
    (* Campaign machinery bug: recorded as a trial that fails its
       expectation, never an escaped exception. *)
    trial
      ~outcome:("uncaught exception: " ^ Printexc.to_string e)
      ~props:[] ~detected_by:[] ~prefix_ok:false

(** Run trial [i]: link the correct component against the synthesized
    partner, monitor the boundary, classify. Deterministic in
    [(seed, i)]. Never raises. *)
let try_partner ~(compiled : compiled list) ~fuel ~seed i : trial_result =
  let mode = List.nth Partner.all_modes (i mod List.length Partner.all_modes) in
  let cp = List.nth compiled (i mod List.length compiled) in
  let rng = Random.State.make [| seed; 8191 * (i + 1) |] in
  let rogue_at = Random.State.int rng (List.length cp.cc_trace) in
  judge ~cp ~fuel ~index:i ~mode ~rogue_at (fun () ->
      (Partner.synthesize ~symbols:cp.cc_symbols ~prims:cp.cc_prims
         ~entry:cp.cc_entry ~trace:cp.cc_trace ~mode ~rogue_at ())
        .Partner.p_lts)

(** {1 Multi-partner composition}

    The linking scenario of the paper is n-ary: a component's
    environment is usually {e several} other components, linked by
    iterated [⊕]. A multi-partner trial splits the corpus program's
    primitives between {e two} synthesized partners — one faithful
    control and one rogue — links the pair with {!Core.Hcomp.compose_all}
    (they share the {!Partner.pstate} state type), and composes the
    result with the correct compiled component. The survival question
    sharpens: with an honest co-resident partner answering half the
    calls, does every rogue mode still get caught, and is the faithful
    pair still indistinguishable from the reference run? *)

let prim_names prims = List.map (fun p -> p.Io.prim_name) prims

(** The sub-trace a partner exporting [prims] is responsible for:
    exactly the recorded calls to its primitives, in global order —
    which is the order its own activation counter will see them. *)
let partner_trace prims (trace : Io.log_entry list) : Io.log_entry list =
  let names = prim_names prims in
  List.filter (fun e -> List.mem e.Io.call_name names) trace

(** The global trace index of the rogue partner's [local]-th activation
    (its rogue point), for the whole-composite prefix check. *)
let global_rogue_index ~rogue_prims ~(trace : Io.log_entry list) ~local : int =
  let names = prim_names rogue_prims in
  let rec go k local = function
    | [] -> k
    | e :: rest ->
      if List.mem e.Io.call_name names then
        if local = 0 then k else go (k + 1) (local - 1) rest
      else go (k + 1) local rest
  in
  go 0 local trace

(** Run multi-partner trial [i]: the corpus program linked against a
    faithful partner and a rogue one (mode cycling with [i], the rogue
    primitive and activation drawn from the [(seed, i)] RNG).
    [Replay_faithful] trials make both partners faithful — the control
    arm. Deterministic in [(seed, i)]; never raises. *)
let try_multi ~(compiled : compiled list) ~fuel ~seed i : trial_result =
  let mode = List.nth Partner.all_modes (i mod List.length Partner.all_modes) in
  let cp = List.nth compiled (i mod List.length compiled) in
  let rng = Random.State.make [| seed; 24593 * (i + 1) |] in
  let rogue_idx = Random.State.int rng (List.length cp.cc_prims) in
  let rogue_prims = [ List.nth cp.cc_prims rogue_idx ] in
  let faithful_prims =
    List.filteri (fun j _ -> j <> rogue_idx) cp.cc_prims
  in
  let rogue_trace = partner_trace rogue_prims cp.cc_trace in
  let rogue_local_at =
    if rogue_trace = [] then 0
    else Random.State.int rng (List.length rogue_trace)
  in
  judge ~cp ~fuel ~index:i ~mode
    ~rogue_at:
      (global_rogue_index ~rogue_prims ~trace:cp.cc_trace ~local:rogue_local_at)
    (fun () ->
      let faithful =
        Partner.synthesize ~symbols:cp.cc_symbols ~prims:faithful_prims
          ~entry:cp.cc_entry
          ~trace:(partner_trace faithful_prims cp.cc_trace)
          ~mode:Partner.Replay_faithful ~rogue_at:0 ()
      in
      let rogue =
        Partner.synthesize ~symbols:cp.cc_symbols ~prims:rogue_prims
          ~entry:cp.cc_entry ~trace:rogue_trace ~mode ~rogue_at:rogue_local_at
          ()
      in
      (* The two partners become one environment component; their
         domains are disjoint by construction (distinct primitive
         symbols). *)
      Core.Hcomp.compose_all [| faithful.Partner.p_lts; rogue.Partner.p_lts |])

(** What each partner mode must produce. The faithful control must be
    indistinguishable from the recorded run (no detection, full-prefix
    match); every rogue mode must be detected, with its replay prefix
    intact up to the rogue point. An "uncaught exception" outcome fails
    both arms. *)
let expectation (t : trial_result) : bool =
  match t.t_mode with
  | Partner.Replay_faithful ->
    t.t_verdict = Undetected && t.t_prefix_ok && t.t_outcome = "final"
  | _ -> t.t_verdict = Detected && t.t_prefix_ok

(** {1 The survival matrix} *)

let undetected_rogues (rp : trial_result K.report) : trial_result list =
  List.filter
    (fun t -> t.t_mode <> Partner.Replay_faithful && t.t_verdict = Undetected)
    rp.K.results

(** The weaker check for resumed campaigns: nothing judged {e this} run
    failed its expectation, but modes fully skipped by the journal need
    not have been re-exercised. *)
let partial_survival_ok (rp : trial_result K.report) : bool =
  List.for_all expectation rp.K.results

(** Acceptance: every trial met its mode's expectation, and every
    partner mode was exercised at least once. The same bar holds for
    the multi-partner matrix. *)
let survival_ok (rp : trial_result K.report) : bool =
  rp.K.results <> []
  && partial_survival_ok rp
  && List.for_all
       (fun m -> K.cell rp ~row:(Partner.mode_name m) ~col:"tried" <> Some 0)
       Partner.all_modes

(* The matrix both arms share; [count] names the per-trial counter and
   [prefix] the detection counters. *)
let campaign ~job ~job_class ~trial ~count ~prefix ~record_report :
    trial_result K.t =
  {
    K.job;
    job_class;
    trial;
    record =
      (fun t ->
        Obs.Metrics.incr_counter count;
        if t.t_mode <> Partner.Replay_faithful then
          Obs.Metrics.incr_counter (prefix ^ verdict_name t.t_verdict));
    record_report;
    row_title = "partner mode";
    row_width = 22;
    rows =
      List.map (fun m -> (Partner.mode_name m, fun t -> t.t_mode = m))
        Partner.all_modes;
    totals =
      [
        { K.name = "tried"; width = 6; counts = (fun _ -> true) };
        { K.name = "detected"; width = 9; counts = (fun t -> t.t_verdict = Detected) };
        { K.name = "expected"; width = 9; counts = expectation };
      ];
    rate = false;
    columns =
      List.map
        (fun p ->
          { K.name = Property.prop_name p; width = 12;
            counts = (fun t -> List.mem p t.t_props) })
        Property.all_props;
  }

let gauge name n = Obs.Metrics.set_gauge name (float_of_int n)

(** The single-partner campaign: trial [i] is {!try_partner} [i]. The
    [robust.undetected_rogues] and [robust.expectation_failures] gauges
    feed the bench-diff regression gate. *)
let partners ?(fuel = default_fuel) (compiled : compiled list) =
  campaign ~job:"partner" ~job_class:"compromise-partner"
    ~trial:(fun ~seed i -> Some (try_partner ~compiled ~fuel ~seed i))
    ~count:"robust.partners" ~prefix:"robust."
    ~record_report:(fun rp ->
      gauge "robust.undetected_rogues" (List.length (undetected_rogues rp));
      gauge "robust.expectation_failures"
        (List.length
           (List.filter (fun t -> not (expectation t)) rp.K.results)))

(** The multi-partner arm: trial [i] is {!try_multi} [i]. It runs
    in-process (the trials are cheap: the expensive corpus compile
    happens once). *)
let multi ?(fuel = default_fuel) (compiled : compiled list) =
  campaign ~job:"multi" ~job_class:"compromise-multi"
    ~trial:(fun ~seed i -> Some (try_multi ~compiled ~fuel ~seed i))
    ~count:"robust.multi.trials" ~prefix:"robust.multi."
    ~record_report:(fun rp ->
      gauge "robust.multi.undetected_rogues"
        (List.length (undetected_rogues rp)))

(** The job the [--inject-hang] smoke test adds: a partner worker that
    never terminates, so the supervisor's watchdog must classify it as
    a timeout. (The in-campaign [Silent_divergence] mode burns fuel
    {e in-process} and is diagnosed as [Out_of_fuel]; this job models
    the complementary failure, a worker the harness itself cannot
    bound.) *)
let hang_job_id = "inject-hang"

let hang_job : trial_result option Sup.job =
  Sup.job ~cls:"inject-hang" hang_job_id (fun ~attempt:_ ->
      while true do
        ignore (Sys.opaque_identity 0)
      done;
      Ok None)

(** {1 Reporting} *)

let pp_failures fmt (rp : trial_result K.report) =
  match List.filter (fun t -> not (expectation t)) rp.K.results with
  | [] -> Format.fprintf fmt "all partner trials met their expectations@."
  | ts ->
    List.iter
      (fun t ->
        Format.fprintf fmt
          "UNEXPECTED trial %d: %s on %s (rogue at %d): %s verdict=%s%s@."
          t.t_index
          (Partner.mode_name t.t_mode)
          t.t_program t.t_rogue_at t.t_outcome
          (verdict_name t.t_verdict)
          (if t.t_prefix_ok then "" else " (replay prefix broken)"))
      ts

let trial_to_json (t : trial_result) : Obs.Json.t =
  let open Obs.Json in
  Obj
    [
      ("index", num_of_int t.t_index);
      ("program", Str t.t_program);
      ("mode", Str (Partner.mode_name t.t_mode));
      ("rogue_at", num_of_int t.t_rogue_at);
      ("outcome", Str t.t_outcome);
      ( "properties",
        List (List.map (fun p -> Str (Property.prop_name p)) t.t_props) );
      ("detected_by", List (List.map (fun s -> Str s) t.t_detected_by));
      ("prefix_ok", Bool t.t_prefix_ok);
      ("verdict", Str (verdict_name t.t_verdict));
      ("as_expected", Bool (expectation t));
    ]

let to_json (rp : trial_result K.report) : Obs.Json.t =
  let open Obs.Json in
  K.to_json rp
    ~summary:
      [
        ("undetected_rogues", num_of_int (List.length (undetected_rogues rp)));
        ("survival_ok", Bool (survival_ok rp));
      ]
    ~extra:[ ("trials", List (List.map trial_to_json rp.K.results)) ]
