(** The pass pipeline of Table 3, declared once.

    A pipeline is a list of steps: each [Pass] is one pass of Table 3
    with its source and target language, its simulation conventions and
    its transform; each [Keep] names a level, the program at that point,
    which the differential harness runs and {!Compiler.artifacts}
    exposes. Vertical composition of the per-pass refinements (Thm. 3.7)
    is then a walk over this list: {!run} drives every compile entry
    point, {!passes} is the view the Thm. 3.8 derivation, Table 3 and
    the SLOC column read, and removing a pass configures the pipeline
    ([-O0] drops the optional (†) passes). *)

open Support
module Diag = Support.Diagnostics
module C = Cfrontend.Csyntax

(** {1 The intermediate languages} *)

(** Each language of the pipeline, indexed by the type of its programs.
    Clight appears twice: as the source, with parameters in memory, and
    after SimplLocals, with parameters in temporaries. *)
type _ ir =
  | Clight1 : C.program ir
  | Clight2 : C.program ir
  | Csharpminor : Cfrontend.Csharpminor.program ir
  | Cminor : Middle.Cminor.program ir
  | CminorSel : Middle.Cminorsel.program ir
  | RTL : Middle.Rtl.program ir
  | LTL : Backend.Ltl.program ir
  | Linear : Backend.Linear.program ir
  | Mach : Backend.Mach.program ir
  | Asm : Backend.Asm.program ir

let ir_name : type a. a ir -> string = function
  | Clight1 | Clight2 -> "Clight"
  | Csharpminor -> "Csharpminor"
  | Cminor -> "Cminor"
  | CminorSel -> "CminorSel"
  | RTL -> "RTL"
  | LTL -> "LTL"
  | Linear -> "Linear"
  | Mach -> "Mach"
  | Asm -> "Asm"

let shape : type a. a ir -> a -> Sizes.shape = function
  | Clight1 -> Sizes.clight
  | Clight2 -> Sizes.clight
  | Csharpminor -> Sizes.csharpminor
  | Cminor -> Sizes.cminor
  | CminorSel -> Sizes.cminorsel
  | RTL -> Sizes.rtl
  | LTL -> Sizes.ltl
  | Linear -> Sizes.linear
  | Mach -> Sizes.mach
  | Asm -> Sizes.asm

(** Run a program on a C query through the conventions that reach its
    language: the differential harness's view of one level. *)
let run_program : type a.
    a ir ->
    symbols:Ident.t list ->
    fuel:int ->
    a ->
    Iface.Li.c_query ->
    (Runners.c_outcome, string) result =
 fun ir ~symbols ~fuel p q ->
  let c lts = Ok (Runners.run_c_level lts ~fuel q) in
  match ir with
  | Clight1 -> c (Cfrontend.Clight.semantics ~symbols p)
  | Clight2 -> c (Cfrontend.Clight.semantics ~mode:`Temp_params ~symbols p)
  | Csharpminor -> c (Cfrontend.Csharpminor.semantics ~symbols p)
  | Cminor -> c (Middle.Cminor.semantics ~symbols p)
  | CminorSel -> c (Middle.Cminorsel.semantics ~symbols p)
  | RTL -> c (Middle.Rtl.semantics ~symbols p)
  | LTL -> Runners.run_l_level (Backend.Ltl.semantics ~symbols p) ~fuel q
  | Linear -> Runners.run_l_level (Backend.Linear.semantics ~symbols p) ~fuel q
  | Mach -> Runners.run_m_level (Backend.Mach.semantics ~symbols p) ~fuel q
  | Asm -> Runners.run_a_level (Backend.Asm.semantics ~symbols p) ~fuel q

type (_, _) eq = Refl : ('a, 'a) eq

let same : type a b. a ir -> b ir -> (a, b) eq option =
 fun a b ->
  match (a, b) with
  | Clight1, Clight1 -> Some Refl
  | Clight2, Clight2 -> Some Refl
  | Csharpminor, Csharpminor -> Some Refl
  | Cminor, Cminor -> Some Refl
  | CminorSel, CminorSel -> Some Refl
  | RTL, RTL -> Some Refl
  | LTL, LTL -> Some Refl
  | Linear, Linear -> Some Refl
  | Mach, Mach -> Some Refl
  | Asm, Asm -> Some Refl
  | _ -> None

(** {1 Stages} *)

(** One pass of Table 3. [run] is its transform, already instrumented
    by {!guarded}. *)
type stage =
  | Stage : {
      name : string;
      src : 'a ir;
      tgt : 'b ir;
      phase : Diag.phase;
      outgoing : Convalg.Cterm.t;
      incoming : Convalg.Cterm.t;
      optional : bool;  (** a (†) pass, which [-O0] leaves out *)
      run : 'a -> ('b, Diag.t) result;
    }
      -> stage

(** Run a pass, or keep the current program as the named level. *)
type step = Pass of stage | Keep of string

type t = step list

(* Words [f ()] allocated, minor and major. Minor allocation comes from
   [Gc.minor_words ()], which reads the domain's young-pointer directly
   and is exact at any program point. The [Gc.counters] minor field is
   NOT: on OCaml 5 it only advances at minor-collection boundaries, so
   short passes read 0 and whichever pass happens to straddle a
   collection absorbs the whole ~minor-heap-sized lump — exactly the
   bogus multi-hundred-k tail the alloc_words histograms used to show.
   [counters] is still the source for the promoted/major pair (mutually
   coherent with each other): major words are direct major allocations,
   not double-counting survivors promoted from the minor heap, clamped
   at 0 since those two fields share the boundary-only granularity. *)
let alloc_words f =
  let mw0 = Gc.minor_words () in
  let _, pr0, ma0 = Gc.counters () in
  let r = f () in
  let _, pr1, ma1 = Gc.counters () in
  let mw1 = Gc.minor_words () in
  (r, Float.max 0. (mw1 -. mw0), Float.max 0. (ma1 -. ma0 -. (pr1 -. pr0)))

(* Observability: each executed pass runs inside a span carrying its
   wall time, the program shape before/after, and the Gc work it caused
   — words allocated (minor and major) and major collections triggered
   — and feeds per-pass duration and allocation histograms in the
   shared metrics registry, the same numbers the bench harness exports.
   When [Obs.enabled] is off this is a single boolean test per pass. *)
let observed name ~(before : 'a -> Sizes.shape) ~(after : 'b -> Sizes.shape)
    (pass : 'a -> 'b Errors.t) (p : 'a) : 'b Errors.t =
  if not !Obs.enabled then pass p
  else
    Obs.Trace.with_span ("pass:" ^ name) (fun () ->
        let sb = before p in
        Obs.Trace.add_attr "functions_before" (Obs.Json.num_of_int sb.Sizes.functions);
        Obs.Trace.add_attr "size_before" (Obs.Json.num_of_int sb.Sizes.size);
        let g0 = Gc.quick_stat () in
        let r, minor_alloc, major_alloc =
          alloc_words (fun () -> Obs.Metrics.time ("pass." ^ name) (fun () -> pass p))
        in
        let g1 = Gc.quick_stat () in
        Obs.Trace.add_attr "minor_alloc_words" (Obs.Json.Num minor_alloc);
        Obs.Trace.add_attr "major_alloc_words" (Obs.Json.Num major_alloc);
        Obs.Trace.add_attr "major_collections"
          (Obs.Json.num_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
        Obs.Metrics.observe
          ("pass." ^ name ^ ".alloc_words")
          (minor_alloc +. major_alloc);
        (match r with
        | Ok q ->
          let sa = after q in
          Obs.Trace.add_attr "functions_after"
            (Obs.Json.num_of_int sa.Sizes.functions);
          Obs.Trace.add_attr "size_after" (Obs.Json.num_of_int sa.Sizes.size)
        | Error _ -> Obs.Trace.add_attr "failed" (Obs.Json.Bool true));
        r)

(** Run one pass observed, as a diagnosed result: an [Error] becomes a
    diagnostic of [kind] naming the pass and its phase, and an exception
    a buggy pass raises becomes an [Internal_error] instead of
    escaping. *)
let guarded ?(kind = Diag.Pass_failure) ~name ~phase ~before ~after pass x =
  match observed name ~before ~after pass x with
  | Ok y -> Ok y
  | Error msg -> Error (Diag.make ~pass:name ~phase ~kind "%s" msg)
  | exception e -> Error (Diag.of_exn ~pass:name ~phase e)

let stage ?(optional = false) name src tgt phase outgoing incoming run =
  Stage { name; src; tgt; phase; outgoing; incoming; optional; run }

(** A pass whose transform runs {!guarded}. *)
let pass ?optional name src tgt phase outgoing incoming transf =
  Pass
    (stage ?optional name src tgt phase outgoing incoming
       (guarded ~name ~phase ~before:(shape src) ~after:(shape tgt) transf))

(** Allocation with translation validation of the untrusted allocator
    (CompCert-style): the validator receives the allocator's own
    colorings and checks them from scratch instead of re-deriving them.
    When the [fast] allocator's coloring is rejected (or it crashes),
    the stage retries once with [fallback] and validates again —
    performance from the fast path, correctness from the check. Only an
    accepted LTL program leaves the stage. Liveness is solved once per
    function, inside the first Allocation span, and every allocator and
    validation of the stage reads that solution. *)
let allocation ~(fast : Passes.Allocation.allocator)
    ~(fallback : Passes.Allocation.allocator) : stage =
  let name = "Allocation" and phase = Diag.Backend in
  let attempt liveness allocator rtl =
    let open Diag in
    let* ltl, assignments =
      guarded ~name ~phase ~before:Sizes.rtl
        ~after:(fun (l, _) -> Sizes.ltl l)
        (fun rtl ->
          Passes.Allocation.transf_program_with_assignments ~allocator
            ~liveness:(Lazy.force liveness) rtl)
        rtl
    in
    let* () =
      guarded ~kind:Validation_failure ~name:"AllocCheck" ~phase
        ~before:Sizes.ltl
        ~after:(fun () -> Sizes.ltl ltl)
        (Passes.Alloc_check.validate_program ~assignments
           ~liveness:(Lazy.force liveness) rtl)
        ltl
    in
    Ok ltl
  in
  let conv = Convalg.Cterm.[ Wt; Ext; CL ] in
  stage name RTL LTL phase conv conv (fun rtl ->
      let liveness = lazy (Middle.Liveness.solve_program rtl) in
      match attempt liveness fast rtl with
      | Ok ltl ->
        Obs.Trace.add_attr "allocator" (Obs.Json.Str "linear_scan");
        Ok ltl
      | Error _ ->
        (* Surfaced on the enclosing span and in the metrics registry. *)
        Obs.Metrics.incr_counter "alloc.linear_scan_fallback";
        Obs.Trace.add_attr "allocator" (Obs.Json.Str "spill_fallback");
        attempt liveness fallback rtl)

(** {1 The pipeline} *)

(** Every pass of Table 3 with its conventions, and the 13 levels the
    differential harness runs. *)
let full : t =
  let open Convalg.Cterm in
  let open Passes in
  [
    Keep "clight1";
    pass "SimplLocals" Clight1 Clight2 Frontend [ Injp ] [ Inj ] Simpllocals.transf_program;
    Keep "clight2";
    pass "Cshmgen" Clight2 Csharpminor Frontend [] [] Cshmgen.transf_program;
    Keep "csharpminor";
    pass "Cminorgen" Csharpminor Cminor Frontend [ Injp ] [ Inj ] Cminorgen.transf_program;
    Keep "cminor";
    pass "Selection" Cminor CminorSel Middle [ Wt; Ext ] [ Wt; Ext ] Selection.transf_program;
    Keep "cminorsel";
    pass "RTLgen" CminorSel RTL Middle [ Ext ] [ Ext ] Rtlgen.transf_program;
    Keep "rtl_gen";
    pass ~optional:true "Tailcall" RTL RTL Middle [ Ext ] [ Ext ] Tailcall.transf_program;
    pass ~optional:true "Inlining" RTL RTL Middle [ Injp ] [ Inj ] Inlining.transf_program;
    pass "Renumber" RTL RTL Middle [] [] Renumber.transf_program;
    pass ~optional:true "Constprop" RTL RTL Middle [ Va; Ext ] [ Va; Ext ] Constprop.transf_program;
    pass ~optional:true "CSE" RTL RTL Middle [ Va; Ext ] [ Va; Ext ] Cse.transf_program;
    pass ~optional:true "Deadcode" RTL RTL Middle [ Va; Ext ] [ Va; Ext ] Deadcode.transf_program;
    Keep "rtl_opt";
    Pass (allocation ~fast:Allocation.allocate_linear_with ~fallback:Allocation.spill_everything);
    Keep "ltl";
    pass "Tunneling" LTL LTL Backend [ Ext ] [ Ext ] Tunneling.transf_program;
    Keep "ltl_tunneled";
    pass "Linearize" LTL Linear Backend [] [] Linearize.transf_program;
    Keep "linear";
    pass "CleanupLabels" Linear Linear Backend [] [] Cleanuplabels.transf_program;
    Keep "linear_clean";
    pass "Debugvar" Linear Linear Backend [] [] Debugvar.transf_program;
    pass "Stacking" Linear Mach Backend [ Injp; LM ] [ LM; Inj ] Stacking.transf_program;
    Keep "mach";
    pass "Asmgen" Mach Asm Backend [ Ext; MA ] [ Ext; MA ] Asmgen.transf_program;
    Keep "asm";
  ]

(** The Table 3 row of a stage. *)
let info = function
  | Stage s ->
    {
      Convalg.Derive.pass_name = s.name;
      pass_source = ir_name s.src;
      pass_target = ir_name s.tgt;
      outgoing = s.outgoing;
      incoming = s.incoming;
      optional = s.optional;
    }

(** The passes of a pipeline, in order: its Table 3. *)
let passes (steps : t) : Convalg.Derive.pass_info list =
  List.filter_map (function Pass s -> Some (info s) | Keep _ -> None) steps

(** [steps] without the passes [drop] selects; every level stays. *)
let without (drop : Convalg.Derive.pass_info -> bool) (steps : t) : t =
  List.filter (function Pass s -> not (drop (info s)) | Keep _ -> true) steps

(** The pipeline without the optional (†) passes: [-O0]. *)
let mandatory = without (fun p -> p.Convalg.Derive.optional) full

(** {1 Running a pipeline} *)

type program = Program : 'a ir * 'a -> program

(** A kept level: its name, the last pass that ran before it (["source"]
    for the input of the run), and the program. *)
type level = { level : string; after : string; program : program }

(** A diagnosed failure, with the levels kept before it. *)
type failure = { fail_diag : Diag.t; fail_partial : level list }

(** The program of level [name], which must be a program of [ir]. *)
let find : type a. a ir -> string -> level list -> a =
 fun ir name levels ->
  match List.find_opt (fun l -> l.level = name) levels with
  | Some { program = Program (ir', p); _ } -> (
    match same ir' ir with
    | Some Refl -> p
    | None -> invalid_arg ("Pipeline.find: level " ^ name ^ " is not " ^ ir_name ir))
  | None -> invalid_arg ("Pipeline.find: no level " ^ name)

(** Run a level's program on a C query. *)
let run_level ~symbols ~fuel q (l : level) =
  match l.program with Program (ir, p) -> run_program ir ~symbols ~fuel p q

(** The last pass whose output was kept, or ["source"]. *)
let progress (kept : level list) : string =
  match List.rev kept with l :: _ -> l.after | [] -> "source"

(** Walk [steps] from [p], a program of [ir]; with [from], start at the
    step that keeps that level, whose program [p] then is. Every pass
    runs guarded, and with [budget_us] a pass that takes longer fails
    with [Budget_exceeded] — after the levels right behind it are kept,
    so its output still contributes to the partial result. The result is
    every level kept, in pipeline order. *)
let run ?budget_us ?from (steps : t) (ir : 'a ir) (p : 'a) :
    (level list, failure) result =
  let steps =
    match from with
    | None -> steps
    | Some l ->
      let rec drop = function
        | Keep l' :: _ as s when l' = l -> s
        | _ :: s -> drop s
        | [] -> invalid_arg ("Pipeline.run: no level " ^ l)
      in
      drop steps
  in
  let rec walk cur after kept pending steps =
    let fail d = Error { fail_diag = d; fail_partial = List.rev kept } in
    match (steps, pending) with
    | Keep level :: rest, _ ->
      walk cur after ({ level; after; program = cur } :: kept) pending rest
    | _, Some d -> fail d
    | [], None -> Ok (List.rev kept)
    | Pass (Stage s) :: rest, None -> (
      match cur with
      | Program (ir, x) -> (
      match same ir s.src with
      | None ->
        fail
          (Diag.make ~pass:s.name ~phase:s.phase ~kind:Diag.Internal_error
             "expects a %s program, got %s" (ir_name s.src) (ir_name ir))
      | Some Refl -> (
        (* The clock is read only against a budget, so a compile without
           one allocates the same words every time. *)
        let t0 = match budget_us with Some _ -> Obs.now_us () | None -> 0. in
        match s.run x with
        | Error d -> fail d
        | Ok y ->
          let over =
            match budget_us with
            | None -> None
            | Some b ->
              let elapsed = Obs.now_us () -. t0 in
              if elapsed <= b then None
              else
                Some
                  (Diag.make ~pass:s.name ~phase:s.phase
                     ~kind:Diag.Budget_exceeded
                     ~context:
                       [
                         ("elapsed_us", Printf.sprintf "%.0f" elapsed);
                         ("budget_us", Printf.sprintf "%.0f" b);
                       ]
                     "pass exceeded its wall-clock budget")
          in
          walk (Program (s.tgt, y)) s.name kept over rest)))
  in
  walk (Program (ir, p)) "source" [] None steps
