(** Tests for the compromised-component campaign: partner synthesis
    (back-translation faithfulness), the boundary property monitors,
    the survival matrix, and the [Hcomp] observation/overlap hooks the
    campaign rides on. *)

open Support
open Memory.Values
module Li = Iface.Li
module Hcomp = Core.Hcomp
module Partner = Robust.Partner
module Property = Robust.Property
module Campaign = Robust.Campaign
module Mtypes = Memory.Mtypes
module Mem = Memory.Mem

let check = Alcotest.(check bool)
let fuel = Campaign.default_fuel

let compiled_corpus =
  lazy
    (match Campaign.compile_corpus ~fuel () with
    | Ok cs -> cs
    | Error d -> Alcotest.failf "corpus: %s" (Diagnostics.to_string d))

(* One arm of the campaign over the shared corpus, run in-process. *)
let run arm ~seed ~trials =
  Result.map
    (fun compiled -> Harness.Campaign.run (arm compiled) ~seed ~trials)
    (Campaign.compile_corpus ~fuel ())

let name_tests =
  [
    Alcotest.test_case "partner mode names round-trip" `Quick (fun () ->
        List.iter
          (fun m ->
            check (Partner.mode_name m) true
              (Partner.mode_of_name (Partner.mode_name m) = Some m))
          Partner.all_modes;
        check "unknown" true (Partner.mode_of_name "frobnicate" = None);
        check "rogue excludes control" true
          (not (List.mem Partner.Replay_faithful Partner.rogue_modes)));
  ]

let corpus_tests =
  [
    Alcotest.test_case "corpus compiles and records partner traces" `Quick
      (fun () ->
        let cs = Lazy.force compiled_corpus in
        check "two programs" true (List.length cs = 2);
        List.iter
          (fun c ->
            check
              (c.Campaign.cc_name ^ " has enough activations")
              true
              (List.length c.Campaign.cc_trace >= 4);
            match c.Campaign.cc_ref with
            | Core.Smallstep.Final _ -> ()
            | o ->
              Alcotest.failf "%s reference: %a" c.Campaign.cc_name
                Driver.Runners.pp_c_outcome o)
          cs);
  ]

(* The per-mode expectations, exercised through full trials. Two whole
   mode cycles over both corpus programs, so every (mode, program) cell
   is hit at least once. *)
let campaign_tests =
  [
    Alcotest.test_case "faithful replay is indistinguishable" `Quick (fun () ->
        let compiled = Lazy.force compiled_corpus in
        List.iteri
          (fun k _ ->
            let n_modes = List.length Partner.all_modes in
            (* trial indices congruent to 0 mod n_modes are the control *)
            let t =
              Campaign.try_partner ~compiled ~fuel ~seed:7 (k * n_modes)
            in
            check "undetected" true (t.Campaign.t_verdict = Campaign.Undetected);
            check "full prefix replayed" true t.Campaign.t_prefix_ok;
            check "final" true (t.Campaign.t_outcome = "final"))
          compiled);
    Alcotest.test_case "every rogue mode is detected on every program" `Slow
      (fun () ->
        match run (Campaign.partners ~fuel) ~seed:3 ~trials:28 with
        | Error d -> Alcotest.failf "campaign: %s" (Diagnostics.to_string d)
        | Ok rp ->
          check "survival_ok" true (Campaign.survival_ok rp);
          check "no undetected rogues" true
            (Campaign.undetected_rogues rp = []);
          (* each rogue mode must be caught by its expected channel *)
          let by_mode m =
            List.filter (fun t -> t.Campaign.t_mode = m) rp.Harness.Campaign.results
          in
          let all_have m pred =
            check (Partner.mode_name m) true
              (by_mode m <> [] && List.for_all pred (by_mode m))
          in
          let has_prop p t = List.mem p t.Campaign.t_props in
          all_have Partner.Clobber_callee_save
            (has_prop Property.P_callee_save);
          all_have Partner.Wild_pointer (has_prop Property.P_memory);
          all_have Partner.Call_storm (has_prop Property.P_imports);
          all_have Partner.Early_halt (has_prop Property.P_welltyped);
          all_have Partner.Silent_divergence (fun t ->
              t.Campaign.t_outcome = "out-of-fuel");
          all_have Partner.Wrong_result (fun t ->
              List.mem "divergence" t.Campaign.t_detected_by);
          (* rogue trials still replay their prefix faithfully *)
          List.iter
            (fun t -> check "prefix" true t.Campaign.t_prefix_ok)
            rp.Harness.Campaign.results);
    Alcotest.test_case "same seed, same matrix" `Slow (fun () ->
        let json seed =
          match run (Campaign.partners ~fuel) ~seed ~trials:14 with
          | Error d -> Alcotest.failf "campaign: %s" (Diagnostics.to_string d)
          | Ok rp -> Obs.Json.to_string (Campaign.to_json rp)
        in
        Alcotest.(check string) "reproducible" (json 11) (json 11);
        check "seed matters" true (json 11 <> json 12));
  ]

(* Two synthesized partners (one faithful, one rogue) linked with
   compose_all, then composed with the correct component: the survival
   matrix must still detect every rogue mode, and the rogue partner
   must not be able to hide behind its faithful sibling. *)
let multi_tests =
  [
    Alcotest.test_case "both-faithful control stays undetected" `Quick
      (fun () ->
        let compiled = Lazy.force compiled_corpus in
        let n_modes = List.length Partner.all_modes in
        List.iteri
          (fun k _ ->
            let t = Campaign.try_multi ~compiled ~fuel ~seed:7 (k * n_modes) in
            check "undetected" true (t.Campaign.t_verdict = Campaign.Undetected);
            check "full prefix replayed" true t.Campaign.t_prefix_ok;
            check "final" true (t.Campaign.t_outcome = "final"))
          compiled);
    Alcotest.test_case "every rogue mode detected with a faithful sibling"
      `Slow (fun () ->
        match run (Campaign.multi ~fuel) ~seed:5 ~trials:28 with
        | Error d -> Alcotest.failf "multi: %s" (Diagnostics.to_string d)
        | Ok rp ->
          check "multi_survival_ok" true (Campaign.survival_ok rp);
          check "no undetected rogues" true
            (Campaign.undetected_rogues rp = []);
          (* every mode exercised at least once across 28 trials *)
          List.iter
            (fun m ->
              check (Partner.mode_name m) true
                (List.exists
                   (fun t -> t.Campaign.t_mode = m)
                   rp.Harness.Campaign.results))
            Partner.all_modes;
          (* the composite's replay prefix holds up to the global rogue
             activation even though it interleaves both partners *)
          List.iter
            (fun t -> check "prefix" true t.Campaign.t_prefix_ok)
            rp.Harness.Campaign.results);
    Alcotest.test_case "multi matrix is reproducible per seed" `Slow
      (fun () ->
        let json seed =
          match run (Campaign.multi ~fuel) ~seed ~trials:14 with
          | Error d -> Alcotest.failf "multi: %s" (Diagnostics.to_string d)
          | Ok rp -> Obs.Json.to_string (Campaign.to_json rp)
        in
        Alcotest.(check string) "reproducible" (json 11) (json 11);
        check "seed matters" true (json 11 <> json 12));
  ]

(* Unit-level monitor checks: feed boundary events by hand. *)
let monitor_tests =
  let sg = Mtypes.signature_main in
  let result_reg = Li.Mreg (Target.Conventions.loc_result sg) in
  let rs =
    Li.Pregfile.set_list
      [ (Li.PC, Vptr (1, 0)); (Li.RA, Vlong 0x1000L); (Li.SP, Vptr (2, 128)) ]
      Li.Pregfile.init
  in
  let q = { Li.aq_rs = rs; aq_mem = Mem.empty } in
  let good_reply =
    {
      Li.ar_rs =
        rs
        |> Li.Pregfile.set result_reg (Vint 3l)
        |> Li.Pregfile.set Li.PC (Vlong 0x1000L);
      ar_mem = Mem.empty;
    }
  in
  let f =
    { Driver.Io_oracle.prim_name = "f"; prim_sig = sg; prim_impl = (fun _ -> 3l) }
  in
  let mon () = Property.monitor ~exports:[ (1, f) ] ~partner_imports:[] () in
  let push m =
    m.Property.m_observe
      (Hcomp.Bpush { caller = 0; callee = 1; question = q })
  in
  let pop m r =
    m.Property.m_observe
      (Hcomp.Bpop { callee = 1; caller = 0; answer = r })
  in
  let props m = Property.violated (m.Property.m_violations ()) in
  [
    Alcotest.test_case "convention-respecting reply raises nothing" `Quick
      (fun () ->
        let m = mon () in
        push m;
        pop m good_reply;
        check "clean" true (props m = []);
        check "one call recorded" true
          (List.map (fun c -> c.Property.c_name) (m.Property.m_calls ())
          = [ "f" ]));
    Alcotest.test_case "not returning to RA is a callee-save violation"
      `Quick (fun () ->
        let m = mon () in
        push m;
        pop m
          { good_reply with
            Li.ar_rs = Li.Pregfile.set Li.PC (Vlong 0x9999L) good_reply.Li.ar_rs
          };
        check "callee-save" true (props m = [ Property.P_callee_save ]));
    Alcotest.test_case "undefined result is a welltyped violation" `Quick
      (fun () ->
        let m = mon () in
        push m;
        pop m
          { good_reply with
            Li.ar_rs = Li.Pregfile.set result_reg Vundef good_reply.Li.ar_rs
          };
        check "welltyped" true (props m = [ Property.P_welltyped ]));
    Alcotest.test_case "the monitor copies the register file a push lends it"
      `Quick (fun () ->
        let m = mon () in
        let lent = Li.Pregfile.copy rs in
        m.Property.m_observe
          (Hcomp.Bpush
             { caller = 0; callee = 1; question = { q with Li.aq_rs = lent } });
        (* a handed-over register file is the callee's to write *)
        lent.(Li.preg_index Li.SP) <- Vptr (2, 64);
        pop m good_reply;
        check "clean" true (props m = []));
    Alcotest.test_case "partner-initiated call outside imports" `Quick
      (fun () ->
        let m = mon () in
        m.Property.m_observe
          (Hcomp.Bpush { caller = 1; callee = 0; question = q });
        check "imports" true (props m = [ Property.P_imports ]));
  ]

(* The Hcomp hooks the campaign relies on: overlap diagnostics and
   boundary observation at real mutual-recursion depth. *)
let parse = Cfrontend.Cparser.parse_program

let trivial_lts name : (unit, int, unit, int, unit) Core.Smallstep.lts =
  {
    Core.Smallstep.name;
    dom = (fun _ -> true);
    init = (fun _ -> ());
    step = (fun _ -> []);
    at_external = (fun _ -> None);
    after_external = (fun () _ -> ());
    final = (fun _ -> Some ());
    handover = None;
  }

(* Both accept question 1: [caller] answers it with 10, [callee] with
   20. From state 0 [caller] asks 1 and answers 100 plus the reply. *)
let caller : (int, int, int, int, int) Core.Smallstep.lts =
  {
    Core.Smallstep.name = "caller";
    dom = (fun q -> q = 0 || q = 1);
    init = (fun q -> q);
    step = (fun _ -> []);
    at_external = (fun s -> if s = 0 then Some 1 else None);
    after_external = (fun _ r -> 100 + r);
    final = (fun s -> if s = 0 then None else if s = 1 then Some 10 else Some s);
    handover = None;
  }

let callee : (int, int, int, int, int) Core.Smallstep.lts =
  { caller with name = "callee"; dom = (fun q -> q = 1); final = (fun _ -> Some 20) }

let hcomp_tests =
  [
    Alcotest.test_case "overlapping domains at a push: one start, in component 0"
      `Quick (fun () ->
        let diags = ref [] and events = ref [] in
        let l =
          Hcomp.compose
            ~observe:(fun e -> events := e :: !events)
            ~on_diag:(fun d -> diags := d :: !diags)
            caller callee
        in
        Alcotest.(check int) "transitions at the push" 1
          (List.length (l.Core.Smallstep.step (l.Core.Smallstep.init 0)));
        check "pushed into component 0" true
          (match !events with
          | [ Hcomp.Bpush { caller = 0; callee = 0; question = 1 } ] -> true
          | _ -> false);
        check "overlap diagnosed at the push" true
          (List.exists
             (fun d ->
               d.Diagnostics.kind = Diagnostics.Domain_overlap
               && List.assoc_opt "rule" d.Diagnostics.context = Some "push")
             !diags);
        match Core.Smallstep.run ~fuel:10 l ~oracle:(fun _ -> None) 0 with
        | Core.Smallstep.Final (_, 110) -> ()
        | _ -> Alcotest.fail "component 0 should answer the pushed question");
    Alcotest.test_case "overlapping domains raise a diagnostic" `Quick
      (fun () ->
        let diags = ref [] in
        let l =
          Hcomp.compose
            ~on_diag:(fun d -> diags := d :: !diags)
            (trivial_lts "l1") (trivial_lts "l2")
        in
        ignore (l.Core.Smallstep.init 0);
        check "one overlap" true
          (List.exists
             (fun d ->
               d.Diagnostics.kind = Diagnostics.Domain_overlap)
             !diags));
    Alcotest.test_case "boundary observation at recursion depth >= 3" `Quick
      (fun () ->
        let mutual_a =
          "int odd(int n); int even(int n) { if (n == 0) return 1; return \
           odd(n - 1); }"
        and mutual_b =
          "int even(int n); int odd(int n) { if (n == 0) return 0; return \
           even(n - 1); }"
        in
        let p1 = parse mutual_a and p2 = parse mutual_b in
        let a1 = Errors.get (Driver.Compiler.compile_c_to_asm mutual_a) in
        let a2 = Errors.get (Driver.Compiler.compile_c_to_asm mutual_b) in
        let symbols =
          Driver.Linking.shared_symbols
            [ Iface.Ast.prog_defs_names p1; Iface.Ast.prog_defs_names p2 ]
        in
        let depth = ref 0 and max_depth = ref 0 and pushes = ref 0 in
        let observe = function
          | Hcomp.Bpush _ ->
            incr depth;
            incr pushes;
            if !depth > !max_depth then max_depth := !depth
          | Hcomp.Bpop _ -> decr depth
        in
        let composed =
          Hcomp.compose ~observe
            (Backend.Asm.semantics ~symbols a1)
            (Backend.Asm.semantics ~symbols a2)
        in
        let ge =
          Iface.Genv.globalenv ~symbols
            (Result.get_ok
               (Iface.Ast.link_list
                  ~internal_sig:Cfrontend.Csyntax.fn_sig [ p1; p2 ]))
        in
        let q =
          match
            ( Iface.Genv.find_symbol ge (Ident.intern "odd"),
              Iface.Genv.init_mem ~symbols
                (Result.get_ok
                   (Iface.Ast.link_list
                      ~internal_sig:Cfrontend.Csyntax.fn_sig [ p1; p2 ])) )
          with
          | Some b, Some m ->
            {
              Li.cq_vf = Vptr (b, 0);
              cq_sg = { Mtypes.sig_args = [ Mtypes.Tint ]; sig_res = Some Mtypes.Tint };
              cq_args = [ Vint 7l ];
              cq_mem = m;
            }
          | _ -> Alcotest.fail "no query"
        in
        (match Driver.Runners.run_a_level composed ~fuel q with
        | Ok (Core.Smallstep.Final (_, { Li.cr_res = Vint 1l; _ })) -> ()
        | Ok o -> Alcotest.failf "odd(7): %a" Driver.Runners.pp_c_outcome o
        | Error e -> Alcotest.failf "odd(7): %s" e);
        (* odd(7) ping-pongs across the boundary: after the initial
           entry (not a boundary event), 7 nested cross-calls *)
        check "balanced" true (!depth = 0);
        Alcotest.(check int) "pushes" 7 !pushes;
        check "depth >= 3" true (!max_depth >= 3));
  ]

let shared_symbols_tests =
  [
    Alcotest.test_case "shared_symbols dedups in first-occurrence order"
      `Quick (fun () ->
        let i = Ident.intern in
        let got =
          Driver.Linking.shared_symbols
            [
              [ i "c"; i "a"; i "c" ];
              [ i "b"; i "a"; i "d" ];
              [ i "d"; i "e" ];
            ]
        in
        Alcotest.(check (list string))
          "order" [ "c"; "a"; "b"; "d"; "e" ]
          (List.map Ident.name got));
  ]

let suite =
  ( "robust",
    name_tests @ corpus_tests @ campaign_tests @ multi_tests @ monitor_tests
    @ hcomp_tests @ shared_symbols_tests )
