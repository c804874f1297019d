(** Open-component tests: programs with genuine external calls, run at
    the source and target levels against environment oracles defined at
    each level, comparing the {e observable interaction sequences}
    (requirement #2 of the paper: the correctness theorem relates the
    behaviors of corresponding source and target components directly).

    This also exercises the co-execution checker [Core.Coexec] — the
    executable Fig. 6 — on open components: at every outgoing call the
    marshaled target question must be related to the source question by
    the composite convention [CA]. *)

open Support
open Memory.Mtypes
open Memory.Values
open Iface
open Iface.Li

let check = Alcotest.(check bool)
let fuel = 1_000_000

(* Primitives: a pure function the environment provides, and a logger. *)
let prims oracle_state =
  [
    { Driver.Io_oracle.prim_name = "env_twice";
      prim_sig = { sig_args = [ Tint ]; sig_res = Some Tint };
      prim_impl =
        (fun args -> match args with [ n ] -> Int32.mul 2l n | _ -> 0l) };
    { Driver.Io_oracle.prim_name = "env_out";
      prim_sig = { sig_args = [ Tint; Tint ]; sig_res = Some Tint };
      prim_impl =
        (fun args ->
          oracle_state := args :: !oracle_state;
          0l) };
  ]

let src =
  {|
int env_twice(int n);
int env_out(int chan, int v);

int pipeline(int n) {
  int acc = 0;
  for (int i = 0; i < n; i++) {
    int d = env_twice(i + acc);
    env_out(1, d);
    acc = acc + d;
  }
  return acc;
}
|}

let program = Cfrontend.Cparser.parse_program src
let symbols = Ast.prog_defs_names program

(* A second input: a primitive with seven integer arguments, one more
   than there are argument registers, so the caller passes the last one
   in the outgoing region at SP. Every argument moves the answer. *)
let prims7 _ =
  [
    { Driver.Io_oracle.prim_name = "env_mix7";
      prim_sig = { sig_args = List.init 7 (fun _ -> Tint); sig_res = Some Tint };
      prim_impl =
        List.fold_left (fun acc x -> Int32.add (Int32.mul acc 10l) x) 0l };
  ]

let program7 =
  Cfrontend.Cparser.parse_program
    {|
int env_mix7(int a, int b, int c, int d, int e, int f, int g);

int pipeline(int n) {
  int acc = 0;
  for (int i = 0; i < n; i++)
    acc = env_mix7(i, 1, 2, 3, 4, 5, acc + 1);
  return acc;
}
|}

let query_in program n =
  let symbols = Ast.prog_defs_names program in
  let ge = Genv.globalenv ~symbols program in
  let m = Option.get (Genv.init_mem ~symbols program) in
  { cq_vf = Genv.symbol_address ge (Ident.intern "pipeline") 0;
    cq_sg = { sig_args = [ Tint ]; sig_res = Some Tint };
    cq_args = [ Vint (Int32.of_int n) ]; cq_mem = m }

let query = query_in program

(* Run the source (Clight, C-level oracle) and the target (Asm, A-level
   oracle) of an input and compare results and logged interactions. *)
let run_both ?(input = (program, prims)) n =
  let program, prims = input in
  let symbols = Ast.prog_defs_names program in
  let st1 = ref [] and st2 = ref [] in
  let rec1, log1 = Driver.Io_oracle.make_log () in
  let rec2, log2 = Driver.Io_oracle.make_log () in
  let c_oracle = Driver.Io_oracle.c_oracle ~symbols (prims st1) rec1 in
  let a_oracle = Driver.Io_oracle.a_oracle ~symbols (prims st2) rec2 in
  let l1 = Cfrontend.Clight.semantics ~symbols program in
  let arts = Errors.get (Driver.Compiler.compile program) in
  let l2 = Backend.Asm.semantics ~symbols arts.asm in
  let q = query_in program n in
  let o1 = Core.Smallstep.run ~fuel l1 ~oracle:c_oracle q in
  let o2 =
    match Driver.Runners.cc_ca.Core.Simconv.fwd_query q with
    | Some (w, aq) -> (
      match Core.Smallstep.run ~fuel l2 ~oracle:a_oracle aq with
      | Core.Smallstep.Final (t, ar) -> (
        match Driver.Runners.cc_ca.Core.Simconv.bwd_reply w ar with
        | Some cr -> Core.Smallstep.Final (t, cr)
        | None -> Core.Smallstep.Goes_wrong (t, "unmarshalable reply"))
      | Core.Smallstep.Goes_wrong (t, why) -> Core.Smallstep.Goes_wrong (t, why)
      | Core.Smallstep.Env_stuck (t, _) ->
        Core.Smallstep.Goes_wrong (t, "A-level oracle refused")
      | Core.Smallstep.Env_violation (t, why) ->
        Core.Smallstep.Env_violation (t, why)
      | Core.Smallstep.Out_of_fuel t -> Core.Smallstep.Out_of_fuel t
      | Core.Smallstep.Refused -> Core.Smallstep.Refused)
    | None -> Core.Smallstep.Goes_wrong ([], "marshal failed")
  in
  (o1, o2, log1 (), log2 ())

(* The inputs the two levels must agree on: register arguments only,
   and a primitive taking one argument on the stack. *)
let inputs = [ (program, prims); (program7, prims7) ]

let observable_tests =
  [
    Alcotest.test_case "results agree through the environment" `Quick
      (fun () ->
        List.iter
          (fun input ->
            let o1, o2, _, _ = run_both ~input 5 in
            match (o1, o2) with
            | Core.Smallstep.Final (_, r1), Core.Smallstep.Final (_, r2) ->
              check "lessdef" true (lessdef r1.cr_res r2.cr_res);
              check "defined" true (r1.cr_res <> Vundef)
            | _ -> Alcotest.fail "expected two final outcomes")
          inputs);
    Alcotest.test_case "interaction sequences coincide" `Quick (fun () ->
        List.iter
          (fun input ->
            let _, _, log1, log2 = run_both ~input 6 in
            check "calls logged" true (log1 <> []);
            Alcotest.(check int) "same length" (List.length log1) (List.length log2);
            List.iter2
              (fun (e1 : Driver.Io_oracle.log_entry) e2 ->
                check "same call" true
                  (e1.call_name = e2.Driver.Io_oracle.call_name
                  && e1.call_args = e2.Driver.Io_oracle.call_args
                  && e1.call_res = e2.Driver.Io_oracle.call_res))
              log1 log2)
          inputs);
    Alcotest.test_case "interaction order is source order" `Quick (fun () ->
        let _, _, log1, _ = run_both 2 in
        let names = List.map (fun e -> e.Driver.Io_oracle.call_name) log1 in
        check "alternating" true
          (names = [ "env_twice"; "env_out"; "env_twice"; "env_out" ]));
    Alcotest.test_case "no environment => both stuck on the call" `Quick
      (fun () ->
        let l1 = Cfrontend.Clight.semantics ~symbols program in
        match Core.Smallstep.run ~fuel l1 ~oracle:(fun _ -> None) (query 1) with
        | Core.Smallstep.Env_stuck (_, q) ->
          check "stuck on env_twice" true
            (Option.map
               (fun p -> p.Driver.Io_oracle.prim_name)
               (Driver.Io_oracle.find_export
                  (Driver.Io_oracle.export_table ~symbols (prims (ref [])))
                  q.cq_vf)
            = Some "env_twice")
        | _ -> Alcotest.fail "expected env-stuck");
  ]

(* The Coexec checker (Fig. 6) on an open component pair: Clight vs Asm
   under the composite convention CA; the environment behavior is given
   once at the source level and transported by the convention. *)
let coexec_tests =
  [
    Alcotest.test_case "co-execution Clight vs Asm (open, Fig. 6)" `Quick
      (fun () ->
        let st = ref [] in
        let rec_, _ = Driver.Io_oracle.make_log () in
        let c_oracle = Driver.Io_oracle.c_oracle ~symbols (prims st) rec_ in
        let arts = Errors.get (Driver.Compiler.compile program) in
        (* The source is Clight after SimplLocals: its locals are lifted
           to temporaries, so its memory state is exactly the shared
           globals — the identity fragment of R* that [cc_ca] checks.
           (Pre-SimplLocals Clight relates by a nontrivial injection,
           which is checked at the memory-model level instead.) *)
        let l1 =
          Cfrontend.Clight.semantics ~mode:`Temp_params ~symbols arts.clight2
        in
        let l2 = Backend.Asm.semantics ~symbols arts.asm in
        match
          Core.Coexec.check ~fuel ~l1 ~l2 ~cc_in:Driver.Runners.cc_ca
            ~cc_out:Driver.Runners.cc_ca ~oracle:c_oracle (query 4)
        with
        | Core.Coexec.Pass -> ()
        | Core.Coexec.Fail msg -> Alcotest.failf "co-execution failed: %s" msg);
    Alcotest.test_case "co-execution detects a lying environment" `Quick
      (fun () ->
        (* If the target-level environment answered differently from the
           source-level one, the reply check must flag it. We simulate
           this by comparing against a *different* program rather than
           tampering with the checker: Clight of a program returning
           n+1 against Asm of the original — queries relate but final
           answers must not. *)
        let src' = Testlib.Str_replace.replace_main src in
        ignore src';
        let other =
          Cfrontend.Cparser.parse_program
            "int env_twice(int n);\nint env_out(int c, int v);\nint pipeline(int n) { return n + 1; }"
        in
        let st = ref [] in
        let rec_, _ = Driver.Io_oracle.make_log () in
        let c_oracle = Driver.Io_oracle.c_oracle ~symbols (prims st) rec_ in
        let arts = Errors.get (Driver.Compiler.compile program) in
        let other2 = Errors.get (Passes.Simpllocals.transf_program other) in
        let l1 =
          Cfrontend.Clight.semantics ~mode:`Temp_params ~symbols other2
        in
        let l2 = Backend.Asm.semantics ~symbols arts.asm in
        match
          Core.Coexec.check ~fuel ~l1 ~l2 ~cc_in:Driver.Runners.cc_ca
            ~cc_out:Driver.Runners.cc_ca ~oracle:c_oracle (query 4)
        with
        | Core.Coexec.Pass -> Alcotest.fail "expected a counterexample"
        | Core.Coexec.Fail _ -> ());
  ]

(* The interaction log of an observed Asm run whose environment calls go
   through the A-level oracle, event for event: the steps between calls
   and the fuel are the run loop's accounting. *)
let log_tests =
  [
    Alcotest.test_case "interaction log of an Asm run with calls" `Quick
      (fun () ->
        let rec_, _ = Driver.Io_oracle.make_log () in
        let oracle = Driver.Io_oracle.a_oracle ~symbols (prims (ref [])) rec_ in
        let arts = Errors.get (Driver.Compiler.compile program) in
        let l = Backend.Asm.semantics ~symbols arts.asm in
        Obs.reset_all ();
        let evs =
          Obs.with_enabled (fun () ->
              ignore (Driver.Runners.run_a_level l ~fuel ~oracle (query 2));
              Obs.Interaction_log.events ())
        in
        let open Obs.Interaction_log in
        (* two iterations, each calling env_twice (b1) and env_out (b2):
           the question and the answer as the C query and reply, each
           call and reply as the A-level register file *)
        let call q r = [ Steps 1; Call ("{ " ^ q ^ " }"); Reply ("{ " ^ r ^ " }") ] in
        let expected =
          (Question "&b3+0[(int) -> int](2)"
           :: List.concat
                [ call "pc=&b1+0 sp=&b4+0 ra=&b3+14 bx=2 di=0 r12=0 r13=0"
                    "pc=&b3+14 sp=&b4+0 ra=&b3+14 ax=0 bx=2 di=0 r12=0 r13=0";
                  call "pc=&b2+0 sp=&b4+0 ra=&b3+18 ax=0 bx=2 si=0 di=1 r12=0 r13=0 r14=0"
                    "pc=&b3+18 sp=&b4+0 ra=&b3+18 ax=0 bx=2 si=0 di=1 r12=0 r13=0 r14=0";
                  call "pc=&b1+0 sp=&b4+0 ra=&b3+14 ax=0 bx=2 si=0 di=1 r12=0 r13=1 r14=0"
                    "pc=&b3+14 sp=&b4+0 ra=&b3+14 ax=2 bx=2 si=0 di=1 r12=0 r13=1 r14=0";
                  call "pc=&b2+0 sp=&b4+0 ra=&b3+18 ax=2 bx=2 si=2 di=1 r12=0 r13=1 r14=2"
                    "pc=&b3+18 sp=&b4+0 ra=&b3+18 ax=0 bx=2 si=2 di=1 r12=0 r13=1 r14=2" ])
          @ [ Steps 1; Final "2"; Fuel_consumed 9 ]
        in
        if evs <> expected then
          Alcotest.failf "log:@.%a" (Format.pp_print_list pp_event) evs);
    Alcotest.test_case "interaction log of a Clight run renders its replies"
      `Quick (fun () ->
        let rec_, _ = Driver.Io_oracle.make_log () in
        let oracle = Driver.Io_oracle.c_oracle ~symbols (prims (ref [])) rec_ in
        let l = Cfrontend.Clight.semantics ~symbols program in
        Obs.reset_all ();
        let evs =
          Obs.with_enabled (fun () ->
              ignore (Driver.Runners.run_c_level l ~fuel ~oracle (query 2));
              Obs.Interaction_log.events ())
        in
        let open Obs.Interaction_log in
        (* env_twice (b1) doubles, env_out (b2) answers 0: each reply to
           an outgoing call is the C reply's value, not [_] *)
        let call q r = [ Call q; Reply r ] in
        let expected =
          (Question "&b3+0[(int) -> int](2)" :: Steps 15
           :: call "&b1+0[(int) -> int](0)" "0")
          @ (Steps 6 :: call "&b2+0[(int, int) -> int](1, 0)" "0")
          @ (Steps 13 :: call "&b1+0[(int) -> int](1)" "2")
          @ (Steps 6 :: call "&b2+0[(int, int) -> int](1, 2)" "0")
          @ [ Steps 13; Final "2"; Fuel_consumed 57 ]
        in
        if evs <> expected then
          Alcotest.failf "log:@.%a" (Format.pp_print_list pp_event) evs);
  ]

let suite = ("open-components", observable_tests @ coexec_tests @ log_tests)
