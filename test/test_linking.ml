(** Linking and horizontal-composition tests: the empirical counterparts
    of Theorem 3.4 (⊕ preserves simulation), Theorem 3.5 (Asm linking
    implements ⊕) and Corollary 3.9 (separate compilation). *)

open Support
open Memory.Mtypes
open Memory.Values
open Iface
open Iface.Li

let check = Alcotest.(check bool)
let fuel = 1_000_000

let parse = Cfrontend.Cparser.parse_program

(* Build the query calling [name] of the linked program with int args. *)
let query_for units name args symbols =
  match Ast.link_list ~internal_sig:Cfrontend.Csyntax.fn_sig units with
  | Error _ -> None
  | Ok linked -> (
    let ge = Genv.globalenv ~symbols linked in
    match (Genv.find_symbol ge (Ident.intern name), Genv.init_mem ~symbols linked) with
    | Some b, Some m ->
      Some
        { cq_vf = Vptr (b, 0);
          cq_sg = { sig_args = List.map (fun _ -> Tint) args; sig_res = Some Tint };
          cq_args = List.map (fun n -> Vint (Int32.of_int n)) args;
          cq_mem = m }
    | _ -> None)

(* Corollary 3.9 on a pair of units. *)
let separate_compilation name ~entry ~args ~expect units =
  Alcotest.test_case name `Quick (fun () ->
      let units = List.map parse units in
      match
        Driver.Linking.separate_compilation_experiment ~fuel units
          ~query:(fun symbols -> query_for units entry args symbols)
      with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok e ->
        check (name ^ " agree") true e.Driver.Linking.exp_agree;
        (match e.Driver.Linking.exp_linked with
        | Core.Smallstep.Final (_, { cr_res = Vint n; _ }) ->
          Alcotest.(check int32) name expect n
        | o ->
          Alcotest.failf "%s: target %a" name Driver.Runners.pp_c_outcome o))

(* Both units compiled to Asm, their shared symbols, and the query
   calling [entry] of the linked program. *)
let asm_pair ~entry ~args (src1, src2) =
  let p1 = parse src1 and p2 = parse src2 in
  let a1 = Errors.get (Driver.Compiler.compile_c_to_asm src1) in
  let a2 = Errors.get (Driver.Compiler.compile_c_to_asm src2) in
  let symbols =
    Driver.Linking.shared_symbols
      [ Ast.prog_defs_names p1; Ast.prog_defs_names p2 ]
  in
  match query_for [ p1; p2 ] entry args symbols with
  | None -> Alcotest.fail "no query"
  | Some q -> (a1, a2, symbols, q)

(* Theorem 3.5 on a pair of units. *)
let asm_linking name ~entry ~args ~expect units =
  Alcotest.test_case name `Quick (fun () ->
      let a1, a2, _, q = asm_pair ~entry ~args units in
      match Driver.Linking.asm_link_experiment ~fuel a1 a2 q with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok e ->
        check (name ^ ": (+) = linked") true e.Driver.Linking.exp_agree;
        (match e.Driver.Linking.exp_linked with
        | Core.Smallstep.Final (_, { cr_res = Vint n; _ }) ->
          Alcotest.(check int32) name expect n
        | o -> Alcotest.failf "%s: %a" name Driver.Runners.pp_c_outcome o))

(* The A-level query [CA] marshals [q] to. *)
let c_aq q =
  match Driver.Runners.cc_ca.Core.Simconv.fwd_query q with
  | Some (_, aq) -> aq
  | None -> Alcotest.fail "CA cannot marshal the query"

(* Theorem 3.5's composition run twice, on the threaded and on the
   naive Asm dispatcher: the whole replies, register file and memory,
   agree, and the threaded answer leaves the composite (i•) as a
   snapshot although its pushes and pops handed owned state over. *)
let hcomp_threaded_naive name ~entry ~args units =
  Alcotest.test_case name `Quick (fun () ->
      let a1, a2, symbols, q = asm_pair ~entry ~args units in
      let aq = c_aq q in
      let reply sem =
        match
          Core.Smallstep.run ~fuel
            (Core.Hcomp.compose (sem ~symbols a1) (sem ~symbols a2))
            ~oracle:(fun _ -> None) aq
        with
        | Core.Smallstep.Final (_, r) -> r
        | _ -> Alcotest.failf "%s: (+) run did not finish" name
      in
      let t = reply Backend.Asm.semantics
      and n = reply Backend.Asm.semantics_naive in
      check (name ^ ": register files agree") true
        (Pregfile.equal t.ar_rs n.ar_rs);
      check (name ^ ": memories agree") true
        (Memory.Mem.equal t.ar_mem n.ar_mem);
      check (name ^ ": the answer's memory is frozen") false
        (Memory.Mem.owned t.ar_mem))

(* Under the step-first run loop, each [⊕] push asks the caller once:
   the composite's own [at_external] is not probed when its step (the
   push) succeeds. Between two threaded Asm components the question is
   handed over ({!Core.Smallstep.handover}), so the wrapper counts the
   answers of both probes, as a wrapper of a probe must, and every push
   must have gone through the handover. The run is made with an
   [observe] hook that counts the pushes, and without one. *)
let one_answer_per_push name ~entry ~args ~pushes:expected units =
  Alcotest.test_case name `Quick (fun () ->
      let a1, a2, symbols, q = asm_pair ~entry ~args units in
      let aq = c_aq q in
      let run ~hooked =
        let answers = ref 0 and handed = ref 0 and pushes = ref 0 in
        let count n probe s =
          let r = probe s in
          if Option.is_some r then incr n;
          r
        in
        let counted (l : _ Core.Smallstep.lts) =
          {
            l with
            at_external = count answers l.at_external;
            handover =
              Option.map
                (fun (h : _ Core.Smallstep.handover) ->
                  { h with hand_external = count handed h.hand_external })
                l.handover;
          }
        in
        let observe = function
          | Core.Hcomp.Bpush _ -> incr pushes
          | Core.Hcomp.Bpop _ -> ()
        in
        let l1 = counted (Backend.Asm.semantics ~symbols a1)
        and l2 = counted (Backend.Asm.semantics ~symbols a2) in
        let l =
          if hooked then Core.Hcomp.compose ~observe l1 l2
          else Core.Hcomp.compose l1 l2
        in
        (match Core.Smallstep.run ~fuel l ~oracle:(fun _ -> None) aq with
        | Core.Smallstep.Final _ -> ()
        | _ -> Alcotest.fail "(+) run did not finish");
        let pushes = if hooked then !pushes else expected in
        Alcotest.(check int) "pushes" expected pushes;
        Alcotest.(check int) "answers = pushes" pushes (!answers + !handed);
        Alcotest.(check int) "every push handed over" pushes !handed
      in
      run ~hooked:true;
      run ~hooked:false)

(* Figure 1 of the paper. *)
let fig1_a = "int mult(int n, int p) { return n * p; }"
let fig1_b = "int mult(int n, int p); int sqr(int n) { return mult(n, n); }"

let mutual_a =
  "int odd(int n); int even(int n) { if (n == 0) return 1; return odd(n - 1); }"

let mutual_b =
  "int even(int n); int odd(int n) { if (n == 0) return 0; return even(n - 1); }"

(* [sum] calls [even] inside its unit and [even] tail-calls into the
   other unit, so the activation [⊕] pushes for [odd] and [even] returns
   into code of the calling unit. *)
let tail_a =
  "int odd(int n); int even(int n) { if (n == 0) return 1; return odd(n - 1); }\n\
   int sum(int k) { int s = 0; for (int i = 0; i < k; i++) s = s + even(i) * i; \
   return s; }"

(* Thm 3.5 below A: at every level from Clight to Mach, the [⊕] of the
   two units' programs answers what their linked program answers. *)
let below_a ~entry ~args ~expect (src1, src2) =
  let module Compiler = Driver.Compiler in
  let p1 = parse src1 and p2 = parse src2 in
  let a1 = Errors.get (Compiler.compile p1) and a2 = Errors.get (Compiler.compile p2) in
  let symbols =
    Driver.Linking.shared_symbols
      [ Ast.prog_defs_names p1; Ast.prog_defs_names p2 ]
  in
  let q =
    match query_for [ p1; p2 ] entry args symbols with
    | Some q -> q
    | None -> Alcotest.fail "no query"
  in
  let answer what = function
    | Ok (Core.Smallstep.Final (_, { cr_res = Vint n; _ })) ->
      Alcotest.(check int32) what expect n
    | Ok o -> Alcotest.failf "%s: %a" what Driver.Runners.pp_c_outcome o
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  let agree level composed linked =
    answer (level ^ " (+)") composed;
    answer (level ^ " linked") linked
  in
  let at_c lts = Ok (Driver.Runners.run_c_level lts ~fuel q) in
  let at_l lts = Driver.Runners.run_l_level lts ~fuel q in
  let at_m lts = Driver.Runners.run_m_level lts ~fuel q in
  let both sem x1 x2 = Core.Hcomp.compose (sem x1) (sem x2) in
  let clight p = Cfrontend.Clight.semantics ~symbols p in
  agree "Clight" (at_c (both clight p1 p2))
    (at_c (clight (Errors.get (Cfrontend.Csyntax.link p1 p2))));
  let clight2 = Cfrontend.Clight.semantics ~mode:`Temp_params ~symbols in
  let c1 = a1.Compiler.clight2 and c2 = a2.Compiler.clight2 in
  agree "Clight after SimplLocals" (at_c (both clight2 c1 c2))
    (at_c (clight2 (Errors.get (Cfrontend.Csyntax.link c1 c2))));
  let csharpminor = Cfrontend.Csharpminor.semantics ~symbols in
  let s1 = a1.Compiler.csharpminor and s2 = a2.Compiler.csharpminor in
  agree "Csharpminor" (at_c (both csharpminor s1 s2))
    (at_c (csharpminor (Errors.get (Cfrontend.Csharpminor.link s1 s2))));
  let cminor = Middle.Cminor.semantics ~symbols in
  let m1 = a1.Compiler.cminor and m2 = a2.Compiler.cminor in
  agree "Cminor" (at_c (both cminor m1 m2))
    (at_c (cminor (Errors.get (Middle.Cminor.link m1 m2))));
  let cminorsel = Middle.Cminorsel.semantics ~symbols in
  let m1 = a1.Compiler.cminorsel and m2 = a2.Compiler.cminorsel in
  agree "CminorSel" (at_c (both cminorsel m1 m2))
    (at_c (cminorsel (Errors.get (Middle.Cminorsel.link m1 m2))));
  let rtl = Middle.Rtl.semantics ~symbols in
  let r1 = a1.Compiler.rtl and r2 = a2.Compiler.rtl in
  agree "RTL" (at_c (both rtl r1 r2)) (at_c (rtl (Errors.get (Middle.Rtl.link r1 r2))));
  let ltl = Backend.Ltl.semantics ~symbols in
  let l1 = a1.Compiler.ltl and l2 = a2.Compiler.ltl in
  agree "LTL" (at_l (both ltl l1 l2)) (at_l (ltl (Errors.get (Backend.Ltl.link l1 l2))));
  let linear = Backend.Linear.semantics ~symbols in
  let l1 = a1.Compiler.linear_clean and l2 = a2.Compiler.linear_clean in
  agree "Linear" (at_l (both linear l1 l2))
    (at_l (linear (Errors.get (Backend.Linear.link l1 l2))));
  let mach = Backend.Mach.semantics ~symbols in
  let m1 = a1.Compiler.mach and m2 = a2.Compiler.mach in
  agree "Mach" (at_m (both mach m1 m2)) (at_m (mach (Errors.get (Backend.Mach.link m1 m2))))

let globals_a = "int shared = 5; int get(void) { return shared; }"
let globals_b =
  "int shared; int get(void); int bump(void) { shared = shared + 1; return get(); }"

let stackargs_a =
  "int wide(int a,int b,int c,int d,int e,int f,int g,int h) { return g * 100 + h; }"

let stackargs_b =
  "int wide(int a,int b,int c,int d,int e,int f,int g,int h); int call_wide(int x) { return wide(0,0,0,0,0,0,x, x + 1); }"

let tests =
  [
    separate_compilation "Cor 3.9: Fig. 1 (sqr/mult)" ~entry:"sqr" ~args:[ 3 ]
      ~expect:9l [ fig1_a; fig1_b ];
    separate_compilation "Cor 3.9: cross-module mutual recursion"
      ~entry:"even" ~args:[ 9 ] ~expect:0l [ mutual_a; mutual_b ];
    separate_compilation "Cor 3.9: shared globals" ~entry:"bump" ~args:[]
      ~expect:6l [ globals_a; globals_b ];
    separate_compilation "Cor 3.9: stack args across modules"
      ~entry:"call_wide" ~args:[ 7 ] ~expect:708l [ stackargs_a; stackargs_b ];
    separate_compilation "Cor 3.9: three units" ~entry:"top" ~args:[ 4 ]
      ~expect:24l
      [
        "int fact(int n);\nint top(int n) { return fact(n); }";
        "int mul(int a, int b);\nint fact(int n) { if (n < 2) return 1; return mul(n, fact(n - 1)); }";
        "int mul(int a, int b) { return a * b; }";
      ];
    asm_linking "Thm 3.5: Fig. 1 at Asm level" ~entry:"sqr" ~args:[ 7 ]
      ~expect:49l (fig1_a, fig1_b);
    asm_linking "Thm 3.5: mutual recursion at Asm level" ~entry:"odd"
      ~args:[ 7 ] ~expect:1l (mutual_a, mutual_b);
    asm_linking "Thm 3.5: globals at Asm level" ~entry:"bump" ~args:[]
      ~expect:6l (globals_a, globals_b);
    asm_linking "Thm 3.5: cross-unit tail calls from an internal call"
      ~entry:"sum" ~args:[ 10 ] ~expect:20l (tail_a, mutual_b);
    Alcotest.test_case "Thm 3.5 below A: (+) agrees with the linked program"
      `Quick (fun () ->
        below_a ~entry:"odd" ~args:[ 7 ] ~expect:1l (mutual_a, mutual_b);
        below_a ~entry:"sum" ~args:[ 10 ] ~expect:20l (tail_a, mutual_b);
        below_a ~entry:"bump" ~args:[] ~expect:6l (globals_a, globals_b);
        below_a ~entry:"call_wide" ~args:[ 7 ] ~expect:708l
          (stackargs_a, stackargs_b));
  ]

(* Theorem 3.4-flavored property: composing at the source and target
   levels yields behaviors related by the convention, across random
   inputs. *)
let thm34_property =
  let p1 = parse fig1_a and p2 = parse fig1_b in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Thm 3.4/3.8: sqr agrees for random inputs"
       ~count:25
       (QCheck.int_range (-1000) 1000)
       (fun n ->
         match
           Driver.Linking.separate_compilation_experiment ~fuel [ p1; p2 ]
             ~query:(fun symbols -> query_for [ p1; p2 ] "sqr" [ n ] symbols)
         with
         | Ok e -> e.Driver.Linking.exp_agree
         | Error _ -> false))

(* Syntactic linking unit tests. *)
let link_unit_tests =
  [
    Alcotest.test_case "link resolves External against Internal" `Quick
      (fun () ->
        let p1 = parse "int f(int x);\nint g(void) { return f(1); }" in
        let p2 = parse "int f(int x) { return x; }" in
        match Cfrontend.Csyntax.link p1 p2 with
        | Ok linked ->
          check "f internal" true
            (match Ast.find_def linked (Ident.intern "f") with
            | Some (Ast.Gfun (Ast.Internal _)) -> true
            | _ -> false)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "link rejects duplicate definitions" `Quick (fun () ->
        let p1 = parse "int f(void) { return 1; }" in
        let p2 = parse "int f(void) { return 2; }" in
        check "rejected" true
          (match Cfrontend.Csyntax.link p1 p2 with Error _ -> true | Ok _ -> false));
    Alcotest.test_case "link rejects signature mismatch" `Quick (fun () ->
        let p1 = parse "int f(int x);\nint g(void) { return 0; }" in
        let p2 = parse "int f(long x) { return 1; }" in
        check "rejected" true
          (match Cfrontend.Csyntax.link p1 p2 with Error _ -> true | Ok _ -> false));
    Alcotest.test_case "link merges matching declarations" `Quick (fun () ->
        let p1 = parse "int f(int x);\nint a(void) { return 1; }" in
        let p2 = parse "int f(int x);\nint b(void) { return 2; }" in
        check "ok" true
          (match Cfrontend.Csyntax.link p1 p2 with Ok _ -> true | Error _ -> false));
    Alcotest.test_case "link variable tentative definitions" `Quick (fun () ->
        let p1 = parse "int x;\nint a(void) { return x; }" in
        let p2 = parse "int x = 5;\nint b(void) { return x; }" in
        match Cfrontend.Csyntax.link p1 p2 with
        | Ok linked ->
          check "initialized def wins" true
            (match Ast.find_def linked (Ident.intern "x") with
            | Some (Ast.Gvar gv) -> gv.Ast.gvar_init = [ Ast.Init_int32 5l ]
            | _ -> false)
        | Error e -> Alcotest.fail e);
  ]

(* Thm 3.5's pairs as [Asm ⊕ Asm], threaded against naive. *)
let hcomp_tests =
  [
    hcomp_threaded_naive "threaded and naive (+): mutual recursion"
      ~entry:"odd" ~args:[ 7 ] (mutual_a, mutual_b);
    hcomp_threaded_naive
      "threaded and naive (+): cross-unit tail calls from an internal call"
      ~entry:"sum" ~args:[ 10 ] (tail_a, mutual_b);
    one_answer_per_push "Asm (+) Asm: one at_external answer per push"
      ~entry:"even" ~args:[ 10 ] ~pushes:10 (mutual_a, mutual_b);
  ]

(* {1 Handover: owned state crosses a push or pop, snapshots leave}

   [Asm ⊕ Asm] hands the running activation's register file and owned
   memory to the next one at a push or pop. Every payload that leaves
   the composite, or reaches a component without the capability, must
   still be a snapshot: a copied register file and a frozen memory
   (for i•, see [hcomp_threaded_naive]). *)

(* The benchmark corpus's mutual recursion (even.c and odd.c): every
   call of [is_even] and [is_odd] crosses the unit boundary. *)
let parity_a =
  "int is_odd(int n);\n\
   int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1) & 1; }\n\
   int parity_sum(int k) { int s = 0; for (int i = 0; i < k; i++) s += \
   is_even(i) * i; return s; }"

let parity_b =
  "int is_even(int n);\n\
   int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1) & 1; }"

(* [even] recurses through [odd] in the other unit down to [env], which
   neither unit defines: x° from the top of a handed-over chain. *)
let chain_a =
  "int odd(int n); int env(int n);\n\
   int even(int n) { if (n == 0) return env(7); return odd(n - 1) + 1; }"

let chain_b = "int even(int n); int odd(int n) { return even(n - 1) + 1; }"

(* Minor words of a warm, untraced run of [l] on [q] through [C]; the
   run must answer parity_sum(64) = 992. *)
let warm_words l q =
  let traced = !Obs.enabled in
  Obs.enabled := false;
  ignore (Driver.Runners.run_a_level l ~fuel q);
  let w0 = Gc.minor_words () in
  let o = Driver.Runners.run_a_level l ~fuel q in
  let w = Gc.minor_words () -. w0 in
  Obs.enabled := traced;
  (match o with
  | Ok (Core.Smallstep.Final (_, { cr_res = Vint 992l; _ })) -> ()
  | _ -> Alcotest.fail "parity_sum(64) did not answer 992");
  w

(* Record that every payload [l] receives is a snapshot: its memory is
   not owned. [l] has no handover capability to wrap. *)
let receives_snapshots ~received ~owned (l : _ Core.Smallstep.lts) =
  let inbound m =
    incr received;
    if Memory.Mem.owned m then incr owned
  in
  {
    l with
    init = (fun q -> inbound q.aq_mem; l.init q);
    after_external = (fun s r -> inbound r.ar_mem; l.after_external s r);
  }

let handover_tests =
  [
    (* The composite reads 1.518x its linked program: routing builds no
       option, a push adds one frame to the stack it stands on, the
       receiver's one state is taken without a list, and that state is
       one record. The bound is that plus 0.022. *)
    Alcotest.test_case "Asm (+) Asm words within 1.54x of the linked program"
      `Quick (fun () ->
        let a1, a2, symbols, q =
          asm_pair ~entry:"parity_sum" ~args:[ 64 ] (parity_a, parity_b)
        in
        let sem = Backend.Asm.semantics ~symbols in
        let linked = Errors.get (Backend.Asm.link a1 a2) in
        let composed = warm_words (Core.Hcomp.compose (sem a1) (sem a2)) q in
        let alone = warm_words (sem linked) q in
        if composed > 1.54 *. alone then
          Alcotest.failf "(+) %.0f words, linked %.0f: %.2fx" composed alone
            (composed /. alone));
    Alcotest.test_case
      "Asm (+) Asm: an x-circle call from a handed-over chain is a snapshot"
      `Quick (fun () ->
        let a1, a2, symbols, q =
          asm_pair ~entry:"even" ~args:[ 6 ] (chain_a, chain_b)
        in
        let sem = Backend.Asm.semantics ~symbols in
        let pushes = ref 0 in
        let observe = function
          | Core.Hcomp.Bpush _ -> incr pushes
          | Core.Hcomp.Bpop _ -> ()
        in
        let env =
          {
            Driver.Io_oracle.prim_name = "env";
            prim_sig = { sig_args = [ Tint ]; sig_res = Some Tint };
            prim_impl = (function [ n ] -> Int32.mul n 10l | _ -> 0l);
          }
        in
        let record, _ = Driver.Io_oracle.make_log () in
        let answer = Driver.Io_oracle.a_oracle ~symbols [ env ] record in
        let kept = ref [] in
        let oracle (aq : a_query) =
          check "the call's memory is frozen" false (Memory.Mem.owned aq.aq_mem);
          kept :=
            ( aq,
              Pregfile.copy aq.aq_rs,
              Format.asprintf "%a" Memory.Mem.pp aq.aq_mem,
              !pushes )
            :: !kept;
          answer aq
        in
        (match
           Core.Smallstep.run ~fuel
             (Core.Hcomp.compose ~observe (sem a1) (sem a2))
             ~oracle (c_aq q)
         with
        | Core.Smallstep.Final (_, r) ->
          Alcotest.(check bool)
            "even(6) = 76" true
            (Pregfile.get (Mreg Target.Machregs.AX) r.ar_rs = Vint 76l)
        | _ -> Alcotest.fail "(+) run did not finish");
        match !kept with
        | [ (aq, rs, mem, pushed) ] ->
          Alcotest.(check int) "called six pushes deep" 6 pushed;
          check "the kept register file is unchanged" true
            (Pregfile.equal aq.aq_rs rs);
          Alcotest.(check string) "the kept memory is unchanged" mem
            (Format.asprintf "%a" Memory.Mem.pp aq.aq_mem)
        | k -> Alcotest.failf "%d environment calls, expected 1" (List.length k));
    Alcotest.test_case
      "Asm (+) naive Asm: a receiver without the handover gets snapshots"
      `Quick (fun () ->
        let a1, a2, symbols, q =
          asm_pair ~entry:"even" ~args:[ 10 ] (mutual_a, mutual_b)
        in
        let received = ref 0 and owned = ref 0 in
        let l =
          Core.Hcomp.compose
            (Backend.Asm.semantics ~symbols a1)
            (receives_snapshots ~received ~owned
               (Backend.Asm.semantics_naive ~symbols a2))
        in
        (match Core.Smallstep.run ~fuel l ~oracle:(fun _ -> None) (c_aq q) with
        | Core.Smallstep.Final _ -> ()
        | _ -> Alcotest.fail "(+) run did not finish");
        (* five activations of [odd], and the five answers they wait for *)
        Alcotest.(check int) "payloads received" 10 !received;
        Alcotest.(check int) "owned memories received" 0 !owned);
    Alcotest.test_case
      "Asm (+) partner: a receiver without the handover gets snapshots"
      `Quick (fun () ->
        let src = "int prim(int n); int top(int n) { return prim(n) + prim(n + 1); }" in
        let p = parse src in
        let asm = Errors.get (Driver.Compiler.compile_c_to_asm src) in
        let symbols = Driver.Linking.shared_symbols [ Ast.prog_defs_names p ] in
        let q =
          match query_for [ p ] "top" [ 4 ] symbols with
          | Some q -> q
          | None -> Alcotest.fail "no query"
        in
        let prim =
          {
            Driver.Io_oracle.prim_name = "prim";
            prim_sig = { sig_args = [ Tint ]; sig_res = Some Tint };
            prim_impl = (function [ n ] -> Int32.mul n 3l | _ -> 0l);
          }
        in
        let partner =
          Robust.Partner.synthesize ~symbols ~prims:[ prim ]
            ~entry:(Ident.intern "top") ~trace:[]
            ~mode:Robust.Partner.Replay_faithful ~rogue_at:(-1) ()
        in
        let received = ref 0 and owned = ref 0 in
        let l =
          Core.Hcomp.compose
            (Backend.Asm.semantics ~symbols asm)
            (receives_snapshots ~received ~owned partner.Robust.Partner.p_lts)
        in
        (match Driver.Runners.run_a_level l ~fuel q with
        | Ok (Core.Smallstep.Final (_, { cr_res = Vint 27l; _ })) -> ()
        | _ -> Alcotest.fail "(+) run did not answer 27");
        Alcotest.(check int) "payloads received" 2 !received;
        Alcotest.(check int) "owned memories received" 0 !owned);
  ]

let suite =
  ( "linking",
    tests @ [ thm34_property ] @ link_unit_tests @ hcomp_tests @ handover_tests )
