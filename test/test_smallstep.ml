(** Tests for the open-semantics framework: LTS execution, horizontal
    composition (Def. 3.2 / Fig. 5), layered composition (§3.5) and the
    closed semantics (Table 4, row 1).

    Toy components over a tiny "arithmetic server" interface: questions
    are [(name, argument)] pairs and answers are integers. *)

open Core
open Core.Smallstep

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

type q = string * int
type r = int

(* A component handling [names]: on [(f, n)], if [f] is one of its
   functions it computes locally, possibly making one outgoing call. *)
type toy_state =
  | Start of q
  | Stuck  (** resumed with a reply its [Y] refuses *)
  | Done of int

(* [double] computes 2n directly; [quad] calls [double n] and doubles the
   answer, refusing a negative one; [inc] computes n+1; [loopy]
   diverges. A call outside the contract of {!Smallstep.lts} raises:
   [init] outside [dom], and [after_external] on a state [at_external]
   does not answer. So every test below that runs a toy also checks
   that [run], [run_to_interaction] and the composites keep it. *)
let toy_component (name : string) : (toy_state, q, r, q, r) lts =
  let handles f = match name with
    | "doubler" -> f = "double" || f = "quad"
    | "incr" -> f = "inc"
    | "loopy" -> f = "loop"
    | _ -> false
  in
  let dom (f, _) = handles f in
  {
    name;
    dom;
    init =
      (fun q -> if dom q then Start q else invalid_arg (name ^ ".init: outside dom"));
    step =
      (fun s ->
        match s with
        | Start ("double", n) -> [ (Events.e0, Done (2 * n)) ]
        | Start ("inc", n) -> [ (Events.e0, Done (n + 1)) ]
        | Start ("loop", n) -> [ (Events.e0, Start ("loop", n)) ]
        | Start ("quad", _) -> []
        | Start _ -> []
        | Stuck -> []
        | Done _ -> []);
    at_external =
      (fun s ->
        match s with
        | Start ("quad", n) -> Some ("double", n)
        | _ -> None);
    after_external =
      (fun s ans ->
        match s with
        | Start ("quad", _) -> if ans >= 0 then Done (2 * ans) else Stuck
        | _ -> invalid_arg (name ^ ".after_external: not at an external call"));
    final = (fun s -> match s with Done r -> Some r | _ -> None);
    handover = None;
  }

let doubler = toy_component "doubler"
let incr = toy_component "incr"
let loopy = toy_component "loopy"

let run_toy lts ?(oracle = fun _ -> None) q =
  run ~fuel:1000 lts ~oracle q

let same_outcome o1 o2 =
  match (o1, o2) with
  | Final (_, a), Final (_, b) -> a = b
  | Refused, Refused | Out_of_fuel _, Out_of_fuel _ -> true
  | _ -> false

let unit_tests =
  [
    Alcotest.test_case "direct computation" `Quick (fun () ->
        match run_toy doubler ("double", 21) with
        | Final (_, r) -> checki "42" 42 r
        | _ -> Alcotest.fail "expected final");
    Alcotest.test_case "refused outside domain" `Quick (fun () ->
        check "refused" true (run_toy doubler ("inc", 1) = Refused);
        (* a composite question that no component accepts *)
        check "compose" true (run_toy (Hcomp.compose doubler incr) ("dec", 1) = Refused);
        check "compose_all" true
          (run_toy (Hcomp.compose_all [| doubler; incr; loopy |]) ("dec", 1) = Refused));
    Alcotest.test_case "environment answers external call" `Quick (fun () ->
        let oracle (f, n) = if f = "double" then Some (2 * n) else None in
        match run_toy doubler ~oracle ("quad", 5) with
        | Final (_, r) -> checki "20" 20 r
        | _ -> Alcotest.fail "expected final");
    Alcotest.test_case "env refusal reported" `Quick (fun () ->
        match run_toy doubler ("quad", 5) with
        | Env_stuck (_, ("double", 5)) -> ()
        | _ -> Alcotest.fail "expected env_stuck");
    Alcotest.test_case "divergence consumes fuel" `Quick (fun () ->
        match run_toy loopy ("loop", 0) with
        | Out_of_fuel _ -> ()
        | _ -> Alcotest.fail "expected out of fuel");
    Alcotest.test_case "run_to_interaction finds external state" `Quick
      (fun () ->
        match run_to_interaction ~fuel:100 doubler (doubler.init ("quad", 3)) with
        | _, Iexternal (("double", 3), _) -> ()
        | _ -> Alcotest.fail "expected external");
  ]

(* Horizontal composition: [quad] of the doubler resolves internally once
   composed with itself; composing with [incr] widens the domain. *)
let hcomp_tests =
  [
    Alcotest.test_case "push/pop resolves internal call" `Quick (fun () ->
        let both = Hcomp.compose doubler incr in
        (* quad calls double, which the composition itself accepts. *)
        match run_toy both ("quad", 5) with
        | Final (_, r) -> checki "20" 20 r
        | o ->
          Alcotest.failf "expected final, got %a"
            (pp_outcome Format.pp_print_int) o);
    Alcotest.test_case "union of domains" `Quick (fun () ->
        let both = Hcomp.compose doubler incr in
        check "doubler side" true (both.dom ("double", 0));
        check "incr side" true (both.dom ("inc", 0));
        check "neither" false (both.dom ("dec", 0)));
    Alcotest.test_case "x°: unknown calls escape (Fig. 5)" `Quick (fun () ->
        (* a quad-only component whose double must come from outside *)
        let both = Hcomp.compose doubler loopy in
        let oracle (f, n) = if f = "inc" then Some (n + 1) else None in
        match run ~fuel:1000 both ~oracle ("quad", 1) with
        | Final (_, r) -> checki "internal resolution preferred" 4 r
        | _ -> Alcotest.fail "expected final");
    Alcotest.test_case "a nested binary ⊕ behaves as the flat n-ary ⊕"
      `Quick (fun () ->
        let nested = Hcomp.compose (Hcomp.compose doubler incr) loopy in
        let flat = Hcomp.compose_all [| doubler; incr; loopy |] in
        (match run_toy flat ("loop", 0) with
        | Out_of_fuel _ -> ()
        | _ -> Alcotest.fail "expected out of fuel");
        List.iter
          (fun q -> check "agree" true (same_outcome (run_toy nested q) (run_toy flat q)))
          [ ("double", 3); ("quad", 3); ("inc", 7); ("loop", 0); ("dec", 1) ]);
    Alcotest.test_case "associativity of ⊕ (behavioral)" `Quick (fun () ->
        let l1 = Hcomp.compose (Hcomp.compose doubler incr) loopy in
        let l2 = Hcomp.compose doubler (Hcomp.compose incr loopy) in
        List.iter
          (fun q -> check "agree" true (same_outcome (run_toy l1 q) (run_toy l2 q)))
          [ ("double", 3); ("quad", 3); ("inc", 7); ("loop", 0) ]);
  ]

(* Every driver takes the internal step first and probes [at_external]
   and [final] only when it is empty. [counted l] is [l] with its probes
   counted. *)
let counted l =
  let probes = ref 0 in
  ( {
      l with
      at_external = (fun s -> Stdlib.incr probes; l.at_external s);
      final = (fun s -> Stdlib.incr probes; l.final s);
    },
    probes )

(* One internal step of [loopy], counted, inside a composite. *)
let probes_in_one_step (type s)
    (build : (toy_state, q, r, q, r) lts -> (s, q, r, q, r) lts) =
  let counted_loopy, probes = counted loopy in
  let l = build counted_loopy in
  checki "one internal step" 1 (List.length (l.step (l.init ("loop", 0))));
  !probes

let probe_tests =
  [
    Alcotest.test_case "an internal step of a composite probes nothing" `Quick
      (fun () ->
        checki "compose" 0 (probes_in_one_step (fun l -> Hcomp.compose l incr));
        checki "compose_all" 0
          (probes_in_one_step (fun l -> Hcomp.compose_all [| l; incr |]));
        checki "layer" 0 (probes_in_one_step (fun l -> Vcomp.layer l incr)));
    Alcotest.test_case "run probes only at interaction points" `Quick
      (fun () ->
        let l, probes = counted loopy in
        (match run ~fuel:50 l ~oracle:(fun _ -> None) ("loop", 0) with
        | Out_of_fuel _ -> ()
        | _ -> Alcotest.fail "expected out of fuel");
        checki "loopy, run out of fuel" 0 !probes;
        (match run_to_interaction ~fuel:50 l (l.init ("loop", 0)) with
        | _, Ifuel -> ()
        | _ -> Alcotest.fail "expected the fuel to run out");
        checki "loopy, run_to_interaction" 0 !probes;
        let l, probes = counted doubler in
        (* one internal step, then [final] at the final state *)
        ignore (run_toy l ("double", 21));
        checki "double" 1 !probes;
        (* [final] and [at_external] at the external state, then [final]
           after the reply *)
        probes := 0;
        ignore (run_toy l ~oracle:(fun (_, n) -> Some (2 * n)) ("quad", 5));
        checki "quad" 3 !probes;
        probes := 0;
        ignore (run_to_interaction ~fuel:50 l (l.init ("quad", 5)));
        checki "quad, run_to_interaction" 2 !probes);
  ]

(* Layered composition (§3.5): calls flow downward only. *)
let vcomp_tests =
  [
    Alcotest.test_case "layered call flows down" `Quick (fun () ->
        (* doubler on top of incr: quad's outgoing call has nowhere to go
           (incr does not serve double) — stuck; but doubler's own direct
           questions still work. *)
        let stack = Vcomp.layer doubler incr in
        (match run_toy stack ("double", 10) with
        | Final (_, r) -> checki "20" 20 r
        | _ -> Alcotest.fail "expected final");
        match run_toy stack ("quad", 10) with
        | Goes_wrong _ -> ()
        | _ -> Alcotest.fail "expected stuck (call not served below)");
    Alcotest.test_case "layered serving" `Quick (fun () ->
        (* quad served by a lower layer providing double. *)
        let stack = Vcomp.layer doubler doubler in
        match run_toy stack ("quad", 6) with
        | Final (_, r) -> checki "24" 24 r
        | _ -> Alcotest.fail "expected final");
    Alcotest.test_case "lower layer's externals escape" `Quick (fun () ->
        (* top quad -> bottom quad? bottom only; build: top = doubler
           (quad calls double); bottom = component that forwards. *)
        let stack = Vcomp.layer doubler loopy in
        match run_toy stack ("quad", 1) with
        | Goes_wrong _ -> ()
        | _ -> Alcotest.fail "expected stuck");
  ]

let closed_tests =
  [
    Alcotest.test_case "closing an open semantics (Table 4)" `Quick (fun () ->
        let closed =
          Closed.close doubler ~entry:("double", 21)
            ~decode:(fun r -> Some (Int32.of_int r))
        in
        match run ~fuel:100 closed ~oracle:(fun _ -> None) () with
        | Final (_, code) -> check "42" true (code = 42l)
        | _ -> Alcotest.fail "expected final");
  ]

(* Robustness edges of the interpreter: fuel exhaustion boundaries,
   oracle refusal (None) both at and after the first interaction, and
   the [check_reply] hook that diagnoses convention-violating oracle
   answers as [Env_violation] rather than resuming on garbage. *)
let robustness_tests =
  [
    Alcotest.test_case "fuel 0 is exhausted immediately" `Quick (fun () ->
        match run ~fuel:0 doubler ~oracle:(fun _ -> None) ("double", 21) with
        | Out_of_fuel _ -> ()
        | o ->
          Alcotest.failf "expected out of fuel, got %a"
            (pp_outcome Format.pp_print_int) o);
    Alcotest.test_case "just enough fuel completes" `Quick (fun () ->
        match run ~fuel:3 doubler ~oracle:(fun _ -> None) ("double", 21) with
        | Final (_, r) -> checki "42" 42 r
        | o ->
          Alcotest.failf "expected final, got %a"
            (pp_outcome Format.pp_print_int) o);
    Alcotest.test_case "oracle None -> Env_stuck carries the question" `Quick
      (fun () ->
        match run ~fuel:100 doubler ~oracle:(fun _ -> None) ("quad", 7) with
        | Env_stuck (_, ("double", 7)) -> ()
        | o ->
          Alcotest.failf "expected env-stuck on (double,7), got %a"
            (pp_outcome Format.pp_print_int) o);
    Alcotest.test_case "selective oracle: answers one call, refuses next"
      `Quick (fun () ->
        (* an oracle that answers only the first question *)
        let asked = ref 0 in
        let oracle (f, n) =
          asked := !asked + 1;
          if !asked = 1 && f = "double" then Some (2 * n) else None
        in
        (match run ~fuel:100 doubler ~oracle ("quad", 5) with
        | Final (_, r) -> checki "20" 20 r
        | _ -> Alcotest.fail "expected final");
        match run ~fuel:100 doubler ~oracle ("quad", 5) with
        | Env_stuck (_, _) -> ()
        | _ -> Alcotest.fail "expected env-stuck on the second run");
    Alcotest.test_case "check_reply rejection -> Env_violation" `Quick
      (fun () ->
        let oracle (f, n) = if f = "double" then Some (2 * n) else None in
        let check_reply _ _ = Error "answer smells wrong" in
        match run ~fuel:100 ~check_reply doubler ~oracle ("quad", 5) with
        | Env_violation (_, why) ->
          check "reason" true (why = "answer smells wrong")
        | o ->
          Alcotest.failf "expected env-violation, got %a"
            (pp_outcome Format.pp_print_int) o);
    Alcotest.test_case "check_reply acceptance resumes normally" `Quick
      (fun () ->
        let oracle (f, n) = if f = "double" then Some (2 * n) else None in
        let called = ref 0 in
        let check_reply _ _ =
          called := !called + 1;
          Ok ()
        in
        (match run ~fuel:100 ~check_reply doubler ~oracle ("quad", 5) with
        | Final (_, r) -> checki "20" 20 r
        | _ -> Alcotest.fail "expected final");
        checki "checked once" 1 !called);
    Alcotest.test_case "check_reply unused without interactions" `Quick
      (fun () ->
        let called = ref 0 in
        let check_reply _ _ =
          called := !called + 1;
          Ok ()
        in
        (match
           run ~fuel:100 ~check_reply doubler
             ~oracle:(fun _ -> None)
             ("double", 4)
         with
        | Final (_, r) -> checki "8" 8 r
        | _ -> Alcotest.fail "expected final");
        checki "never checked" 0 !called);
    Alcotest.test_case "selective check_reply: violation after good replies"
      `Quick (fun () ->
        (* a 2-call chain: quad(n) asks double(n); make a component that
           asks twice by composing — simpler: drive doubler twice with a
           stateful checker that rejects the second answer. *)
        let oracle (f, n) = if f = "double" then Some (2 * n) else None in
        let nth = ref 0 in
        let check_reply _ _ =
          nth := !nth + 1;
          if !nth >= 2 then Error "second answer rejected" else Ok ()
        in
        (match run ~fuel:100 ~check_reply doubler ~oracle ("quad", 1) with
        | Final _ -> ()
        | _ -> Alcotest.fail "first run should pass");
        match run ~fuel:100 ~check_reply doubler ~oracle ("quad", 1) with
        | Env_violation (_, why) ->
          check "reason" true (why = "second answer rejected")
        | _ -> Alcotest.fail "second run should be diagnosed");
  ]

(* Property: in ⊕, every behavior of a component on its own domain is
   preserved (no interference) — a lightweight take on Thm. 3.4. *)
let prop_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"⊕ preserves standalone behavior" ~count:100
        (QCheck.int_bound 1000) (fun n ->
          let alone = run_toy doubler ("double", n) in
          let composed = run_toy (Hcomp.compose doubler incr) ("double", n) in
          match (alone, composed) with
          | Final (_, a), Final (_, b) -> a = b
          | _ -> false);
      QCheck.Test.make ~name:"⊕ resolves what the oracle would" ~count:100
        (QCheck.int_bound 1000) (fun n ->
          let oracle (f, k) = if f = "double" then Some (2 * k) else None in
          let with_env = run_toy doubler ~oracle ("quad", n) in
          let composed = run_toy (Hcomp.compose doubler incr) ("quad", n) in
          match (with_env, composed) with
          | Final (_, a), Final (_, b) -> a = b
          | _ -> false);
    ]

(* The contract of {!Smallstep.lts}: a composite raises when called
   outside it, [Y] refusing a reply is a stuck state, and co-execution
   (Fig. 6) activates neither side on a question that one of them
   refuses (the toy's [init] would raise). *)
let contract_tests =
  [
    Alcotest.test_case "a call outside the contract raises" `Quick (fun () ->
        let raises f =
          match f () with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        check "init outside dom" true (raises (fun () -> doubler.init ("inc", 1)));
        check "after_external on a state at no call" true
          (raises (fun () -> doubler.after_external (doubler.init ("double", 1)) 0));
        check "a composite's init outside dom" true
          (raises (fun () -> (Hcomp.compose doubler incr).init ("dec", 1)));
        let stack = Vcomp.layer doubler doubler in
        check "a layer's after_external on a state at no call" true
          (raises (fun () -> stack.after_external (stack.init ("quad", 1)) 0)));
    Alcotest.test_case "a refused reply resumes into a stuck state" `Quick
      (fun () ->
        match run_toy doubler ~oracle:(fun _ -> Some (-1)) ("quad", 5) with
        | Goes_wrong _ -> ()
        | o ->
          Alcotest.failf "expected goes wrong, got %a"
            (pp_outcome Format.pp_print_int) o);
    Alcotest.test_case "Coexec: a target that refuses the question" `Quick
      (fun () ->
        let cc = Simconv.cc_id () in
        match
          Coexec.check ~fuel:100 ~l1:doubler ~l2:incr ~cc_in:cc ~cc_out:cc
            ~oracle:(fun _ -> None) ("double", 3)
        with
        | Coexec.Fail _ -> ()
        | Coexec.Pass -> Alcotest.fail "expected the domains to disagree");
  ]

let suite =
  ( "smallstep",
    unit_tests @ hcomp_tests @ vcomp_tests @ closed_tests @ robustness_tests
    @ probe_tests @ prop_tests @ contract_tests )
