(** Co-execution: the executable counterpart of open forward simulations
    (paper §3.3, Fig. 6).

    Where the Coq development proves a simulation
    [L1 ≤ R_A ↠ R_B L2], this engine {e checks} the simulation's
    observable content on concrete runs:

    - the incoming questions are related by [R_B°] at a world [w_B]
      (obtained by marshaling the source question, Fig. 6a);
    - whenever both executions reach an outgoing call, the questions must
      be related by [R_A°] at some world [w_A] — witnessed here by the
      canonical marshaling — and the environment answers both sides with
      [R_A•]-related answers (Fig. 6c), produced from a single
      source-level oracle;
    - final answers must be related by [R_B•] at [w_B] (Fig. 6b).

    A successful co-execution is exactly one instance of the simulation
    diagrams; the test suites run many (including randomized) instances.
    Any divergence — unrelated external calls, an execution getting stuck,
    unrelated final answers, or mismatched event traces — produces a
    descriptive counterexample. *)

open Smallstep

type verdict =
  | Pass
  | Fail of string

let pp_verdict fmt = function
  | Pass -> Format.pp_print_string fmt "pass"
  | Fail msg -> Format.fprintf fmt "FAIL: %s" msg

let is_pass = function Pass -> true | Fail _ -> false

let fail fmt = Format.kasprintf (fun s -> Fail s) fmt

(* Observability: count relation checks per convention (and their
   outcome) so a co-execution campaign reports how much checking it
   actually did. No-ops unless [Obs.enabled]. *)
let record_check conv_name ok =
  Obs.Metrics.incr_counter
    ("coexec.checks." ^ conv_name ^ if ok then ".passed" else ".failed");
  ok

let record_query conv_name =
  Obs.Metrics.incr_counter "coexec.queries";
  Obs.Metrics.incr_counter ("coexec.queries." ^ conv_name)

(** [check ~fuel ~l1 ~l2 ~cc_in ~cc_out ~oracle q1] marshals the source
    question [q1] through [cc_in], activates both semantics, and co-executes
    them, checking relatedness at every interaction point. [oracle] gives
    the environment's behavior on source-level outgoing questions; the
    target-level answer is derived via [cc_out.fwd_reply], exactly as the
    environment of Fig. 6(c) must. *)
let check ~fuel ~(l1 : ('s1, 'q1, 'r1, 'qo1, 'ro1) lts)
    ~(l2 : ('s2, 'q2, 'r2, 'qo2, 'ro2) lts)
    ~(cc_in : ('wb, 'q1, 'q2, 'r1, 'r2) Simconv.t)
    ~(cc_out : ('wa, 'qo1, 'qo2, 'ro1, 'ro2) Simconv.t)
    ~(oracle : 'qo1 -> 'ro1 option) (q1 : 'q1) : verdict =
  match cc_in.Simconv.fwd_query q1 with
  | None -> fail "cc_in cannot marshal the incoming question"
  | Some (wb, q2) ->
    record_query cc_in.Simconv.name;
    if not (l1.dom q1) then
      if l2.dom q2 then fail "domains disagree: source refuses, target accepts"
      else Pass
    else if not (l2.dom q2) then fail "domains disagree: target refuses the question"
    else (
      match (l1.init q1, l2.init q2) with
      | [], [] -> Pass
      | [], _ :: _ -> fail "source has no initial state but target does"
      | _ :: _, [] -> fail "target has no initial state"
      | s1 :: _, s2 :: _ ->
        let rec co s1 s2 budget =
          if budget <= 0 then fail "co-execution fuel exhausted"
          else
            let t1, i1 = run_to_interaction ~fuel l1 s1 in
            let t2, i2 = run_to_interaction ~fuel l2 s2 in
            if not (Events.trace_equal t1 t2) then
              fail "event traces diverge between source and target"
            else
              match (i1, i2) with
              | Ifinal r1, Ifinal r2 ->
                if record_check cc_in.Simconv.name (cc_in.Simconv.chk_reply wb r1 r2)
                then Pass
                else fail "final answers are not related by the incoming convention"
              | Iexternal (m1, e1), Iexternal (m2, e2) -> (
                (* Fig. 6(c): the simulation chooses the world relating the
                   outgoing questions — witnessed here by inference from
                   the two actual questions. *)
                match cc_out.Simconv.infer_world m1 m2 with
                | None -> fail "no world relates the outgoing questions"
                | Some wa ->
                  if
                    not
                      (record_check cc_out.Simconv.name
                         (cc_out.Simconv.chk_query wa m1 m2))
                  then
                    fail "outgoing questions are not related by the outgoing convention"
                  else (
                    match oracle m1 with
                    | None -> fail "environment oracle refused the outgoing call"
                    | Some n1 -> (
                      match cc_out.Simconv.fwd_reply wa n1 with
                      | None -> fail "cc_out cannot marshal the environment answer"
                      | Some n2 -> (
                        match (l1.after_external e1 n1, l2.after_external e2 n2) with
                        | s1' :: _, s2' :: _ -> co s1' s2' (budget - 1)
                        | [], _ -> fail "source cannot resume after external call"
                        | _, [] -> fail "target cannot resume after external call"))))
              | Istuck, Istuck ->
                (* Both executions go wrong: the simulation property says
                   nothing (source UB licenses anything), so we accept. *)
                Pass
              | Istuck, _ ->
                (* Source goes wrong: anything the target does refines it. *)
                Pass
              | _, Istuck -> fail "target goes wrong but source does not"
              | Ifuel, _ | _, Ifuel -> fail "fuel exhausted mid-execution"
              | Ifinal _, Iexternal _ ->
                fail "source terminates but target performs an external call"
              | Iexternal _, Ifinal _ ->
                fail "source performs an external call but target terminates"
        in
        co s1 s2 1024)
