(** Observed LTSs: wrap a transition system so every interaction point
    lands in {!Obs.Interaction_log} (ISSUE 1 tentpole, part 4).

    [instrument] is semantics-preserving by construction — every field
    delegates to the underlying LTS and only records what it saw — so an
    instrumented LTS produces the same [outcome] as the bare one (the
    test suite checks this as a property). When observability is off the
    LTS is returned unchanged, so there is no per-step cost. *)

open Smallstep

let opaque _ = "_"

(** [instrument l] logs, per run: the incoming question, the number of
    silent steps between interaction points, every outgoing call and the
    reply it got, the final answer, and stuck states. The [pp_*]
    renderers turn the interface-specific payloads into strings;
    omitted ones print ["_"].

    Wrap only the outermost LTS of a run. Inside [⊕] a component's
    [step] is also tried at every push and pop, where it is empty, so
    an instrumented component there would log [Stuck] at each of them. *)
let instrument ?(pp_qi = opaque) ?(pp_ri = opaque) ?(pp_qo = opaque)
    ?(pp_ro = opaque) (l : ('s, 'qi, 'ri, 'qo, 'ro) lts) :
    ('s, 'qi, 'ri, 'qo, 'ro) lts =
  if not !Obs.enabled then l
  else begin
    let record = Obs.Interaction_log.record in
    let steps = ref 0 in
    let flush () =
      if !steps > 0 then begin
        record (Obs.Interaction_log.Steps !steps);
        Obs.Metrics.observe "lts.steps_between_interactions" (float_of_int !steps);
        steps := 0
      end
    in
    {
      l with
      init =
        (fun q ->
          let ss = l.init q in
          if ss <> [] then begin
            steps := 0;
            record (Obs.Interaction_log.Question (pp_qi q));
            Obs.Metrics.incr_counter "lts.questions"
          end;
          ss);
      step =
        (fun s ->
          let r = l.step s in
          (match r with
          | _ :: _ -> incr steps
          | [] ->
            flush ();
            record Obs.Interaction_log.Stuck);
          r);
      at_external =
        (fun s ->
          let r = l.at_external s in
          (match r with
          | Some qo ->
            flush ();
            record (Obs.Interaction_log.Call (pp_qo qo));
            Obs.Metrics.incr_counter "lts.calls"
          | None -> ());
          r);
      after_external =
        (fun s ro ->
          let ss = l.after_external s ro in
          record (Obs.Interaction_log.Reply (pp_ro ro));
          ss);
      final =
        (fun s ->
          let r = l.final s in
          (match r with
          | Some ri ->
            flush ();
            record (Obs.Interaction_log.Final (pp_ri ri));
            Obs.Metrics.incr_counter "lts.finals"
          | None -> ());
          r);
    }
  end

(** [run ~fuel l ~oracle q]: {!Smallstep.run} on the instrumented [l],
    additionally recording the fuel the run consumed (one unit per
    executed step or external resumption, mirroring [Smallstep.run]'s
    accounting). *)
let run ?pp_qi ?pp_ri ?pp_qo ?pp_ro ?check_reply ~fuel
    (l : ('s, 'qi, 'ri, 'qo, 'ro) lts) ~(oracle : 'qo -> 'ro option) q :
    ('ri, 'qo) outcome =
  if not !Obs.enabled then Smallstep.run ?check_reply ~fuel l ~oracle q
  else begin
    let il = instrument ?pp_qi ?pp_ri ?pp_qo ?pp_ro l in
    let used = ref 0 in
    let counting =
      {
        il with
        step =
          (fun s ->
            let r = il.step s in
            if r <> [] then incr used;
            r);
        after_external =
          (fun s ro ->
            let r = il.after_external s ro in
            if r <> [] then incr used;
            r);
      }
    in
    let o =
      Obs.Trace.with_span ("run:" ^ l.name) (fun () ->
          Smallstep.run ?check_reply ~fuel counting ~oracle q)
    in
    Obs.Interaction_log.record (Obs.Interaction_log.Fuel_consumed !used);
    (match o with
    | Out_of_fuel _ -> Obs.Interaction_log.record Obs.Interaction_log.Out_of_fuel
    | _ -> ());
    Obs.Metrics.observe "lts.fuel_consumed" (float_of_int !used);
    o
  end
