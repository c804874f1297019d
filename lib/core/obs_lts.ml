(** Observed runs: {!Smallstep.run} with every interaction point of the
    run recorded in {!Obs.Interaction_log}.

    The log is read off the run, not off the LTS's probes: the oracle
    sees every outgoing call, and the outcome carries the final answer
    or the stuck state. Only [init] (the question), [step] (a counter)
    and [after_external] (the reply) are wrapped; [final] and
    [at_external], which the run loop asks only at interaction points,
    are not, and the handover capability, which the run never uses, is
    dropped. The outcome is the bare run's. When observability is off
    the run is {!Smallstep.run} itself, so there is no per-step cost. *)

open Smallstep

let opaque _ = "_"

(** [run ~fuel l ~oracle q]: {!Smallstep.run}, logging the incoming
    question, the number of silent steps between interaction points,
    every outgoing call and the reply it got, the final answer or the
    stuck state, and the fuel the run consumed (one unit per executed
    step or resumption, [Smallstep.run]'s accounting). The [pp_*]
    renderers turn the interface-specific payloads into strings;
    omitted ones print ["_"]. *)
let run ?(pp_qi = opaque) ?(pp_ri = opaque) ?(pp_qo = opaque) ?(pp_ro = opaque)
    ?check_reply ~fuel (l : ('s, 'qi, 'ri, 'qo, 'ro) lts)
    ~(oracle : 'qo -> 'ro option) q : ('ri, 'qo) outcome =
  if not !Obs.enabled then Smallstep.run ?check_reply ~fuel l ~oracle q
  else begin
    let module Log = Obs.Interaction_log in
    let steps = ref 0 and used = ref 0 in
    let flush () =
      if !steps > 0 then begin
        Log.record (Log.Steps !steps);
        Obs.Metrics.observe "lts.steps_between_interactions" (float_of_int !steps);
        steps := 0
      end
    in
    let counted =
      {
        l with
        init =
          (fun q ->
            Log.record (Log.Question (pp_qi q));
            Obs.Metrics.incr_counter "lts.questions";
            l.init q);
        step =
          (fun s ->
            let r = l.step s in
            if r <> [] then begin
              incr steps;
              incr used
            end;
            r);
        after_external =
          (fun s ro ->
            Log.record (Log.Reply (pp_ro ro));
            incr used;
            l.after_external s ro);
        handover = None;
      }
    in
    let oracle qo =
      flush ();
      Log.record (Log.Call (pp_qo qo));
      Obs.Metrics.incr_counter "lts.calls";
      oracle qo
    in
    let o =
      Obs.Trace.with_span ("run:" ^ l.name) (fun () ->
          Smallstep.run ?check_reply ~fuel counted ~oracle q)
    in
    (match o with
    | Final (_, r) ->
      flush ();
      Log.record (Log.Final (pp_ri r));
      Obs.Metrics.incr_counter "lts.finals"
    | Goes_wrong _ ->
      flush ();
      Log.record Log.Stuck
    | _ -> ());
    Log.record (Log.Fuel_consumed !used);
    (match o with Out_of_fuel _ -> Log.record Log.Out_of_fuel | _ -> ());
    Obs.Metrics.observe "lts.fuel_consumed" (float_of_int !used);
    o
  end
