(** Open labeled transition systems (paper, Definition 3.1).

    An LTS [L : A ↠ B] describes a component that is activated by
    questions of the incoming language interface [B], may perform external
    calls through the outgoing interface [A], and eventually answers with a
    [B] answer. The type parameters are:

    - ['s]: states,
    - ['qi]/['ri]: incoming questions and answers (interface [B]),
    - ['qo]/['ro]: outgoing questions and answers (interface [A]).

    The fields correspond one-to-one to the tuple
    [⟨S, →, D, I, X, Y, F⟩] of Definition 3.1. The framework assumes
    determinism, as CompCert's semantics are determinate: [I] and [Y]
    are functions, [init] defined on [D] and [after_external] on the
    states [X] answers, and a call outside them raises
    [Invalid_argument] naming the LTS. A [Y] that refuses a reply
    resumes into a stuck state. [step] returns at most one transition,
    and every consumer takes its head; its list type stays only because
    the benchmark's counting wrappers read it. *)

type ('s, 'qi, 'ri, 'qo, 'ro) lts = {
  name : string;
  dom : 'qi -> bool;  (** [D ⊆ B°]: accepted questions *)
  init : 'qi -> 's;  (** [I : D → S]: the initial state *)
  step : 's -> (Events.trace * 's) list;  (** [→]: at most one transition *)
  at_external : 's -> 'qo option;  (** [X ⊆ S × A°]: external states *)
  after_external : 's -> 'ro -> 's;  (** [Y : X × A• → S]: the resumption *)
  final : 's -> 'ri option;  (** [F ⊆ S × B•]: final states *)
  handover : ('s, 'qi, 'ri, 'qo, 'ro) handover option;
      (** probes that hand the payload over instead of snapshotting it *)
}

and ('s, 'qi, 'ri, 'qo, 'ro) handover = {
  hand_external : 's -> 'qo option;
  hand_final : 's -> 'ri option;
}

(** {1 Deterministic execution}

    One loop runs an LTS. It takes the internal step while there is
    one, and asks [final], then [at_external], only when the step is
    empty: by the contract of {!lts}, only then may the state be at an
    interaction point, and the empty step has left it as it was. Fuel
    is one unit per step or resumption, checked before stepping. The
    environment is a partial oracle answering outgoing questions. *)

type ('ri, 'qo) outcome =
  | Final of Events.trace * 'ri  (** terminated with an answer *)
  | Goes_wrong of Events.trace * string  (** stuck state (undefined behavior) *)
  | Env_stuck of Events.trace * 'qo  (** the oracle refused an external call *)
  | Env_violation of Events.trace * string
      (** the oracle's answer broke the simulation convention *)
  | Refused  (** the incoming question is outside [D] *)
  | Out_of_fuel of Events.trace

let pp_outcome pp_ri fmt = function
  | Final (_, r) -> Format.fprintf fmt "final %a" pp_ri r
  | Goes_wrong (_, why) -> Format.fprintf fmt "goes wrong (%s)" why
  | Env_stuck (_, _) -> Format.fprintf fmt "environment stuck"
  | Env_violation (_, why) ->
    Format.fprintf fmt "environment violation (%s)" why
  | Refused -> Format.fprintf fmt "query refused"
  | Out_of_fuel _ -> Format.fprintf fmt "out of fuel"

type ('s, 'ri, 'qo) interaction =
  | Ifinal of 'ri
  | Iexternal of 'qo * 's  (** external question together with the suspended state *)
  | Istuck
  | Ifuel

(* Internal steps from [s] to the next interaction point: the fuel left,
   the events so far (newest first) and the point reached. *)
let rec advance l fuel trace s =
  if fuel <= 0 then (fuel, trace, Ifuel)
  else
    match l.step s with
    | (t, s') :: _ -> advance l (fuel - 1) (List.rev_append t trace) s'
    | [] ->
      ( fuel,
        trace,
        match l.final s with
        | Some r -> Ifinal r
        | None -> (
          match l.at_external s with
          | Some qo -> Iexternal (qo, s)
          | None -> Istuck) )

(** [run_to_interaction ~fuel l s] advances [s] to its next interaction
    point: a final or external state, a stuck one, or the end of the
    fuel. The co-execution checker drives both sides with it. *)
let run_to_interaction ~fuel (l : ('s, 'qi, 'ri, 'qo, 'ro) lts) s :
    Events.trace * ('s, 'ri, 'qo) interaction =
  let _, trace, i = advance l fuel [] s in
  (List.rev trace, i)

(** [run ~fuel lts ~oracle q] activates [lts] on [q] and runs it to
    completion, answering outgoing questions with [oracle].

    [check_reply], when given, validates each oracle answer against the
    question it answers (the executable form of the convention's [A•]
    side); a rejected answer ends the run with [Env_violation] — a
    diagnosed outcome — instead of feeding a convention-breaking value
    into the component. *)
let run ?(check_reply = fun _ _ -> Ok ()) ~fuel
    (l : ('s, 'qi, 'ri, 'qo, 'ro) lts) ~(oracle : 'qo -> 'ro option) q :
    ('ri, 'qo) outcome =
  if not (l.dom q) then Refused
  else
    let rec go fuel trace s =
      match advance l fuel trace s with
      | _, trace, Ifinal r -> Final (List.rev trace, r)
      | _, trace, Istuck -> Goes_wrong (List.rev trace, "stuck state")
      | _, trace, Ifuel -> Out_of_fuel (List.rev trace)
      | fuel, trace, Iexternal (qo, s) -> (
        match oracle qo with
        | None -> Env_stuck (List.rev trace, qo)
        | Some ro -> (
          match check_reply qo ro with
          | Error why -> Env_violation (List.rev trace, why)
          | Ok () -> go (fuel - 1) trace (l.after_external s ro)))
    in
    go fuel [] (l.init q)
