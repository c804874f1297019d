(** Open labeled transition systems (paper, Definition 3.1).

    An LTS [L : A ↠ B] describes a component activated by questions of
    the incoming language interface [B], that may perform external calls
    through the outgoing interface [A], and eventually answers with a [B]
    answer. *)

(** The tuple [⟨S, →, D, I, X, Y, F⟩] of Definition 3.1. Type parameters:
    states ['s]; incoming questions/answers ['qi]/['ri] (interface [B]);
    outgoing questions/answers ['qo]/['ro] (interface [A]).

    The framework assumes determinism, as CompCert's semantics are
    determinate. [I] and [Y] are functions: [init] is defined on the
    questions [dom] accepts, and [after_external] on the states
    [at_external] answers. A call outside them is a programming error
    and raises [Invalid_argument] naming the LTS. An LTS whose [Y]
    refuses a reply resumes into a stuck state, which {!run} reports
    as [Goes_wrong]. [step] returns at most one transition and every
    consumer takes its head; it stays a list only because the
    benchmark's counting wrappers read it.

    The concrete semantics run over mutable state, and a [step] may
    write its argument in place. Every LTS keeps two rules about that: a
    state at an interaction point ([at_external] or [final] answers)
    has no internal step, and a [step] that returns [[]] writes nothing.
    Every driver relies on both: {!run}, {!run_to_interaction} and the
    composites ({!Hcomp}, {!Vcomp}) take the internal step first, and
    probe [final] and [at_external] only when it is empty.

    A question or answer the probes return is the caller's to keep: an
    LTS whose state is mutable hands out a snapshot. The optional
    {!handover} capability saves that snapshot where the payload goes
    straight to the next activation. A wrapper that overrides a probe,
    [init] or [after_external] (as [{ l with at_external = … }]) must
    also wrap the capability or drop it ([handover = None]); otherwise
    a composite goes round the wrapper at every push and pop. *)
type ('s, 'qi, 'ri, 'qo, 'ro) lts = {
  name : string;
  dom : 'qi -> bool;  (** [D ⊆ B°]: accepted questions *)
  init : 'qi -> 's;  (** [I : D → S]: the initial state *)
  step : 's -> (Events.trace * 's) list;  (** [→]: at most one transition *)
  at_external : 's -> 'qo option;  (** [X ⊆ S × A°]: external states *)
  after_external : 's -> 'ro -> 's;  (** [Y : X × A• → S]: the resumption *)
  final : 's -> 'ri option;  (** [F ⊆ S × B•]: final states *)
  handover : ('s, 'qi, 'ri, 'qo, 'ro) handover option;
}

(** The handover capability: [at_external] and [final] without the
    snapshot. [hand_external s] and [hand_final s] answer exactly when
    [at_external s] and [final s] do, with the same question or answer,
    but its payload is the state's own (for Asm, the live register file
    and the owned memory, {!Memory.Mem.owned}). The state gives it up:
    a suspended state is only resumed by [after_external], which must
    not read what it handed over, and a final one is dropped.

    The payload carries its own mark, so the receiving LTS's [init] or
    [after_external] adopts a handed-over payload as is and takes a
    snapshot of any other. Only {!Hcomp} uses the capability: it hands
    the payload over at a push or pop whose running and receiving
    components both have it, and gives it to the receiver's [init] or
    [after_external]. Every payload that leaves a composite, at x° and
    i• (Fig. 5), in {!run}, {!Vcomp} or {!Coexec}, comes from the plain
    probes. *)
and ('s, 'qi, 'ri, 'qo, 'ro) handover = {
  hand_external : 's -> 'qo option;
  hand_final : 's -> 'ri option;
}

(** Outcome of a run. *)
type ('ri, 'qo) outcome =
  | Final of Events.trace * 'ri  (** terminated with an answer *)
  | Goes_wrong of Events.trace * string  (** stuck state (undefined behavior) *)
  | Env_stuck of Events.trace * 'qo  (** the oracle refused an external call *)
  | Env_violation of Events.trace * string
      (** the oracle's answer broke the simulation convention *)
  | Refused  (** question outside [D] *)
  | Out_of_fuel of Events.trace

val pp_outcome :
  (Format.formatter -> 'ri -> unit) ->
  Format.formatter ->
  ('ri, 'qo) outcome ->
  unit

(** [run ~fuel lts ~oracle q] activates [lts] on [q] and runs it to
    completion, answering outgoing questions with [oracle]. Fuel is one
    unit per internal step or resumption, checked before stepping.
    [check_reply] validates each oracle answer against its question; a
    rejected answer yields [Env_violation] instead of resuming with a
    convention-breaking value. *)
val run :
  ?check_reply:('qo -> 'ro -> (unit, string) result) ->
  fuel:int ->
  ('s, 'qi, 'ri, 'qo, 'ro) lts ->
  oracle:('qo -> 'ro option) ->
  'qi ->
  ('ri, 'qo) outcome

(** Interaction points reached by [run_to_interaction]. *)
type ('s, 'ri, 'qo) interaction =
  | Ifinal of 'ri
  | Iexternal of 'qo * 's  (** the question, with the suspended state *)
  | Istuck
  | Ifuel

(** Advance a state to its next interaction point (used by the
    co-execution checker), by the same loop and fuel rule as {!run}. *)
val run_to_interaction :
  fuel:int ->
  ('s, 'qi, 'ri, 'qo, 'ro) lts ->
  's ->
  Events.trace * ('s, 'ri, 'qo) interaction
