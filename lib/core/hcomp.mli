(** Horizontal composition of open semantics (paper, Definition 3.2 and
    Figure 5): linking with support for mutual recursion, through an
    alternating stack of activations. One set of Fig. 5 rules serves
    every arity: [compose] is the composite of two components,
    [compose_all] of [n]. *)

open Smallstep

(** Composite states: a stack of activations, each pairing a component
    with a state of that component (whose type the frame hides). The
    head frame is running; the tail frames are suspended callers. *)
type ('q, 'r) state

(** Observable events at the component boundary: the push and pop rules
    of Fig. 5, as seen from outside. Components are named by their
    0-based index: [compose]'s first argument is [0], its second [1].
    Emitted from the composite's [step] function, so meaningful under
    the deterministic first-transition discipline of {!Smallstep.run}.
    Monitors (e.g. {!Robust.Property}) reconstruct the call tree from
    these, pairing each pop with the push that opened the activation. *)
type ('q, 'r) boundary_event =
  | Bpush of { caller : int; callee : int; question : 'q }
      (** an external question of the running frame started a new
          activation *)
  | Bpop of { callee : int; caller : int; answer : 'r }
      (** a finished activation answered the suspended caller below it *)

(** [compose ?observe ?on_diag l1 l2] is [l1 ⊕ l2 : A ↠ A], implementing
    the eight rules of Fig. 5 (i°, run, i•, push, pop, x°, x•). Incoming
    and external questions go to the lowest-indexed component whose
    domain accepts them (i°, push); questions accepted by neither escape
    to the environment (x°). [step] takes the active frame's internal
    step first, and looks for a push or pop only when it is empty; the
    run loop of {!Smallstep} asks the composite's [at_external] (x°)
    only when [step] is empty, so a push asks the running frame's
    [at_external] once.

    A push or pop between two components that have the
    {!Smallstep.handover} capability hands the question or answer over
    without a snapshot; every other payload, and every one that leaves
    the composite (x°, i•), is a snapshot. The composite has no
    handover capability of its own.

    [observe] receives every boundary (push/pop) event (default: none).
    It borrows the event's payload only while it runs: a handed-over
    register file or memory is the next activation's to write, so a
    hook snapshots whatever it keeps.
    [on_diag] fires with a [Domain_overlap] diagnostic whenever more
    than one component accepts a question at i° or push (rule ["init"]
    or ["push"]): linked programs have disjoint domains, so an overlap
    is a masked linker error. Routing still goes to the lowest index. *)
val compose :
  ?observe:(('q, 'r) boundary_event -> unit) ->
  ?on_diag:(Support.Diagnostics.t -> unit) ->
  ('s1, 'q, 'r, 'q, 'r) lts ->
  ('s2, 'q, 'r, 'q, 'r) lts ->
  (('q, 'r) state, 'q, 'r, 'q, 'r) lts

(** [compose_all ?on_diag ls] is [ls.(0) ⊕ … ⊕ ls.(n-1)] (e.g. [n]
    translation units of one language): the composite of {!compose}
    over [n] components, with the same routing and [on_diag]. *)
val compose_all :
  ?on_diag:(Support.Diagnostics.t -> unit) ->
  ('s, 'q, 'r, 'q, 'r) lts array ->
  (('q, 'r) state, 'q, 'r, 'q, 'r) lts
