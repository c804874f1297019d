(** Layered (vertical-in-the-string-diagram) composition of open semantics
    (paper §3.5).

    [layer l1 l2 : A ↠ C] runs [l1 : B ↠ C] on top of [l2 : A ↠ B]:
    questions from the environment activate [l1]; the external calls of
    [l1] are served by [l2]; the external calls of [l2] escape to the
    environment. Unlike [⊕], calls only propagate downward — [l2] cannot
    call back into [l1] — which is what makes heterogeneous stacks such as
    [driver ∘ io ∘ nic] (Examples 1.1 and 3.10) expressible.

    [l1] may call [l2] repeatedly, and [l2] activations are well-bracketed,
    so a stack of pending [l1]-states suffices. *)

open Smallstep

type ('s1, 's2) state =
  | Upper of 's1  (** [l1] running, no pending [l2] activation *)
  | Lower of 's1 * 's2  (** [l1] suspended on a call being served by [l2] *)

let layer (l1 : ('s1, 'qc, 'rc, 'qb, 'rb) lts) (l2 : ('s2, 'qb, 'rb, 'qa, 'ra) lts) :
    (('s1, 's2) state, 'qc, 'rc, 'qa, 'ra) lts =
  let name = Printf.sprintf "(%s . %s)" l1.name l2.name in
  let dom = l1.dom in
  let init q = Upper (l1.init q) in
  (* As in {!Hcomp}: the internal step first; the call and return
     rules only when it is empty. *)
  let step = function
    | Upper s1 -> (
      match l1.step s1 with
      | (t, s') :: _ -> [ (t, Upper s') ]
      | [] -> (
        match l1.at_external s1 with
        | Some q when l2.dom q -> [ (Events.e0, Lower (s1, l2.init q)) ]
        | _ -> []))
    | Lower (s1, s2) -> (
      match l2.step s2 with
      | (t, s2') :: _ -> [ (t, Lower (s1, s2')) ]
      | [] -> (
        match l2.final s2 with
        | Some r -> [ (Events.e0, Upper (l1.after_external s1 r)) ]
        | None -> []))
  in
  let at_external = function
    (* An upper-level call not accepted below has nowhere to go in a
       layered stack: the state is stuck rather than external. *)
    | Upper _ -> None
    | Lower (_, s2) -> l2.at_external s2
  in
  let after_external st r =
    match st with
    | Lower (s1, s2) -> Lower (s1, l2.after_external s2 r)
    | Upper _ -> invalid_arg (name ^ ".after_external: not at an external call")
  in
  let final = function Upper s1 -> l1.final s1 | Lower _ -> None in
  {
    name;
    dom;
    init;
    step;
    at_external;
    after_external;
    final;
    handover = None;
  }
