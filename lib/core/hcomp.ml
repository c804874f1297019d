(** Horizontal composition of open semantics (paper, Definition 3.2 and
    Figure 5), written once for an indexed family of components over
    the same language interface.

    [compose l1 l2] is [l1 ⊕ l2] and [compose_all ls] is
    [ls.(0) ⊕ … ⊕ ls.(n-1)]: both are the one composite below, over two
    or [n] components. The composite state is a stack of activations:
    the head frame is running, the tail frames are suspended callers
    awaiting answers (rules push/pop enable mutual recursion to
    arbitrary depth).

    The implementation mirrors the eight rules of Fig. 5:
    - [i°]  an incoming question goes to the lowest-indexed component
      whose domain accepts it;
    - [run] internal steps of the active frame;
    - [i•]  the final state of the last frame answers the incoming
      question;
    - [push] an external question accepted by some component (the
      active one included) starts a new activation on top of the stack,
      routed as at [i°];
    - [pop] a finished activation answers the suspended frame below;
    - [x°]  an external question accepted by no component escapes to
      the environment;
    - [x•]  an environment answer resumes the top frame.

    [step] takes the active frame's internal step first and looks for a
    push or pop only when there is none: by the contract of
    {!Smallstep.lts}, only then may the frame be at an interaction
    point, and the empty step has left its state as it was. The run
    loop of {!Smallstep} drives the composite itself the same way, so
    [at_external] and [final] below are asked only when [step] is
    empty: a push or pop never reaches them.

    A push or pop hands the payload over ({!Smallstep.handover}) when
    the running component and the receiving one both have the
    capability: the caller's question or the callee's answer goes to
    the next activation as is, with no snapshot. A receiver without the
    capability gets a snapshot, and so does everything that leaves the
    composite: x° and i• answer through the plain probes, and the
    composite itself has no handover. The [observe] hook only borrows
    an event's payload. *)

open Smallstep
module Diag = Support.Diagnostics

(* A component with its 0-based index, built once. A frame pairs it
   with a state of that component; [frame] and [any] hide the state
   type, so components of different state types share one stack. *)
type ('s, 'q, 'r) component = { side : int; lts : ('s, 'q, 'r, 'q, 'r) lts }

type ('q, 'r) frame = Frame : ('s, 'q, 'r) component * 's -> ('q, 'r) frame
type ('q, 'r) state = ('q, 'r) frame list
type ('q, 'r) any = Any : ('s, 'q, 'r) component -> ('q, 'r) any

type ('q, 'r) boundary_event =
  | Bpush of { caller : int; callee : int; question : 'q }
  | Bpop of { callee : int; caller : int; answer : 'r }

let compose_list ?(observe : (('q, 'r) boundary_event -> unit) option)
    ?(on_diag : (Diag.t -> unit) option) (cs : ('q, 'r) any list) :
    (('q, 'r) state, 'q, 'r, 'q, 'r) lts =
  let name =
    "(" ^ String.concat " (+) " (List.map (fun (Any c) -> c.lts.name) cs) ^ ")"
  in
  let accepts q (Any c) = c.lts.dom q in
  let overlap ~rule accepting =
    let names = List.map (fun (Any c) -> c.lts.name) accepting in
    Diag.make ~phase:Diag.Linking ~kind:Diag.Domain_overlap
      ~context:
        (("rule", rule)
        :: List.map
             (fun (Any c) -> (Printf.sprintf "component-%d" c.side, c.lts.name))
             accepting)
      "%s accept the same question: overlapping domains (routing to %s \
       masks a linker error)"
      (String.concat " and " names) (List.hd names)
  in
  (* i° and push: the lowest accepting index. Linked programs have
     disjoint domains, so [on_diag] hears of any other taker. [route]
     returns the suffix of [cs] that starts with the accepting
     component, [[]] when none accepts, so routing builds no option. *)
  let rec route ~rule q = function
    | [] -> []
    | (Any c as a) :: rest as taker when c.lts.dom q ->
      (match on_diag with
      | Some f when List.exists (accepts q) rest ->
        f (overlap ~rule (a :: List.filter (accepts q) rest))
      | _ -> ());
      taker
    | _ :: rest -> route ~rule q rest
  in
  (* The payloads of a push and a pop: handed over when the running
     component [c] and the receiving one [c'] both have the capability,
     a snapshot otherwise. The question is asked before its callee is
     known, so a callee without the capability has [c] ask again. *)
  let question c s =
    match c.lts.handover with
    | Some h -> h.hand_external s
    | None -> c.lts.at_external s
  in
  let answer c s c' =
    match (c.lts.handover, c'.lts.handover) with
    | Some h, Some _ -> h.hand_final s
    | _ -> c.lts.final s
  in
  let init q =
    match route ~rule:"init" q cs with
    | Any c :: _ -> [ Frame (c, c.lts.init q) ]
    | [] -> invalid_arg (name ^ ".init: no component accepts the question")
  in
  (* A new activation of [c'] on [q], above the stack [st] whose
     running component is [c]. *)
  let push c st c' q =
    (match observe with
    | Some o -> o (Bpush { caller = c.side; callee = c'.side; question = q })
    | None -> ());
    [ (Events.e0, Frame (c', c'.lts.init q) :: st) ]
  in
  let step = function
    | [] -> []
    | Frame (c, s) :: k as st -> (
      match c.lts.step s with
      (* run; a step that returns its own state leaves the stack as it is *)
      | (t, s') :: _ -> [ (t, if s' == s then st else Frame (c, s') :: k) ]
      | [] -> (
        match question c s with
        | Some q -> (
          (* push, unless no component accepts [q] (x°) *)
          match route ~rule:"push" q cs with
          | Any c' :: _ ->
            if Option.is_some c.lts.handover && Option.is_none c'.lts.handover
            then
              match c.lts.at_external s with
              | Some q -> push c st c' q
              | None -> []
            else push c st c' q
          | [] -> [])
        | None -> (
          (* pop, unless [f] is the bottom frame (i•) *)
          match k with
          | Frame (c', sc) :: k' -> (
            match answer c s c' with
            | Some r ->
              (match observe with
              | Some o -> o (Bpop { callee = c.side; caller = c'.side; answer = r })
              | None -> ());
              [ (Events.e0, Frame (c', c'.lts.after_external sc r) :: k') ]
            | None -> [])
          | [] -> [])))
  in
  let dom q = List.exists (accepts q) cs in
  (* x° *)
  let at_external = function
    | Frame (c, s) :: _ -> (
      match c.lts.at_external s with
      | Some q when not (dom q) -> Some q
      | _ -> None)
    | [] -> None
  in
  (* x• *)
  let after_external st r =
    match st with
    | Frame (c, s) :: k -> Frame (c, c.lts.after_external s r) :: k
    | [] -> invalid_arg (name ^ ".after_external: no suspended activation")
  in
  (* i•: only the bottom frame answers the incoming question *)
  let final = function [ Frame (c, s) ] -> c.lts.final s | _ -> None in
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

let compose ?observe ?on_diag l1 l2 =
  compose_list ?observe ?on_diag
    [ Any { side = 0; lts = l1 }; Any { side = 1; lts = l2 } ]

let compose_all ?on_diag ls =
  compose_list ?on_diag
    (List.mapi (fun side lts -> Any { side; lts }) (Array.to_list ls))
