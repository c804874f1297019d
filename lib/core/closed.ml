(** Closing an open semantics into a whole-program semantics
    (paper §3.1–3.2: the interface [1 ↠ W]).

    [close lts ~entry ~decode] turns [L : A ↠ B] into a process semantics
    over the whole-program interface [W = ⟨1, int⟩]: the unique question
    [()] activates [L] on the conventional entry query (e.g. a call to
    [main]), external calls escape unanswered (a closed program must not
    have any, unless an oracle is supplied), and the exit status is
    decoded from the final answer. This recovers the original CompCert
    semantics shape from our open semantics, reproducing the first row of
    the paper's Table 4. *)

open Smallstep

type 's state = Sys of 's

let close (l : ('s, 'qi, 'ri, 'qo, 'ro) lts) ~(entry : 'qi)
    ~(decode : 'ri -> int32 option) : ('s state, unit, int32, 'qo, 'ro) lts =
  {
    name = "[" ^ l.name ^ "]";
    dom = (fun () -> l.dom entry);
    init = (fun () -> List.map (fun s -> Sys s) (l.init entry));
    step = (fun (Sys s) -> List.map (fun (t, s') -> (t, Sys s')) (l.step s));
    at_external = (fun (Sys s) -> l.at_external s);
    after_external = (fun (Sys s) r -> List.map (fun s' -> Sys s') (l.after_external s r));
    final = (fun (Sys s) -> Option.bind (l.final s) decode);
    handover = None;
  }
