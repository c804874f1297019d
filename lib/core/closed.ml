(** Closing an open semantics into a whole-program semantics
    (paper §3.1–3.2: the interface [1 ↠ W]).

    [close lts ~entry ~decode] turns [L : A ↠ B] into a process semantics
    over the whole-program interface [W = ⟨1, int⟩]: the unique question
    [()] activates [L] on the conventional entry query (e.g. a call to
    [main]), external calls escape unanswered (a closed program must not
    have any, unless an oracle is supplied), and the exit status is
    decoded from the final answer. The closed semantics runs over [L]'s
    own states. This recovers the original CompCert semantics shape from
    our open semantics, reproducing the first row of the paper's
    Table 4. *)

open Smallstep

let close (l : ('s, 'qi, 'ri, 'qo, 'ro) lts) ~(entry : 'qi)
    ~(decode : 'ri -> int32 option) : ('s, unit, int32, 'qo, 'ro) lts =
  {
    l with
    name = "[" ^ l.name ^ "]";
    dom = (fun () -> l.dom entry);
    init = (fun () -> l.init entry);
    final = (fun s -> Option.bind (l.final s) decode);
    handover = None;
  }
