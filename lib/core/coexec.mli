(** Co-execution: the executable counterpart of open forward simulations
    (paper §3.3, Fig. 6). A successful co-execution is one concrete
    instance of the simulation diagrams; a divergence produces a
    descriptive counterexample. *)

open Smallstep

type verdict = Pass | Fail of string

val pp_verdict : Format.formatter -> verdict -> unit
val is_pass : verdict -> bool

(** [check ~fuel ~l1 ~l2 ~cc_in ~cc_out ~oracle q1] marshals [q1] through
    [cc_in], activates both semantics and co-executes them:
    - at every pair of outgoing calls, a world relating the two questions
      is inferred ([cc_out.infer_world]) and the relation checked;
    - [oracle] answers the source-level call and [cc_out.fwd_reply]
      produces the related target-level answer;
    - final answers must satisfy [cc_in.chk_reply]; event traces must
      agree; a stuck source licenses any target behavior. *)
val check :
  fuel:int ->
  l1:('s1, 'q1, 'r1, 'qo1, 'ro1) lts ->
  l2:('s2, 'q2, 'r2, 'qo2, 'ro2) lts ->
  cc_in:('wb, 'q1, 'q2, 'r1, 'r2) Simconv.t ->
  cc_out:('wa, 'qo1, 'qo2, 'ro1, 'ro2) Simconv.t ->
  oracle:('qo1 -> 'ro1 option) ->
  'q1 ->
  verdict
