(** Closing an open semantics into a whole-program semantics over the
    interface [W = ⟨1, int⟩] (paper §3.1–3.2, Table 4 row 1). *)

open Smallstep

(** [close lts ~entry ~decode]: the unique question [()] activates [lts]
    on the conventional entry query; the exit status is decoded from the
    final answer. The closed semantics runs over [lts]'s own states. *)
val close :
  ('s, 'qi, 'ri, 'qo, 'ro) lts ->
  entry:'qi ->
  decode:('ri -> int32 option) ->
  ('s, unit, int32, 'qo, 'ro) lts
