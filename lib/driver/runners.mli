(** Running each intermediate language on C-level queries: the executable
    use of the simulation conventions. A source-level [C] query is
    marshaled down through [CL], [LM] and [MA] to activate a lower-level
    semantics, and the answer is marshaled back up. *)

open Support
open Core
open Iface
open Iface.Li

(** [CA = CL · LM · MA : C ⇔ A] — the structural content of the calling
    convention [C] of Theorem 3.8 (see [Iface.Callconv.cc_ca]). *)
val cc_ca : (Iface.Callconv.ca_world, c_query, a_query, c_reply, a_reply) Simconv.t

(** [CM = CL · LM : C ⇔ M]. *)
val cc_cm :
  ( (Memory.Mtypes.signature * Target.Locations.Locset.t) * Iface.Callconv.lm_world,
    c_query, m_query, c_reply, m_reply ) Simconv.t

(** Outcome of a lower-level run, read back as a C-level reply. *)
type c_outcome = (c_reply, c_query) Smallstep.outcome

(** The conventional query invoking a function of a program: resolves the
    symbol, builds the initial memory. *)
val main_query :
  symbols:Ident.t list ->
  defs:('f, 'v) Ast.program ->
  ?name:string ->
  ?args:Memory.Values.value list ->
  ?sg:Memory.Mtypes.signature ->
  unit ->
  c_query option

val run_c_level :
  ('s, c_query, c_reply, c_query, 'ro) Smallstep.lts ->
  fuel:int ->
  ?oracle:(c_query -> 'ro option) ->
  ?check_reply:(c_query -> 'ro -> (unit, string) result) ->
  c_query ->
  c_outcome

val run_l_level :
  ('s, l_query, l_reply, 'qo, 'ro) Smallstep.lts ->
  fuel:int ->
  ?oracle:('qo -> 'ro option) ->
  c_query ->
  (c_outcome, string) result

val run_m_level :
  ('s, m_query, m_reply, 'qo, 'ro) Smallstep.lts ->
  fuel:int ->
  ?oracle:('qo -> 'ro option) ->
  c_query ->
  (c_outcome, string) result

(** [check_reply] validates A-level oracle answers against the A-side of
    the convention; violations surface as [Env_violation], a diagnosed
    outcome. *)
val run_a_level :
  ('s, a_query, a_reply, 'qo, 'ro) Smallstep.lts ->
  fuel:int ->
  ?oracle:('qo -> 'ro option) ->
  ?check_reply:('qo -> 'ro -> (unit, string) result) ->
  c_query ->
  (c_outcome, string) result

(** The refinement used by the differential harness: traces agree and the
    target's answer refines the source's ([≤v]); source UB licenses any
    target behavior; twin fuel exhaustion is inconclusive (accepted). *)
val outcome_refines : c_outcome -> c_outcome -> bool

(** A campaign's reading of an outcome: its printable name, and whether
    the harness diagnosed something (anything but a final answer). *)
val classify_outcome : c_outcome -> string * bool

val pp_c_outcome : Format.formatter -> c_outcome -> unit
