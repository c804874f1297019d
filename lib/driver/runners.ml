(** Running each intermediate language on C-level queries.

    These are the executable counterparts of the simulation conventions
    used in the paper: a source-level [C] query is marshaled down through
    [CL], [LM] and [MA] to activate the lower-level semantics, and the
    answer is marshaled back up. The composite [CA = CL · LM · MA] is
    exactly the structural content of the calling convention [C] of
    Theorem 3.8. *)

open Support
open Memory.Values
open Core
open Iface
open Iface.Li
open Iface.Callconv

(** [CA = CL · LM · MA : C ⇔ A] (paper §5). *)
let cc_ca = Iface.Callconv.cc_ca

(** [CM = CL · LM : C ⇔ M]. *)
let cc_cm = Iface.Callconv.cc_cm

(* Outcome of a lower-level run, read back as a C-level reply. *)
type c_outcome = (c_reply, c_query) Smallstep.outcome

(* Lower-level external calls that the (empty) oracle cannot answer are
   reported as a distinguished kind of wrong behavior at the C level. *)
let map_outcome bwd (o : ('r2, 'q2) Smallstep.outcome) :
    (('r1, 'q1) Smallstep.outcome, string) result =
  match o with
  | Smallstep.Final (t, r2) -> (
    match bwd r2 with
    | Some r1 -> Ok (Smallstep.Final (t, r1))
    | None -> Error "cannot marshal the reply back to the source level")
  | Smallstep.Goes_wrong (t, why) -> Ok (Smallstep.Goes_wrong (t, why))
  | Smallstep.Env_stuck (t, _) ->
    Ok (Smallstep.Goes_wrong (t, "unresolved external call"))
  | Smallstep.Env_violation (t, why) -> Ok (Smallstep.Env_violation (t, why))
  | Smallstep.Refused -> Ok Smallstep.Refused
  | Smallstep.Out_of_fuel t -> Ok (Smallstep.Out_of_fuel t)

(** Build the conventional C query invoking [main] (or another function)
    of a program. *)
let main_query ~symbols ~(defs : ('f, 'v) Ast.program) ?(name = "main")
    ?(args = []) ?(sg = Memory.Mtypes.signature_main) () : c_query option =
  let ge = Genv.globalenv ~symbols defs in
  match (Genv.find_symbol ge (Ident.intern name), Genv.init_mem ~symbols defs) with
  | Some b, Some m -> Some { cq_vf = Vptr (b, 0); cq_sg = sg; cq_args = args; cq_mem = m }
  | _ -> None

(* Runs go through [Obs_lts.run]: identical to [Smallstep.run] when
   observability is off, and a span plus replayable interaction log
   (question, steps, calls/replies, final answer, fuel) when on. *)

(* A renderer for the interaction log, which calls it only when
   observability is on. Both arguments are taken before formatting:
   [Format.asprintf "%a"] alone would build its buffer and formatter on
   every run. *)
let str pp x = Format.asprintf "%a" pp x

(** Run a [C]-interfaced semantics (Clight through RTL) on a C query.
    [check_reply] validates oracle answers (see {!Smallstep.run}). *)
let run_c_level lts ~fuel ?(oracle = fun _ -> None) ?check_reply (q : c_query) :
    c_outcome =
  Obs_lts.run ~pp_qi:(str pp_c_query) ~pp_ri:(str pp_c_reply) ~pp_qo:(str pp_c_query)
    ~pp_ro:(str pp_c_reply) ?check_reply ~fuel lts ~oracle q

(* A lower-level run: the query marshaled down through [cc] (named
   [conv] in the error), the reply marshaled back up. The log shows the
   run's question and final answer as the C query and reply they were
   marshaled from and back to, so every level's log of a query opens and
   closes alike; calls and replies print with the interface's own
   printers [pp_q] and [pp_r]. *)
let run_through cc conv pp_q pp_r lts ~fuel ?(oracle = fun _ -> None)
    ?check_reply (q : c_query) : (c_outcome, string) result =
  match cc.Simconv.fwd_query q with
  | None -> Error (conv ^ " cannot marshal the query")
  | Some (w, q') ->
    let bwd = cc.Simconv.bwd_reply w in
    let pp_ri r = match bwd r with Some r -> str pp_c_reply r | None -> "_" in
    map_outcome bwd
      (Obs_lts.run
         ~pp_qi:(fun _ -> str pp_c_query q)
         ~pp_ri ~pp_qo:(str pp_q) ~pp_ro:(str pp_r) ?check_reply ~fuel lts ~oracle q')

(** Run an [L]-interfaced semantics (LTL, Linear) on a C query through
    [CL]. *)
let run_l_level lts ~fuel ?oracle q =
  run_through cc_cl "CL" pp_l_query pp_l_reply lts ~fuel ?oracle q

(** Run Mach on a C query through [CL · LM]. *)
let run_m_level lts ~fuel ?oracle q =
  run_through cc_cm "CL.LM" pp_m_query pp_m_reply lts ~fuel ?oracle q

(** Run Asm on a C query through [CA = CL · LM · MA]. [oracle] answers
    A-level external calls; [check_reply] validates those answers
    against the A-side of the convention, diagnosing misbehaving
    environments as [Env_violation]. *)
let run_a_level lts ~fuel ?oracle ?check_reply q =
  run_through cc_ca "CA" pp_a_query pp_a_reply lts ~fuel ?oracle ?check_reply q

(** The refinement check on outcomes used by the differential harness:
    traces must agree and the target's answer must refine the source's
    ([≤v] on result values). Source undefined behavior licenses any
    target behavior. *)
let outcome_refines (src : c_outcome) (tgt : c_outcome) : bool =
  match (src, tgt) with
  | Smallstep.Goes_wrong _, _ -> true
  | Smallstep.Final (t1, r1), Smallstep.Final (t2, r2) ->
    Events.trace_equal t1 t2 && lessdef r1.cr_res r2.cr_res
  | Smallstep.Refused, Smallstep.Refused -> true
  | Smallstep.Env_stuck (t1, _), Smallstep.Env_stuck (t2, _) ->
    Events.trace_equal t1 t2
  (* A diagnosed environment violation is the environment's fault, not
     the compiler's: both sides facing the same misbehaving oracle is
     consistent. *)
  | Smallstep.Env_violation (t1, _), Smallstep.Env_violation (t2, _) ->
    Events.trace_equal t1 t2
  (* Both sides exhausting the fuel is inconclusive rather than a
     refinement failure; curated tests always terminate. *)
  | Smallstep.Out_of_fuel _, Smallstep.Out_of_fuel _ -> true
  | _ -> false

(** A campaign's reading of an outcome: its printable name, and whether
    the harness diagnosed something (anything but a final answer). *)
let classify_outcome (o : c_outcome) : string * bool =
  match o with
  | Smallstep.Final _ -> ("final", false)
  | Smallstep.Goes_wrong (_, why) -> ("goes-wrong: " ^ why, true)
  | Smallstep.Env_stuck _ -> ("env-stuck", true)
  | Smallstep.Env_violation (_, why) -> ("env-violation: " ^ why, true)
  | Smallstep.Refused -> ("refused", true)
  | Smallstep.Out_of_fuel _ -> ("out-of-fuel", true)

let pp_c_outcome fmt (o : c_outcome) =
  Smallstep.pp_outcome pp_c_reply fmt o
