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

(** Run a [C]-interfaced semantics (Clight through RTL) on a C query.
    [check_reply] validates oracle answers (see {!Smallstep.run}). *)
let run_c_level lts ~fuel ?(oracle = fun _ -> None) ?check_reply (q : c_query) :
    c_outcome =
  Obs_lts.run
    ~pp_qi:(Format.asprintf "%a" pp_c_query)
    ~pp_ri:(Format.asprintf "%a" pp_c_reply)
    ~pp_qo:(Format.asprintf "%a" pp_c_query)
    ?check_reply ~fuel lts ~oracle q

(** Run an [L]-interfaced semantics (LTL, Linear) on a C query through
    [CL]. *)
let run_l_level lts ~fuel ?(oracle = fun _ -> None) (q : c_query) :
    (c_outcome, string) result =
  match cc_cl.Simconv.fwd_query q with
  | None -> Error "CL cannot marshal the query"
  | Some (w, lq) ->
    let o = Obs_lts.run ~fuel lts ~oracle lq in
    map_outcome (fun r -> cc_cl.Simconv.bwd_reply w r) o

(** Run Mach on a C query through [CL · LM]. *)
let run_m_level lts ~fuel ?(oracle = fun _ -> None) (q : c_query) :
    (c_outcome, string) result =
  match cc_cm.Simconv.fwd_query q with
  | None -> Error "CL.LM cannot marshal the query"
  | Some (w, mq) ->
    let o = Obs_lts.run ~fuel lts ~oracle mq in
    map_outcome (fun r -> cc_cm.Simconv.bwd_reply w r) o

(** Run Asm on a C query through [CA = CL · LM · MA]. [oracle] answers
    A-level external calls; [check_reply] validates those answers
    against the A-side of the convention, diagnosing misbehaving
    environments as [Env_violation]. *)
let run_a_level lts ~fuel ?(oracle = fun _ -> None) ?check_reply (q : c_query) :
    (c_outcome, string) result =
  match cc_ca.Simconv.fwd_query q with
  | None -> Error "CA cannot marshal the query"
  | Some (w, aq) ->
    let o = Obs_lts.run ?check_reply ~fuel lts ~oracle aq in
    map_outcome (fun r -> cc_ca.Simconv.bwd_reply w r) o

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
