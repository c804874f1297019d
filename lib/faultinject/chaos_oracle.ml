(** Adversarial environments ("chaos oracles").

    An open component's correctness statement quantifies over {e all}
    environments, including hostile ones: an environment may refuse to
    answer, answer with an ill-typed value, clobber registers the
    convention says it must preserve, hand back pointers that violate
    the memory injection, or simply never let the component finish. The
    harness must {e detect and report} each of these — never surface an
    uncaught exception.

    Each chaos mode wraps a well-behaved base oracle and corrupts its
    replies in one specific way. Detection happens through the
    [check_reply] hook of {!Core.Smallstep.run}: {!conformance_c} /
    {!conformance_a} validate every answer against the convention's
    obligations, so a corrupted reply surfaces as
    [Smallstep.Env_violation] (and a refusal as [Env_stuck], fuel
    burning as [Out_of_fuel]) — all ordinary, reportable outcomes. *)

open Memory
open Memory.Mtypes
open Memory.Values
open Target
open Iface
open Iface.Li

type mode =
  | Well_behaved  (** the base oracle, unperturbed (control) *)
  | Refuse  (** answer [None] to every question *)
  | Ill_typed  (** answer with a value outside the signature's result type *)
  | Clobber_callee_save  (** trash a callee-save register in the reply *)
  | Wild_pointer  (** reply with a pointer outside the shared injection *)
  | Burn_fuel  (** answer, but so "slowly" the component runs out of fuel *)

let all_modes =
  [ Well_behaved; Refuse; Ill_typed; Clobber_callee_save; Wild_pointer; Burn_fuel ]

let mode_name = function
  | Well_behaved -> "well-behaved"
  | Refuse -> "refuse"
  | Ill_typed -> "ill-typed"
  | Clobber_callee_save -> "clobber-callee-save"
  | Wild_pointer -> "wild-pointer"
  | Burn_fuel -> "burn-fuel"

let mode_of_name s = List.find_opt (fun m -> mode_name m = s) all_modes

(** {1 Chaos wrappers}

    Each wrapper perturbs the base oracle's replies according to the
    mode. The C-level and A-level shapes differ (values vs register
    files), so there is one wrapper per interface. *)

(* A pointer into a block the injection cannot contain: any block at or
   beyond the reply memory's nextblock is unallocated, hence unrelated
   to any source-level block. *)
let wild_pointer m = Vptr (Mem.nextblock m + 64, 0)

(** {1 Shared corruption vocabulary}

    Register-file corruptions used both here (adversarial {e
    environments}: oracles at the query/reply boundary) and by
    {!Robust.Partner} (adversarial {e components}: whole synthesized
    partners pushed through [⊕]). Keeping them in one place makes the
    two campaigns' attack matrices comparable mode-for-mode. *)

(** The pattern written into clobbered registers — recognizable in
    dumps. *)
let clobber_pattern = Vint 0xDEADl

(** Trash every callee-save register of the target convention. *)
let clobber_callee_saves (rs : Pregfile.t) : Pregfile.t =
  List.fold_left
    (fun rs m -> Pregfile.set (Mreg m) clobber_pattern rs)
    rs Machregs.callee_save_regs

(** Overwrite the result register of signature [sg] with [v]. *)
let set_result ?(sg = signature_main) (v : value) (rs : Pregfile.t) :
    Pregfile.t =
  Pregfile.set (Mreg (Conventions.loc_result sg)) v rs

(** A value guaranteed to be outside the signature's result type (the
    conventions here never return floats in integer registers). *)
let ill_typed_value = Vfloat 0.5

let c_chaos (mode : mode) (base : c_query -> c_reply option) :
    c_query -> c_reply option =
 fun q ->
  match mode with
  | Well_behaved -> base q
  | Refuse -> None
  | Ill_typed -> (
    match base q with
    | Some r -> Some { r with cr_res = Vfloat 0.5 }
    | None -> None)
  | Clobber_callee_save ->
    (* No register file at the C level; the closest C-shaped attack is
       answering with an unrelated (wild) result pointer, same as
       [Wild_pointer]. Kept distinct so the A-level matrix lines up. *)
    Option.map (fun r -> { r with cr_res = wild_pointer r.cr_mem }) (base q)
  | Wild_pointer ->
    Option.map (fun r -> { r with cr_res = wild_pointer r.cr_mem }) (base q)
  | Burn_fuel -> base q

let a_chaos (mode : mode) (base : a_query -> a_reply option) :
    a_query -> a_reply option =
 fun q ->
  match mode with
  | Well_behaved -> base q
  | Refuse -> None
  | Ill_typed ->
    Option.map (fun r -> { r with ar_rs = set_result ill_typed_value r.ar_rs }) (base q)
  | Clobber_callee_save ->
    Option.map (fun r -> { r with ar_rs = clobber_callee_saves r.ar_rs }) (base q)
  | Wild_pointer ->
    Option.map
      (fun r -> { r with ar_rs = set_result (wild_pointer r.ar_mem) r.ar_rs })
      (base q)
  | Burn_fuel -> base q

(** Under [Burn_fuel] the oracle answers but the run is given only this
    much fuel, modeling an environment that starves the component. *)
let burnt_fuel = 16

let fuel_for mode ~fuel = match mode with Burn_fuel -> burnt_fuel | _ -> fuel

(** {1 Conformance checking}

    The reply-side obligations of the conventions, as executable checks
    suitable for [Smallstep.run ~check_reply]. A violated obligation
    yields [Error why], which the interpreter turns into
    [Env_violation] — detected, reported, no exception. The obligations
    are {!Iface.Callconv}'s; each check reports the first breach. *)

let first_breach = function
  | [] -> Ok ()
  | b :: _ -> Error (Format.asprintf "%a" Callconv.pp_breach b)

(** C-level conformance: the reply's result value must match the query
    signature's result type and not leak unallocated pointers. *)
let conformance_c (q : c_query) (r : c_reply) : (unit, string) result =
  first_breach (Callconv.result_breaches ~mem:r.cr_mem q.cq_sg.sig_res r.cr_res)

(** A-level conformance, the reply side of the paper's eq. (7): the
    environment must return to the caller ([PC' = RA]), preserve the
    stack pointer and every callee-save register, and put a well-typed,
    injection-respecting value in the result register. *)
let conformance_a ?(sg = signature_main) (q : a_query) (r : a_reply) :
    (unit, string) result =
  first_breach (Callconv.ca_breaches ~sg q.aq_rs r)
