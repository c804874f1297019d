(** Adversarial partner synthesis (the When-Good-Components-Go-Bad
    scenario, after Abate et al.'s RSC^DC).

    PR 2's chaos oracles attack a component from the {e environment}
    side of the query/reply boundary. Here the adversary is a whole
    {e component}: an Asm-level LTS that is linked against a correct
    compiled component through horizontal composition [⊕]
    ({!Core.Hcomp.compose}) and exercised through the same language
    interface [A] as any honestly compiled partner.

    The synthesizer is a back-translation: given the shared symbol
    table, the partner's exported primitives, and an interaction-trace
    prefix recorded from a well-behaved run (the {!Driver.Io_oracle}
    call log), it produces an LTS that replays the recorded replies
    faithfully — register-file for register-file, exactly as the
    [A]-level oracle axiomatization would answer — and then, at a chosen
    activation, goes rogue in one of several modes. Faithfulness of the
    replay prefix is what makes the campaign meaningful: up to the rogue
    point the composite run is indistinguishable from the recorded one
    (checked per-trial by {!Campaign}), so any detection is attributable
    to the rogue behavior alone.

    The corruption vocabulary is shared with
    {!Faultinject.Chaos_oracle} ([clobber_callee_saves], [wild_pointer],
    [set_result]), so the environment-level and component-level attack
    matrices line up mode-for-mode. *)

open Support
open Memory.Values
open Iface
open Iface.Li
module Chaos = Faultinject.Chaos_oracle
module Io = Driver.Io_oracle

(** How a synthesized partner misbehaves after its replay prefix. *)
type mode =
  | Replay_faithful  (** never goes rogue: the back-translation control *)
  | Wrong_result  (** perturb the recorded result value by one *)
  | Clobber_callee_save  (** trash the callee-save registers in the reply *)
  | Wild_pointer  (** return a pointer into an unshared (unallocated) block *)
  | Call_storm
      (** re-entrantly call back into the correct component — a call
          outside the partner's declared (empty) import set *)
  | Silent_divergence  (** never answer: spin internally forever *)
  | Early_halt  (** give up: answer with an undefined result value *)

let all_modes =
  [ Replay_faithful; Wrong_result; Clobber_callee_save; Wild_pointer;
    Call_storm; Silent_divergence; Early_halt ]

let rogue_modes = List.filter (fun m -> m <> Replay_faithful) all_modes

let mode_name = function
  | Replay_faithful -> "replay-faithful"
  | Wrong_result -> "wrong-result"
  | Clobber_callee_save -> "clobber-callee-save"
  | Wild_pointer -> "wild-pointer"
  | Call_storm -> "call-storm"
  | Silent_divergence -> "silent-divergence"
  | Early_halt -> "early-halt"

let mode_of_name s = List.find_opt (fun m -> mode_name m = s) all_modes

(** {1 States of a synthesized partner}

    Partners compute instantly: an activation is born knowing its answer
    ([Answer], popped by the composite on the next step), except for the
    rogue states — [Storm] makes one re-entrant call before answering,
    [Spin] diverges silently. *)

type pstate =
  | Answer of a_reply
  | Storm of { storm_q : a_query; storm_reply : a_reply }
  | Spin

(** A synthesized partner: the LTS plus introspection for the campaign
    report. The LTS carries a mutable activation counter, so an instance
    is {b single-use}: synthesize a fresh partner per run. *)
type t = {
  p_lts : (pstate, a_query, a_reply, a_query, a_reply) Core.Smallstep.lts;
  p_activations : unit -> int;  (** partner activations so far *)
  p_rogue_fired : unit -> bool;  (** the rogue activation was reached *)
}

(** [synthesize ~symbols ~prims ~entry ~trace ~mode ~rogue_at ()]
    back-translates the recorded [trace] into a partner LTS exporting
    [prims] under the shared symbol table. Activation [i] (0-based)
    replays [trace]'s reply [i]; activations beyond the recorded prefix
    fall back to the primitive's honest implementation (so re-entrant
    storms still terminate). Under any rogue [mode], activation
    [rogue_at] misbehaves; every other activation is faithful. [entry]
    is the correct component's entry symbol, the target of
    [Call_storm]'s undeclared re-entrant call. *)
let synthesize ~(symbols : Ident.t list) ~(prims : Io.primitive list)
    ~(entry : Ident.t) ~(trace : Io.log_entry list) ~(mode : mode)
    ~(rogue_at : int) () : t =
  let symtbl, _ = Genv.make_symtbl symbols in
  let exports = Io.export_table ~symbols prims in
  let entry_block = Ident.Map.find_opt entry symtbl in
  let trace_arr = Array.of_list trace in
  let count = ref 0 in
  let rogue_fired = ref false in
  (* Replay the recorded reply only while the run is still on-script:
     same callee, same arguments as the recorded activation. Once the
     actual call diverges from the trace (e.g. downstream of a rogue
     perturbation), the honest implementation is the back-translation's
     natural continuation — replaying recorded results against different
     arguments would silently erase the perturbation. *)
  let recorded_result (p : Io.primitive) i (q : a_query) : int32 =
    let args = Io.int_args (Callconv.ca_arguments p.Io.prim_sig q) in
    let fallback () =
      match args with Some a -> p.Io.prim_impl a | None -> 0l
    in
    if i < Array.length trace_arr then (
      let e = trace_arr.(i) in
      if e.Io.call_name = p.Io.prim_name && args = Some e.Io.call_args then
        e.Io.call_res
      else fallback ())
    else fallback ()
  in
  let name = Printf.sprintf "partner[%s]" (mode_name mode) in
  let init q =
    match Io.find_export exports (Pregfile.get PC q.aq_rs) with
    | None -> invalid_arg (name ^ ".init: not an exported primitive")
    | Some p ->
      let i = !count in
      incr count;
      let sg = p.Io.prim_sig in
      let res = recorded_result p i q in
      let reply v = Callconv.ca_reply ~sg ~res:v q in
      let well = reply (Vint res) in
      if mode = Replay_faithful || i <> rogue_at then Answer well
      else begin
        rogue_fired := true;
        match mode with
        | Replay_faithful -> Answer well
        | Wrong_result -> Answer (reply (Vint (Int32.add res 1l)))
        | Clobber_callee_save ->
          Answer { well with ar_rs = Chaos.clobber_callee_saves well.ar_rs }
        | Wild_pointer -> Answer (reply (Chaos.wild_pointer q.aq_mem))
        | Early_halt -> Answer (reply Vundef)
        | Silent_divergence -> Spin
        | Call_storm -> (
          match entry_block with
          | None -> Answer well
          | Some eb ->
            let storm_q =
              { aq_rs = Pregfile.set PC (Vptr (eb, 0)) q.aq_rs;
                aq_mem = q.aq_mem }
            in
            Storm { storm_q; storm_reply = well })
      end
  in
  let lts =
    {
      Core.Smallstep.name = name;
      dom = (fun q -> Io.find_export exports (Pregfile.get PC q.aq_rs) <> None);
      init;
      step = (fun s -> match s with Spin -> [ (Core.Events.e0, Spin) ] | _ -> []);
      at_external =
        (fun s -> match s with Storm { storm_q; _ } -> Some storm_q | _ -> None);
      after_external =
        (fun s _r ->
          match s with
          | Storm { storm_reply; _ } -> Answer storm_reply
          | _ -> invalid_arg (name ^ ".after_external: not at an external call"));
      final = (fun s -> match s with Answer r -> Some r | _ -> None);
      handover = None;
    }
  in
  {
    p_lts = lts;
    p_activations = (fun () -> !count);
    p_rogue_fired = (fun () -> !rogue_fired);
  }
