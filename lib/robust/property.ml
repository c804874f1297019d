(** Executable safety properties over the composed boundary trace.

    While [Hcomp.compose correct rogue] runs, every push/pop at the
    component boundary is fed (via the composite's [observe] hook) to a
    monitor that checks the safety obligations the correct component is
    entitled to — the reply-side discipline of the paper's eq. (7),
    restated as properties of the {e partner}:

    - {b imports}: the partner only calls symbols in its declared import
      set (a re-entrant call storm into the correct component violates
      this);
    - {b callee-save}: a partner activation returns to the caller's
      return address, preserves the stack pointer and every callee-save
      register of {!Target.Conventions};
    - {b memory}: the returned result does not leak pointers into blocks
      outside the shared injection (unallocated blocks);
    - {b welltyped}: the result is a {e defined} value of the export's
      declared result type — a partner that gives up and answers
      [Vundef] violates this even though [Vundef] vacuously inhabits
      every type.

    The last three read the breaches {!Iface.Callconv.ca_breaches} finds
    in a partner's reply ({!prop_of_breach}). Violations are accumulated
    as data; the monitor never raises. *)

open Memory.Values
open Iface
open Iface.Li
module Hcomp = Core.Hcomp
module Io = Driver.Io_oracle

type prop = P_imports | P_callee_save | P_memory | P_welltyped

let all_props = [ P_imports; P_callee_save; P_memory; P_welltyped ]

let prop_name = function
  | P_imports -> "imports"
  | P_callee_save -> "callee-save"
  | P_memory -> "memory"
  | P_welltyped -> "welltyped"

(** The property a breach of the convention violates. *)
let prop_of_breach : Callconv.breach -> prop = function
  | Not_to_ra _ | Sp_moved _ | Callee_save_clobbered _ -> P_callee_save
  | Ill_typed _ -> P_welltyped
  | Outside_injection _ -> P_memory

type violation = {
  v_prop : prop;
  v_activation : int;  (** 0-based partner activation index, -1 if unknown *)
}

(** One recorded call from the correct component into the partner, for
    the replay-prefix sanity check. *)
type call = { c_name : string; c_args : int32 list option }

type monitor = {
  m_observe : (a_query, a_reply) Hcomp.boundary_event -> unit;
  m_violations : unit -> violation list;  (** in event order *)
  m_calls : unit -> call list;  (** activations of the partner, in order *)
}

(* In [Hcomp.compose correct rogue] the correct component is index 0
   and the partner index 1. *)
let partner = 1

(* What the monitor remembers about a pushed activation, to judge its
   pop. The partner's convention obligations only apply to partner
   frames; pushes into the correct component carry no pending check. *)
type pending = {
  pd_side : int;
  pd_index : int;  (** partner activation index; -1 for correct frames *)
  pd_rs : Pregfile.t;
      (** the question's register file, copied: the push event only lends
          it to the monitor, and a handed-over one is the callee's to
          write *)
  pd_export : Io.primitive option;
}

(** [monitor ~exports ~partner_imports ()] builds a boundary monitor.
    [exports] maps partner export blocks to their primitives
    ({!Driver.Io_oracle.export_table}); [partner_imports] is the set of
    blocks the partner has declared it may call (empty for the
    synthesized partners, whose rogue re-entrant calls must therefore
    trip the imports property). *)
let monitor ~(exports : (block * Io.primitive) list)
    ~(partner_imports : block list) () : monitor =
  let violations = ref [] in
  let calls = ref [] in
  let stack = ref [] in
  let count = ref 0 in
  let violate prop activation =
    violations := { v_prop = prop; v_activation = activation } :: !violations
  in
  (* Every breach of the convention, and an undefined result: the
     convention lets [Vundef] stand for any result, but a partner that
     gives up that way breaks [welltyped]. *)
  let check_partner_reply ~index ~rs (p : Io.primitive) (r : a_reply) =
    let sg = p.Io.prim_sig in
    List.iter
      (fun b -> violate (prop_of_breach b) index)
      (Callconv.ca_breaches ~sg rs r);
    if Callconv.ca_result sg r = Vundef then violate P_welltyped index
  in
  let observe (e : (a_query, a_reply) Hcomp.boundary_event) =
    match e with
    | Hcomp.Bpush { caller; callee; question = q } ->
      let pc = Pregfile.get PC q.aq_rs in
      (* The partner's outgoing calls must stay in its declared import
         set, whichever side ends up serving them. *)
      (if caller = partner then
         match pc with
         | Vptr (b, 0) when List.mem b partner_imports -> ()
         | _ -> violate P_imports (!count - 1));
      let index, export =
        if callee = partner then begin
          let ex = Io.find_export exports pc in
          let i = !count in
          incr count;
          (match ex with
          | Some p ->
            calls :=
              { c_name = p.Io.prim_name;
                c_args = Io.int_args (Callconv.ca_arguments p.Io.prim_sig q) }
              :: !calls
          | None -> ());
          (i, ex)
        end
        else (-1, None)
      in
      stack :=
        {
          pd_side = callee;
          pd_index = index;
          pd_rs = Pregfile.copy q.aq_rs;
          pd_export = export;
        }
        :: !stack
    | Hcomp.Bpop { callee; caller = _; answer = r } -> (
      match !stack with
      | pd :: rest when pd.pd_side = callee ->
        stack := rest;
        Option.iter
          (fun p -> check_partner_reply ~index:pd.pd_index ~rs:pd.pd_rs p r)
          pd.pd_export
      | _ ->
        (* A pop without a matching push can only mean the composite was
           driven nondeterministically; record it rather than raise. *)
        violate P_imports (-1))
  in
  {
    m_observe = observe;
    m_violations = (fun () -> List.rev !violations);
    m_calls = (fun () -> List.rev !calls);
  }

(** The distinct properties violated, in [all_props] order. *)
let violated (vs : violation list) : prop list =
  List.filter (fun p -> List.exists (fun v -> v.v_prop = p) vs) all_props
