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

    Violations are accumulated as data; the monitor never raises. *)

open Memory
open Memory.Values
open Iface.Li
module Hcomp = Core.Hcomp

type prop = P_imports | P_callee_save | P_memory | P_welltyped

let all_props = [ P_imports; P_callee_save; P_memory; P_welltyped ]

let prop_name = function
  | P_imports -> "imports"
  | P_callee_save -> "callee-save"
  | P_memory -> "memory"
  | P_welltyped -> "welltyped"

type violation = {
  v_prop : prop;
  v_activation : int;  (** 0-based partner activation index, -1 if unknown *)
  v_detail : string;
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
  pd_export : (string * Memory.Mtypes.signature) option;
}

(** [monitor ~exports ~partner_imports ()] builds a boundary monitor.
    [exports] maps partner export blocks to (name, signature);
    [partner_imports] is the set of blocks the partner has declared it
    may call (empty for the synthesized partners, whose rogue re-entrant
    calls must therefore trip the imports property). *)
let monitor ~(exports : (block * (string * Memory.Mtypes.signature)) list)
    ~(partner_imports : block list) () : monitor =
  let violations = ref [] in
  let calls = ref [] in
  let stack = ref [] in
  let count = ref 0 in
  let violate ~prop ~activation fmt =
    Format.kasprintf
      (fun detail ->
        violations := { v_prop = prop; v_activation = activation; v_detail = detail } :: !violations)
      fmt
  in
  let check_partner_reply ~index ~(rs : Pregfile.t)
      ~(sg : Memory.Mtypes.signature) ~(name : string) (r : a_reply) =
    let rs' = r.ar_rs in
    if Pregfile.get PC rs' <> Pregfile.get RA rs then
      violate ~prop:P_callee_save ~activation:index
        "%s did not return to RA: pc' = %a, ra = %a" name Values.pp
        (Pregfile.get PC rs') Values.pp (Pregfile.get RA rs);
    if Pregfile.get SP rs' <> Pregfile.get SP rs then
      violate ~prop:P_callee_save ~activation:index
        "%s moved the stack pointer: %a -> %a" name Values.pp
        (Pregfile.get SP rs) Values.pp (Pregfile.get SP rs');
    List.iter
      (fun m ->
        let before = Pregfile.get (Mreg m) rs
        and after = Pregfile.get (Mreg m) rs' in
        if before <> after then
          violate ~prop:P_callee_save ~activation:index
            "%s clobbered callee-save %a: %a -> %a" name Target.Machregs.pp_mreg
            m Values.pp before Values.pp after)
      Target.Machregs.callee_save_regs;
    let res = Pregfile.get (Mreg (Target.Conventions.loc_result sg)) rs' in
    (match res with
    | Vptr (b, _) when b >= Mem.nextblock r.ar_mem ->
      violate ~prop:P_memory ~activation:index
        "%s returned a pointer outside the injection: %a (nextblock %d)" name
        Values.pp res (Mem.nextblock r.ar_mem)
    | _ -> ());
    if res = Vundef then
      violate ~prop:P_welltyped ~activation:index
        "%s returned no defined result" name
    else if not (has_rettype res sg.Memory.Mtypes.sig_res) then
      violate ~prop:P_welltyped ~activation:index
        "%s returned an ill-typed result: %a" name Values.pp res
  in
  let observe (e : (a_query, a_reply) Hcomp.boundary_event) =
    match e with
    | Hcomp.Bpush { caller; callee; question = q } ->
      let pc = Pregfile.get PC q.aq_rs in
      let block = match pc with Vptr (b, 0) -> Some b | _ -> None in
      (* The partner's outgoing calls must stay in its declared import
         set, whichever side ends up serving them. *)
      (if caller = partner then
         match block with
         | Some b when List.mem b partner_imports -> ()
         | _ ->
           violate ~prop:P_imports ~activation:(!count - 1)
             "partner called %a, outside its declared import set" Values.pp pc);
      let index, export =
        if callee = partner then begin
          let ex = Option.bind block (fun b -> List.assoc_opt b exports) in
          let i = !count in
          incr count;
          (match ex with
          | Some (name, sg) ->
            calls :=
              { c_name = name;
                c_args = Driver.Io_oracle.decode_int_args ~sg q.aq_rs }
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
        (match pd.pd_export with
        | Some (name, sg) ->
          check_partner_reply ~index:pd.pd_index ~rs:pd.pd_rs ~sg ~name r
        | None -> ())
      | _ ->
        (* A pop without a matching push can only mean the composite was
           driven nondeterministically; record it rather than raise. *)
        violate ~prop:P_imports ~activation:(-1)
          "unmatched pop at the component boundary")
  in
  {
    m_observe = observe;
    m_violations = (fun () -> List.rev !violations);
    m_calls = (fun () -> List.rev !calls);
  }

(** The distinct properties violated, in [all_props] order. *)
let violated (vs : violation list) : prop list =
  List.filter (fun p -> List.exists (fun v -> v.v_prop = p) vs) all_props
