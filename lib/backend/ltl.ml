(** LTL: RTL after register allocation — operations over machine registers
    and abstract stack slots (CompCert's [LTL], instruction-level CFG).

    LTL and Linear use the language interface [L] (paper, Table 2):
    queries carry a location map. The semantics enforces the callee-save
    discipline through [return_regs], exactly as CompCert does: this is
    the semantic obligation that the [Allocation] correctness (convention
    [wt · ext · CL]) relies on. *)

open Support
open Memory
open Memory.Mtypes
open Memory.Values
open Memory.Memdata
open Middle
open Target.Machregs
open Target.Locations
open Iface
open Iface.Li

type node = int

(** Node-indexed code, as in RTL ({!Middle.Rtl.Code}). *)
module Code = Rtl.Code

type ros = Rreg of mreg | Rsymbol of Ident.t

type instruction =
  | Lnop of node
  | Lop of Op.operation * mreg list * mreg * node
  | Lload of chunk * Op.addressing * mreg list * mreg * node
  | Lstore of chunk * Op.addressing * mreg list * mreg * node
  | Lgetstack of slot_kind * int * typ * mreg * node
  | Lsetstack of mreg * slot_kind * int * typ * node
  | Lcall of signature * ros * node
  | Ltailcall of signature * ros
  | Lcond of Op.condition * mreg list * node * node
  | Lreturn

type code = instruction Code.t

type coq_function = {
  fn_sig : signature;
  fn_stacksize : int;
  fn_code : code;
  fn_entrypoint : node;
}

type program = (coq_function, unit) Ast.program

let internal_sig f = f.fn_sig
let link p1 p2 = Ast.link ~internal_sig p1 p2

let successors_instr = function
  | Lnop n
  | Lop (_, _, _, n)
  | Lload (_, _, _, _, n)
  | Lstore (_, _, _, _, n)
  | Lgetstack (_, _, _, _, n)
  | Lsetstack (_, _, _, _, n)
  | Lcall (_, _, n) ->
    [ n ]
  | Lcond (_, _, n1, n2) -> [ n1; n2 ]
  | Ltailcall _ | Lreturn -> []

(** {1 Locset manipulation at calls (CompCert's [LTL.call_regs],
    [LTL.return_regs])} *)

(* The callee starts on the caller's registers, in a register file of
   its own, and sees the caller's Outgoing slots as its Incoming
   slots. *)
let call_regs (caller : Locset.t) : Locset.t =
  { Locset.init with regs = Regfile.copy caller.regs; incoming = caller.outgoing }

(* At return: callee-save from the caller, caller-save (including result
   registers) from the callee. Stack slots belong to activations and are
   not part of a return's locset. *)
let return_regs (caller : Locset.t) (callee : Locset.t) : Locset.t =
  { Locset.init with regs = Regfile.return_regs caller.regs callee.regs }

(* When a caller resumes after a call, its own stack slots are restored
   from its suspended locset; machine registers come from the returned
   locset. *)
let merge_slots (caller : Locset.t) (returned : Locset.t) : Locset.t =
  { caller with regs = returned.regs }

(** {1 Semantics}

    The call stack ends in a base that holds the locset of the query
    the run was entered with, the parent of the bottom activation, as
    in CompCertO's [LTL]; the run is final when it returns to that
    base.

    One [step] runs both execution cores, chosen by the register write
    it is given (as in {!Mach}): [Regfile.set], copy-on-write, for the
    naive reference, or [Regfile.update], in place, for the default
    core. Slots are persistent maps in both. An activation writes in
    place only a register file it owns: [call_regs] copies the caller's
    when the activation starts, and [after_external] copies the
    environment's reply before the activation resumes on it. A
    suspended activation's locset is never written again (it resumes on
    the returned registers), so a frame, a query handed to the
    environment and a final answer need no copy. *)

type stackframe = {
  sf_f : coq_function;
  sf_sp : value;
  sf_pc : node;
  sf_ls : Locset.t;  (** the caller's locset at the call *)
}

(** The suspended activations, innermost first, down to the base. *)
type stack =
  | Stackbase of Locset.t  (** the locset of the incoming query *)
  | Stackframe of stackframe * stack

type state =
  | State of stack * coq_function * value * node * Locset.t * Mem.t
  | Callstate of stack * value * signature * Locset.t * Mem.t
  | Returnstate of stack * Locset.t * Mem.t

type genv = (coq_function, unit) Genv.t

(* The locset of the activation's caller. *)
let parent_locset = function
  | Stackbase ls -> ls
  | Stackframe (fr, _) -> fr.sf_ls

let free_stack m sp sz =
  match sp with
  | Vptr (b, 0) -> Mem.free m b 0 sz
  | _ -> if sz = 0 then Some m else None

(* Writes go through [rset] only on success paths, so a stuck step
   leaves an in-place register file untouched. [gv] is [ge]'s view for
   operations, built once per semantics. *)
let step (ge : genv) (gv : Op.genv_view)
    ~(rset : mreg -> value -> Regfile.t -> Regfile.t) (s : state) :
    (Core.Events.trace * state) list =
  let ret s' = [ (Core.Events.e0, s') ] in
  let mget r (ls : Locset.t) = Regfile.get r ls.regs in
  let mget_list rl ls = List.map (fun r -> mget r ls) rl in
  let mset r v ls = Locset.set_reg rset r v ls in
  let ros_address ros ls =
    match ros with
    | Rreg r -> Some (mget r ls)
    | Rsymbol id -> (
      match Genv.find_symbol ge id with
      | Some b -> Some (Vptr (b, 0))
      | None -> None)
  in
  match s with
  | State (stack, f, sp, pc, ls, m) -> (
    match Code.get f.fn_code pc with
    | None -> []
    | Some instr -> (
      match instr with
      | Lnop n -> ret (State (stack, f, sp, n, ls, m))
      | Lop (op, args, res, n) -> (
        match Op.eval_operation gv sp op (mget_list args ls) m with
        | Some v -> ret (State (stack, f, sp, n, mset res v ls, m))
        | None -> [])
      | Lload (chunk, addr, args, dst, n) -> (
        match Op.eval_addressing gv sp addr (mget_list args ls) with
        | Some va -> (
          match Mem.loadv chunk m va with
          | Some v -> ret (State (stack, f, sp, n, mset dst v ls, m))
          | None -> [])
        | None -> [])
      | Lstore (chunk, addr, args, src, n) -> (
        match Op.eval_addressing gv sp addr (mget_list args ls) with
        | Some va -> (
          match Mem.storev chunk m va (mget src ls) with
          | Some m' -> ret (State (stack, f, sp, n, ls, m'))
          | None -> [])
        | None -> [])
      | Lgetstack (sl, ofs, ty, dst, n) ->
        let v = Locset.get_slot sl ofs ty ls in
        ret (State (stack, f, sp, n, mset dst v ls, m))
      | Lsetstack (src, sl, ofs, ty, n) ->
        let ls' = Locset.set_slot sl ofs ty (mget src ls) ls in
        ret (State (stack, f, sp, n, ls', m))
      | Lcall (sg, ros, n) -> (
        match ros_address ros ls with
        | Some vf ->
          let frame = { sf_f = f; sf_sp = sp; sf_pc = n; sf_ls = ls } in
          ret (Callstate (Stackframe (frame, stack), vf, sg, ls, m))
        | None -> [])
      | Ltailcall (sg, ros) -> (
        match ros_address ros ls with
        | Some vf -> (
          match free_stack m sp f.fn_stacksize with
          | Some m' ->
            (* Tail calls pass the parent's locset view: callee-save
               values must already be restored. *)
            let ls' = return_regs (parent_locset stack) ls in
            ret (Callstate (stack, vf, sg, ls', m'))
          | None -> [])
        | None -> [])
      | Lcond (cond, args, n1, n2) -> (
        match Op.eval_condition cond (mget_list args ls) m with
        | Some b -> ret (State (stack, f, sp, (if b then n1 else n2), ls, m))
        | None -> [])
      | Lreturn -> (
        match free_stack m sp f.fn_stacksize with
        | Some m' ->
          ret (Returnstate (stack, return_regs (parent_locset stack) ls, m'))
        | None -> [])))
  | Callstate (stack, vf, sg, ls, m) -> (
    match Genv.find_funct ge vf with
    | Some (Ast.Internal f) ->
      if not (signature_equal sg f.fn_sig) then []
      else
        let m1, b = Mem.alloc m 0 f.fn_stacksize in
        ret (State (stack, f, Vptr (b, 0), f.fn_entrypoint, call_regs ls, m1))
    | Some (Ast.External _) | None -> [])
  | Returnstate (Stackframe (frame, stack), ls, m) ->
    ret (State (stack, frame.sf_f, frame.sf_sp, frame.sf_pc, merge_slots frame.sf_ls ls, m))
  | Returnstate (Stackbase _, _, _) -> []

let semantics_gen ~(mutate : bool) ~(symbols : Ident.t list) (p : program) :
    (state, l_query, l_reply, l_query, l_reply) Core.Smallstep.lts =
  let ge = Genv.globalenv ~symbols p in
  let gv = { Op.find_symbol = (fun id -> Genv.find_symbol ge id) } in
  let rset = if mutate then Regfile.update else Regfile.set in
  {
    Core.Smallstep.name = "LTL";
    dom =
      (fun q ->
        match Genv.find_funct ge q.lq_vf with
        | Some (Ast.Internal f) -> signature_equal q.lq_sg f.fn_sig
        | _ -> false);
    init =
      (fun q -> Callstate (Stackbase q.lq_ls, q.lq_vf, q.lq_sg, q.lq_ls, q.lq_mem));
    step = step ge gv ~rset;
    at_external =
      (function
        | Callstate (_, vf, sg, ls, m) when Genv.calls_out ge vf ->
          Some { lq_vf = vf; lq_sg = sg; lq_ls = ls; lq_mem = m }
        | _ -> None);
    after_external =
      (fun s r ->
        match s with
        | Callstate (stack, _, _, _, _) ->
          Returnstate (stack, Locset.copy r.lr_ls, r.lr_mem)
        | _ -> invalid_arg "LTL.after_external: not at an external call");
    final =
      (function
        | Returnstate (Stackbase _, ls, m) -> Some { lr_ls = ls; lr_mem = m }
        | _ -> None);
    handover = None;
  }

(** The LTL open semantics, on the in-place register file and a memory
    the run owns between interaction points ({!Iface.Li.own_l}). *)
let semantics ~(symbols : Ident.t list) (p : program) :
    (state, l_query, l_reply, l_query, l_reply) Core.Smallstep.lts =
  own_l (semantics_gen ~mutate:true ~symbols p)

(** The same semantics on the persistent (copy-on-write) register file
    and memory model — the reference the mutable-state lockstep suite
    runs against [semantics]. *)
let semantics_naive ~(symbols : Ident.t list) (p : program) :
    (state, l_query, l_reply, l_query, l_reply) Core.Smallstep.lts =
  semantics_gen ~mutate:false ~symbols p

(** {1 Printing} *)

let pp_ros fmt = function
  | Rreg r -> pp_mreg fmt r
  | Rsymbol id -> Ident.pp fmt id

let pp_instruction fmt i =
  let regs fmt rl =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
      pp_mreg fmt rl
  in
  match i with
  | Lnop n -> Format.fprintf fmt "nop -> %d" n
  | Lop (op, args, res, n) ->
    Format.fprintf fmt "%a = %a(%a) -> %d" pp_mreg res Op.pp_operation op regs args n
  | Lload (chunk, addr, args, dst, n) ->
    Format.fprintf fmt "%a = load %a %a(%a) -> %d" pp_mreg dst pp_chunk chunk
      Op.pp_addressing addr regs args n
  | Lstore (chunk, addr, args, src, n) ->
    Format.fprintf fmt "store %a %a(%a) := %a -> %d" pp_chunk chunk
      Op.pp_addressing addr regs args pp_mreg src n
  | Lgetstack (sl, ofs, ty, dst, n) ->
    Format.fprintf fmt "%a = %a(%d):%a -> %d" pp_mreg dst pp_slot_kind sl ofs
      pp_typ ty n
  | Lsetstack (src, sl, ofs, ty, n) ->
    Format.fprintf fmt "%a(%d):%a = %a -> %d" pp_slot_kind sl ofs pp_typ ty
      pp_mreg src n
  | Lcall (_, ros, n) -> Format.fprintf fmt "call %a -> %d" pp_ros ros n
  | Ltailcall (_, ros) -> Format.fprintf fmt "tailcall %a" pp_ros ros
  | Lcond (cond, args, n1, n2) ->
    Format.fprintf fmt "if %a(%a) -> %d else %d" Op.pp_condition cond regs args n1 n2
  | Lreturn -> Format.fprintf fmt "return"

let pp_function fmt (f : coq_function) =
  Format.fprintf fmt "@[<v>ltl function(%a) stack %d entry %d@," pp_signature
    f.fn_sig f.fn_stacksize f.fn_entrypoint;
  let nodes = Code.fold (fun n i acc -> (n, i) :: acc) f.fn_code [] in
  List.iter (fun (n, i) -> Format.fprintf fmt "  %4d: %a@," n pp_instruction i) nodes;
  Format.fprintf fmt "@]"
