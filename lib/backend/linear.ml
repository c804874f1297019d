(** Linear: LTL with linearized control flow — a list of instructions with
    explicit labels and gotos (CompCert's [Linear]). Uses interface [L]. *)

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

type label = int

type ros = Rreg of mreg | Rsymbol of Ident.t

type instruction =
  | Lgetstack of slot_kind * int * typ * mreg
  | Lsetstack of mreg * slot_kind * int * typ
  | Lop of Op.operation * mreg list * mreg
  | Lload of chunk * Op.addressing * mreg list * mreg
  | Lstore of chunk * Op.addressing * mreg list * mreg
  | Lcall of signature * ros
  | Ltailcall of signature * ros
  | Llabel of label
  | Lgoto of label
  | Lcond of Op.condition * mreg list * label
  | Lreturn

type code = instruction list

type coq_function = {
  fn_sig : signature;
  fn_stacksize : int;
  fn_code : code;
}

type program = (coq_function, unit) Ast.program

let internal_sig f = f.fn_sig
let link p1 p2 = Ast.link ~internal_sig p1 p2

(* Each label's code suffix. The first occurrence of a duplicated label
   wins, as in a scan of the code from its start. *)
let label_table (c : code) : (label, code) Hashtbl.t =
  let t = Hashtbl.create 16 in
  let rec go = function
    | [] -> ()
    | Llabel l :: rest ->
      if not (Hashtbl.mem t l) then Hashtbl.add t l rest;
      go rest
    | _ :: rest -> go rest
  in
  go c;
  t

(** [per_function build f] is [build f], computed on the first request
    for [f] and kept, as Asm decodes a function on its first call.
    Functions are few, so they are told apart physically in a short
    list. Linear and Mach keep their label tables in one per
    semantics. *)
let per_function (build : 'f -> 'a) : 'f -> 'a =
  let tables = ref [] in
  fun f ->
    match List.assq_opt f !tables with
    | Some t -> t
    | None ->
      let t = build f in
      tables := (f, t) :: !tables;
      t

(** {1 Semantics}

    States carry the code suffix still to execute. The call stack, the
    two execution cores and the register file an activation owns are
    {!Ltl}'s: the stack ends in a base that holds the locset of the
    incoming query, and the run is final when it returns to it. *)

type stackframe = {
  sf_f : coq_function;
  sf_sp : value;
  sf_ls : Locset.t;
  sf_code : code;  (** continuation in the caller *)
}

(** The suspended activations, innermost first, down to the base. *)
type stack =
  | Stackbase of Locset.t  (** the locset of the incoming query *)
  | Stackframe of stackframe * stack

type state =
  | State of stack * coq_function * value * code * Locset.t * Mem.t
  | Callstate of stack * value * signature * Locset.t * Mem.t
  | Returnstate of stack * Locset.t * Mem.t

type genv = (coq_function, unit) Genv.t

(* The locset of the activation's caller. *)
let parent_locset = function
  | Stackbase ls -> ls
  | Stackframe (fr, _) -> fr.sf_ls

(* [gv] is [ge]'s view for operations and [find_label] resolves taken
   branches through a function's label table, built on the first taken
   branch in it; both are built once per semantics. *)
let step (ge : genv) (gv : Op.genv_view)
    ~(find_label : coq_function -> label -> code option)
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
  | State (stack, f, sp, code, ls, m) -> (
    match code with
    | [] -> []
    | instr :: next -> (
      match instr with
      | Llabel _ -> ret (State (stack, f, sp, next, ls, m))
      | Lgoto lbl -> (
        match find_label f lbl with
        | Some code' -> ret (State (stack, f, sp, code', ls, m))
        | None -> [])
      | Lcond (cond, args, lbl) -> (
        match Op.eval_condition cond (mget_list args ls) m with
        | Some true -> (
          match find_label f lbl with
          | Some code' -> ret (State (stack, f, sp, code', ls, m))
          | None -> [])
        | Some false -> ret (State (stack, f, sp, next, ls, m))
        | None -> [])
      | Lop (op, args, res) -> (
        match Op.eval_operation gv sp op (mget_list args ls) m with
        | Some v -> ret (State (stack, f, sp, next, mset res v ls, m))
        | None -> [])
      | Lload (chunk, addr, args, dst) -> (
        match Op.eval_addressing gv sp addr (mget_list args ls) with
        | Some va -> (
          match Mem.loadv chunk m va with
          | Some v -> ret (State (stack, f, sp, next, mset dst v ls, m))
          | None -> [])
        | None -> [])
      | Lstore (chunk, addr, args, src) -> (
        match Op.eval_addressing gv sp addr (mget_list args ls) with
        | Some va -> (
          match Mem.storev chunk m va (mget src ls) with
          | Some m' -> ret (State (stack, f, sp, next, ls, m'))
          | None -> [])
        | None -> [])
      | Lgetstack (sl, ofs, ty, dst) ->
        let v = Locset.get_slot sl ofs ty ls in
        ret (State (stack, f, sp, next, mset dst v ls, m))
      | Lsetstack (src, sl, ofs, ty) ->
        let ls' = Locset.set_slot sl ofs ty (mget src ls) ls in
        ret (State (stack, f, sp, next, ls', m))
      | Lcall (sg, ros) -> (
        match ros_address ros ls with
        | Some vf ->
          let frame = { sf_f = f; sf_sp = sp; sf_ls = ls; sf_code = next } in
          ret (Callstate (Stackframe (frame, stack), vf, sg, ls, m))
        | None -> [])
      | Ltailcall (sg, ros) -> (
        match ros_address ros ls with
        | Some vf -> (
          match Ltl.free_stack m sp f.fn_stacksize with
          | Some m' ->
            let ls' = Ltl.return_regs (parent_locset stack) ls in
            ret (Callstate (stack, vf, sg, ls', m'))
          | None -> [])
        | None -> [])
      | Lreturn -> (
        match Ltl.free_stack m sp f.fn_stacksize with
        | Some m' ->
          let ls' = Ltl.return_regs (parent_locset stack) ls in
          ret (Returnstate (stack, ls', m'))
        | None -> [])))
  | Callstate (stack, vf, sg, ls, m) -> (
    match Genv.find_funct ge vf with
    | Some (Ast.Internal f) ->
      if not (signature_equal sg f.fn_sig) then []
      else
        let m1, b = Mem.alloc m 0 f.fn_stacksize in
        ret (State (stack, f, Vptr (b, 0), f.fn_code, Ltl.call_regs ls, m1))
    | Some (Ast.External _) | None -> [])
  | Returnstate (Stackframe (frame, stack), ls, m) ->
    ret
      (State
         (stack, frame.sf_f, frame.sf_sp, frame.sf_code, Ltl.merge_slots frame.sf_ls ls, m))
  | Returnstate (Stackbase _, _, _) -> []

let semantics_gen ~(mutate : bool) ~(symbols : Ident.t list) (p : program) :
    (state, l_query, l_reply, l_query, l_reply) Core.Smallstep.lts =
  let ge = Genv.globalenv ~symbols p in
  let gv = { Op.find_symbol = (fun id -> Genv.find_symbol ge id) } in
  let labels = per_function (fun f -> label_table f.fn_code) in
  let find_label f lbl = Hashtbl.find_opt (labels f) lbl in
  let rset = if mutate then Regfile.update else Regfile.set in
  {
    Core.Smallstep.name = "Linear";
    dom =
      (fun q ->
        match Genv.find_funct ge q.lq_vf with
        | Some (Ast.Internal f) -> signature_equal q.lq_sg f.fn_sig
        | _ -> false);
    init =
      (fun q -> Callstate (Stackbase q.lq_ls, q.lq_vf, q.lq_sg, q.lq_ls, q.lq_mem));
    step = step ge gv ~find_label ~rset;
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
        | _ -> invalid_arg "Linear.after_external: not at an external call");
    final =
      (function
        | Returnstate (Stackbase _, ls, m) -> Some { lr_ls = ls; lr_mem = m }
        | _ -> None);
    handover = None;
  }

(** The Linear open semantics, on the in-place register file and a memory
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
  | Lgetstack (sl, ofs, ty, dst) ->
    Format.fprintf fmt "%a = %a(%d):%a" pp_mreg dst pp_slot_kind sl ofs pp_typ ty
  | Lsetstack (src, sl, ofs, ty) ->
    Format.fprintf fmt "%a(%d):%a = %a" pp_slot_kind sl ofs pp_typ ty pp_mreg src
  | Lop (op, args, res) ->
    Format.fprintf fmt "%a = %a(%a)" pp_mreg res Op.pp_operation op regs args
  | Lload (chunk, addr, args, dst) ->
    Format.fprintf fmt "%a = load %a %a(%a)" pp_mreg dst pp_chunk chunk
      Op.pp_addressing addr regs args
  | Lstore (chunk, addr, args, src) ->
    Format.fprintf fmt "store %a %a(%a) := %a" pp_chunk chunk Op.pp_addressing
      addr regs args pp_mreg src
  | Lcall (_, ros) -> Format.fprintf fmt "call %a" pp_ros ros
  | Ltailcall (_, ros) -> Format.fprintf fmt "tailcall %a" pp_ros ros
  | Llabel l -> Format.fprintf fmt "%d:" l
  | Lgoto l -> Format.fprintf fmt "goto %d" l
  | Lcond (cond, args, l) ->
    Format.fprintf fmt "if %a(%a) goto %d" Op.pp_condition cond regs args l
  | Lreturn -> Format.fprintf fmt "return"

let pp_function fmt (f : coq_function) =
  Format.fprintf fmt "@[<v>linear function(%a) stack %d@," pp_signature f.fn_sig
    f.fn_stacksize;
  List.iter (fun i -> Format.fprintf fmt "  %a@," pp_instruction i) f.fn_code;
  Format.fprintf fmt "@]"
