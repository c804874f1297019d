(** Mach: abstract stack slots concretized into in-memory stack frames
    (CompCert's [Mach], adapted to open semantics as in CompCertO).

    Every activation allocates one frame block laid out by the [Stacking]
    pass ([frame_layout]). The caller's stack pointer (the {e back link})
    and the return address are stored in the frame; [Mgetparam] reaches
    the caller's outgoing argument area through the back link. Mach uses
    the language interface [M]: queries carry an explicit stack pointer
    (base of the argument region) and return address. *)

open Support
open Memory
open Memory.Mtypes
open Memory.Values
open Memory.Memdata
open Middle
open Target.Machregs
open Iface
open Iface.Li

type label = int

type ros = Rreg of mreg | Rsymbol of Ident.t

(** Frame layout, in byte offsets from the frame base (sp). *)
type frame_layout = {
  fl_outgoing : int;  (** words of outgoing argument space, at offset 0 *)
  fl_ofs_link : int;  (** saved caller sp *)
  fl_ofs_ra : int;  (** saved return address *)
  fl_saved : (mreg * int) list;  (** callee-save save slots *)
  fl_locals : int;  (** base of the Local-slot area *)
  fl_stackdata : int;  (** base of the source-level stack data *)
  fl_size : int;  (** total frame size in bytes *)
}

type instruction =
  | Mgetstack of int * typ * mreg  (** load [sp + ofs] *)
  | Msetstack of mreg * int * typ
  | Mgetparam of int * typ * mreg  (** load [link + ofs] (caller's frame) *)
  | Mop of Op.operation * mreg list * mreg
  | Mload of chunk * Op.addressing * mreg list * mreg
  | Mstore of chunk * Op.addressing * mreg list * mreg
  | Mcall of signature * ros
  | Mtailcall of signature * ros
  | Mlabel of label
  | Mgoto of label
  | Mcond of Op.condition * mreg list * label
  | Mreturn

type coq_function = {
  fn_sig : signature;
  fn_code : instruction array;
  fn_layout : frame_layout;
}

type program = (coq_function, unit) Ast.program

let internal_sig f = f.fn_sig
let link p1 p2 = Ast.link ~internal_sig p1 p2

(* Each label's position: the index after it. The first occurrence of a
   duplicated label wins, as in a scan of the code from its start. *)
let label_table (code : instruction array) : (label, int) Hashtbl.t =
  let t = Hashtbl.create 16 in
  Array.iteri
    (fun i instr ->
      match instr with
      | Mlabel l -> if not (Hashtbl.mem t l) then Hashtbl.add t l (i + 1)
      | _ -> ())
    code;
  t

(** {1 Semantics}

    Every state keeps [init_ra], the return address of the query the
    run was entered with: the run is final when it returns there, and a
    final state has no step. *)

type state =
  | State of {
      f : coq_function;
      fb : block;  (** block of the function symbol, used to form return addresses *)
      sp : value;
      pc : int;
      rs : Regfile.t;
      m : Mem.t;
      init_ra : value;
    }
  | Callstate of {
      vf : value;
      sp : value;
      ra : value;
      rs : Regfile.t;
      m : Mem.t;
      init_ra : value;
    }
  | Returnstate of { ra : value; sp : value; rs : Regfile.t; m : Mem.t; init_ra : value }

type genv = (coq_function, unit) Genv.t

let ros_address (ge : genv) ros (rs : Regfile.t) =
  match ros with
  | Rreg r -> Some (Regfile.get r rs)
  | Rsymbol id -> (
    match Genv.find_symbol ge id with Some b -> Some (Vptr (b, 0)) | None -> None)

let chunk_of_typ = function
  | Tint -> Mint32
  | Tlong -> Mint64
  | Tfloat -> Mfloat64
  | Tsingle -> Mfloat32
  | Tany64 -> Many64

let load_stack m sp ofs ty =
  match sp with
  | Vptr (b, base) -> Mem.load (chunk_of_typ ty) m b (base + ofs)
  | _ -> None

let store_stack m sp ofs ty v =
  match sp with
  | Vptr (b, base) -> Mem.store (chunk_of_typ ty) m b (base + ofs) v
  | _ -> None

(* [step] is parameterized on the register-file write so the same code
   runs both execution cores: [Regfile.set] (copy-on-write, the naive
   reference) and [Regfile.update] (in-place, the default). Writes only
   happen on success paths, so a stuck step leaves an in-place register
   file untouched and the run loop's interaction probes see the pre-step
   state. [gv] is [ge]'s view for operations and [find_label] resolves
   taken branches through a function's label table, built on the first
   taken branch in it; both are built once per semantics. *)
let step (ge : genv) (gv : Op.genv_view)
    ~(find_label : coq_function -> label -> int option)
    ~(rset : mreg -> value -> Regfile.t -> Regfile.t) (s : state) :
    (Core.Events.trace * state) list =
  let ret s' = [ (Core.Events.e0, s') ] in
  match s with
  | State ({ f; fb; sp; pc; rs; m; init_ra } as st) -> (
    if pc < 0 || pc >= Array.length f.fn_code then []
    else
      match f.fn_code.(pc) with
      | Mlabel _ -> ret (State { st with pc = pc + 1 })
      | Mgetstack (ofs, ty, dst) -> (
        match load_stack m sp ofs ty with
        | Some v -> ret (State { st with pc = pc + 1; rs = rset dst v rs })
        | None -> [])
      | Msetstack (src, ofs, ty) -> (
        match store_stack m sp ofs ty (Regfile.get src rs) with
        | Some m' -> ret (State { st with pc = pc + 1; m = m' })
        | None -> [])
      | Mgetparam (ofs, ty, dst) -> (
        (* Read the back link, then the caller's outgoing area. *)
        match load_stack m sp f.fn_layout.fl_ofs_link Tlong with
        | Some parent_sp -> (
          match load_stack m parent_sp ofs ty with
          | Some v ->
            ret (State { st with pc = pc + 1; rs = rset dst v rs })
          | None -> [])
        | None -> [])
      | Mop (op, args, res) -> (
        let vl = List.map (fun r -> Regfile.get r rs) args in
        match Op.eval_operation gv sp op vl m with
        | Some v -> ret (State { st with pc = pc + 1; rs = rset res v rs })
        | None -> [])
      | Mload (chunk, addr, args, dst) -> (
        let vl = List.map (fun r -> Regfile.get r rs) args in
        match Op.eval_addressing gv sp addr vl with
        | Some va -> (
          match Mem.loadv chunk m va with
          | Some v -> ret (State { st with pc = pc + 1; rs = rset dst v rs })
          | None -> [])
        | None -> [])
      | Mstore (chunk, addr, args, src) -> (
        let vl = List.map (fun r -> Regfile.get r rs) args in
        match Op.eval_addressing gv sp addr vl with
        | Some va -> (
          match Mem.storev chunk m va (Regfile.get src rs) with
          | Some m' -> ret (State { st with pc = pc + 1; m = m' })
          | None -> [])
        | None -> [])
      | Mcall (_sg, ros) -> (
        match ros_address ge ros rs with
        | Some vf ->
          let ra = Vptr (fb, pc + 1) in
          ret (Callstate { vf; sp; ra; rs; m; init_ra })
        | None -> [])
      | Mtailcall (_sg, ros) -> (
        match ros_address ge ros rs with
        | None -> []
        | Some vf -> (
          match
            ( load_stack m sp f.fn_layout.fl_ofs_link Tlong,
              load_stack m sp f.fn_layout.fl_ofs_ra Tlong )
          with
          | Some parent_sp, Some ra -> (
            match sp with
            | Vptr (b, 0) -> (
              match Mem.free m b 0 f.fn_layout.fl_size with
              | Some m' -> ret (Callstate { vf; sp = parent_sp; ra; rs; m = m'; init_ra })
              | None -> [])
            | _ -> [])
          | _ -> []))
      | Mgoto lbl -> (
        match find_label f lbl with
        | Some pc' -> ret (State { st with pc = pc' })
        | None -> [])
      | Mcond (cond, args, lbl) -> (
        let vl = List.map (fun r -> Regfile.get r rs) args in
        match Op.eval_condition cond vl m with
        | Some true -> (
          match find_label f lbl with
          | Some pc' -> ret (State { st with pc = pc' })
          | None -> [])
        | Some false -> ret (State { st with pc = pc + 1 })
        | None -> [])
      | Mreturn -> (
        match
          ( load_stack m sp f.fn_layout.fl_ofs_link Tlong,
            load_stack m sp f.fn_layout.fl_ofs_ra Tlong )
        with
        | Some parent_sp, Some ra -> (
          match sp with
          | Vptr (b, 0) -> (
            match Mem.free m b 0 f.fn_layout.fl_size with
            | Some m' -> ret (Returnstate { ra; sp = parent_sp; rs; m = m'; init_ra })
            | None -> [])
          | _ -> [])
        | _ -> []))
  | Callstate { vf; sp; ra; rs; m; init_ra } -> (
    match (vf, Genv.find_funct ge vf) with
    | Vptr (fb, 0), Some (Ast.Internal f) ->
      let m1, b = Mem.alloc m 0 f.fn_layout.fl_size in
      let sp' = Vptr (b, 0) in
      (* Save the back link and return address in the new frame. *)
      (match store_stack m1 sp' f.fn_layout.fl_ofs_link Tlong sp with
      | Some m2 -> (
        match store_stack m2 sp' f.fn_layout.fl_ofs_ra Tlong ra with
        | Some m3 -> ret (State { f; fb; sp = sp'; pc = 0; rs; m = m3; init_ra })
        | None -> [])
      | None -> [])
    | _ -> [])
  (* A final state has no step, even when the return address is code of
     this unit (a function called from inside the unit that tail-calls
     into another unit is answered there): [⊕] offers the step before
     the pop, and would otherwise run the caller's code inside the
     callee's activation. *)
  | Returnstate { ra; init_ra; _ } when Values.equal ra init_ra -> []
  | Returnstate { ra; sp; rs; m; init_ra } -> (
    match ra with
    | Vptr (fb, pc) -> (
      match Genv.find_funct_ptr ge fb with
      | Some (Ast.Internal f) when pc > 0 && pc <= Array.length f.fn_code ->
        ret (State { f; fb; sp; pc; rs; m; init_ra })
      | _ -> [])
    | _ -> [])

(* [mutate] selects the execution core. The mutable core owns its
   register array exclusively between observation points and follows
   the copy-on-observe contract: every query/reply crossing the LTS
   boundary carries a [Regfile.copy] snapshot, never the live array
   (the incoming one may be shared — [Regfile.init] itself is — and
   the outgoing ones would otherwise alias state this run keeps
   writing). The pure core makes the copies too: they are cheap,
   boundary-only, and keep the two cores observably identical. *)
let semantics_gen ~(mutate : bool) ~(symbols : Ident.t list) (p : program) :
    (state, m_query, m_reply, m_query, m_reply) Core.Smallstep.lts =
  let ge = Genv.globalenv ~symbols p in
  let gv = { Op.find_symbol = (fun id -> Genv.find_symbol ge id) } in
  let labels = Linear.per_function (fun f -> label_table f.fn_code) in
  let find_label f lbl = Hashtbl.find_opt (labels f) lbl in
  let rset = if mutate then Regfile.update else Regfile.set in
  {
    Core.Smallstep.name = "Mach";
    dom =
      (fun q ->
        match Genv.find_funct ge q.mq_vf with
        | Some (Ast.Internal _) -> true
        | _ -> false);
    init =
      (fun q ->
        Callstate { vf = q.mq_vf; sp = q.mq_sp; ra = q.mq_ra;
                    rs = Regfile.copy q.mq_rs; m = q.mq_mem; init_ra = q.mq_ra });
    step = step ge gv ~find_label ~rset;
    at_external =
      (function
        | Callstate { vf; sp; ra; rs; m; _ } when Genv.calls_out ge vf ->
          Some { mq_vf = vf; mq_sp = sp; mq_ra = ra;
                 mq_rs = Regfile.copy rs; mq_mem = m }
        | _ -> None);
    after_external =
      (fun s r ->
        match s with
        | Callstate { sp; ra; init_ra; _ } ->
          Returnstate { ra; sp; rs = Regfile.copy r.mr_rs; m = r.mr_mem; init_ra }
        | _ -> invalid_arg "Mach.after_external: not at an external call");
    final =
      (function
        | Returnstate { ra; rs; m; init_ra; _ } when Values.equal ra init_ra ->
          Some { mr_rs = Regfile.copy rs; mr_mem = m }
        | _ -> None);
    handover = None;
  }

(** The Mach open semantics, on the in-place register file and a memory
    the run owns between interaction points ({!Iface.Li.own_m}). *)
let semantics ~(symbols : Ident.t list) (p : program) :
    (state, m_query, m_reply, m_query, m_reply) Core.Smallstep.lts =
  own_m (semantics_gen ~mutate:true ~symbols p)

(** The same semantics on the persistent (copy-on-write) register file
    and memory model — the reference the mutable-state lockstep suite
    runs against [semantics]. *)
let semantics_naive ~(symbols : Ident.t list) (p : program) :
    (state, m_query, m_reply, m_query, m_reply) Core.Smallstep.lts =
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
  | Mgetstack (ofs, ty, dst) ->
    Format.fprintf fmt "%a = stack[%d]:%a" pp_mreg dst ofs pp_typ ty
  | Msetstack (src, ofs, ty) ->
    Format.fprintf fmt "stack[%d]:%a = %a" ofs pp_typ ty pp_mreg src
  | Mgetparam (ofs, ty, dst) ->
    Format.fprintf fmt "%a = param[%d]:%a" pp_mreg dst ofs pp_typ ty
  | Mop (op, args, res) ->
    Format.fprintf fmt "%a = %a(%a)" pp_mreg res Op.pp_operation op regs args
  | Mload (chunk, addr, args, dst) ->
    Format.fprintf fmt "%a = load %a %a(%a)" pp_mreg dst pp_chunk chunk
      Op.pp_addressing addr regs args
  | Mstore (chunk, addr, args, src) ->
    Format.fprintf fmt "store %a %a(%a) := %a" pp_chunk chunk Op.pp_addressing
      addr regs args pp_mreg src
  | Mcall (_, ros) -> Format.fprintf fmt "call %a" pp_ros ros
  | Mtailcall (_, ros) -> Format.fprintf fmt "tailcall %a" pp_ros ros
  | Mlabel l -> Format.fprintf fmt "%d:" l
  | Mgoto l -> Format.fprintf fmt "goto %d" l
  | Mcond (cond, args, l) ->
    Format.fprintf fmt "if %a(%a) goto %d" Op.pp_condition cond regs args l
  | Mreturn -> Format.fprintf fmt "return"

let pp_function fmt (f : coq_function) =
  Format.fprintf fmt "@[<v>mach function(%a) frame %d@," pp_signature f.fn_sig
    f.fn_layout.fl_size;
  Array.iteri (fun i instr -> Format.fprintf fmt "  %3d: %a@," i pp_instruction instr) f.fn_code;
  Format.fprintf fmt "@]"
