(** Semantic mutators over the pipeline IRs.

    Each mutator simulates one family of compiler bugs by corrupting a
    single instruction of one pass's output; the campaign runner
    ({!Campaign}) then recompiles everything downstream of the injection
    point and asks the verification harness — the differential runner,
    the co-execution checker, the translation validator — whether the
    corruption is {e detected}. A high kill rate is the executable
    analogue of the simulation proofs actually constraining the
    compiler: it quantifies how much deviation the checkers catch.

    Mutation classes (the taxonomy of the kill-rate matrix):

    - {!Swap_operands}: reverse the operands of a non-commutative
      binary operation (RTL);
    - {!Perturb_const}: nudge an immediate or literal constant by one
      (RTL);
    - {!Drop_instr}: replace an effectful instruction by a no-op (RTL);
    - {!Dup_instr}: execute an instruction twice (RTL);
    - {!Retarget_branch}: swap the two targets of a conditional branch
      (RTL);
    - {!Corrupt_conv_slot}: corrupt a calling-convention slot (Linear) —
      a register write realizing an argument/result slot is redirected
      to a scratch register, or a stack-slot access has its offset
      shifted by one word. *)

open Support
module R = Middle.Rtl
module L = Backend.Linear
module Op = Middle.Op
module Mach = Target.Machregs

type mclass =
  | Swap_operands
  | Perturb_const
  | Drop_instr
  | Dup_instr
  | Retarget_branch
  | Corrupt_conv_slot

let all_classes =
  [
    Swap_operands;
    Perturb_const;
    Drop_instr;
    Dup_instr;
    Retarget_branch;
    Corrupt_conv_slot;
  ]

(** The classes a sound pipeline must never let escape undetected:
    dropping an instruction, retargeting a branch, and corrupting a
    convention slot change observable behavior on any live code path. *)
let must_kill_classes = [ Drop_instr; Retarget_branch; Corrupt_conv_slot ]

let class_name = function
  | Swap_operands -> "swap-operands"
  | Perturb_const -> "perturb-const"
  | Drop_instr -> "drop-instr"
  | Dup_instr -> "dup-instr"
  | Retarget_branch -> "retarget-branch"
  | Corrupt_conv_slot -> "corrupt-conv-slot"

(** A mutation site: the function and the instruction within it.
    [site_loc] is a CFG node for RTL classes and an instruction index
    for Linear ones; [site_note] describes the planned corruption. *)
type site = { site_fun : string; site_loc : int; site_note : string }

let pp_site fmt s =
  Format.fprintf fmt "%s@%d (%s)" s.site_fun s.site_loc s.site_note

(** {1 RTL mutators} *)

(* Operand order matters for these. *)
let non_commutative = function
  | Op.Osub | Op.Odiv | Op.Odivu | Op.Omod | Op.Omodu | Op.Oshl | Op.Oshr
  | Op.Oshru | Op.Osubl | Op.Odivl | Op.Odivlu | Op.Omodl | Op.Omodlu
  | Op.Oshll | Op.Oshrl | Op.Oshrlu | Op.Osubf | Op.Odivf | Op.Osubfs
  | Op.Odivfs ->
    true
  | _ -> false

let perturb_op = function
  | Op.Ointconst n -> Some (Op.Ointconst (Int32.add n 1l))
  | Op.Olongconst n -> Some (Op.Olongconst (Int64.add n 1L))
  | Op.Oaddimm n -> Some (Op.Oaddimm (Int32.add n 1l))
  | Op.Omulimm n -> Some (Op.Omulimm (Int32.add n 1l))
  | Op.Oandimm n -> Some (Op.Oandimm (Int32.add n 1l))
  | Op.Oorimm n -> Some (Op.Oorimm (Int32.add n 1l))
  | Op.Oxorimm n -> Some (Op.Oxorimm (Int32.add n 1l))
  | Op.Oaddlimm n -> Some (Op.Oaddlimm (Int64.add n 1L))
  | _ -> None

let perturb_cond = function
  | Op.Ccompimm (c, n) -> Some (Op.Ccompimm (c, Int32.add n 1l))
  | Op.Ccompuimm (c, n) -> Some (Op.Ccompuimm (c, Int32.add n 1l))
  | _ -> None

(* Enumerate the sites of an RTL mutation class in one function. *)
let rtl_fun_sites (cls : mclass) (name : string) (f : R.coq_function) :
    site list =
  let site loc note = { site_fun = name; site_loc = loc; site_note = note } in
  R.Code.fold
    (fun pc instr acc ->
      let here =
        match (cls, instr) with
        | Swap_operands, R.Iop (op, [ a; b ], _, _)
          when non_commutative op && a <> b ->
          [ site pc "swap the two operands" ]
        | Perturb_const, R.Iop (op, _, _, _) when perturb_op op <> None ->
          [ site pc "constant + 1" ]
        | Perturb_const, R.Icond (c, _, _, _) when perturb_cond c <> None ->
          [ site pc "branch immediate + 1" ]
        (* Only effectful instructions: dropping a pure op may be
           semantically neutral (dead code), which would poison the
           must-kill guarantee for this class. *)
        | Drop_instr, (R.Istore _ | R.Icall _) ->
          [ site pc "replace by nop" ]
        | Dup_instr, (R.Iop _ | R.Iload _ | R.Istore _ | R.Icall _) ->
          [ site pc "execute twice" ]
        | Retarget_branch, R.Icond (_, _, n1, n2) when n1 <> n2 ->
          [ site pc "swap branch targets" ]
        | _ -> []
      in
      here @ acc)
    f.R.fn_code []

let map_program_fun (p : ('f, 'v) Iface.Ast.program) (name : string)
    (tr : 'f -> 'f option) : ('f, 'v) Iface.Ast.program option =
  let changed = ref false in
  let defs =
    List.map
      (fun (id, d) ->
        match d with
        | Iface.Ast.Gfun (Iface.Ast.Internal f) when Ident.name id = name -> (
          match tr f with
          | Some f' ->
            changed := true;
            (id, Iface.Ast.Gfun (Iface.Ast.Internal f'))
          | None -> (id, d))
        | _ -> (id, d))
      p.Iface.Ast.prog_defs
  in
  if !changed then Some { p with Iface.Ast.prog_defs = defs } else None

(* Functions reachable from [main] through direct calls. A mutation in
   an unreachable function (e.g. one fully inlined at its call sites but
   still emitted) is trivially equivalent, so such functions host no
   sites. *)
let reachable_funs (callees : 'f -> string list)
    (p : ('f, 'v) Iface.Ast.program) : string list =
  let bodies =
    List.filter_map
      (fun (id, d) ->
        match d with
        | Iface.Ast.Gfun (Iface.Ast.Internal f) -> Some (Ident.name id, f)
        | _ -> None)
      p.Iface.Ast.prog_defs
  in
  let rec go seen = function
    | [] -> seen
    | name :: rest when List.mem name seen -> go seen rest
    | name :: rest -> (
      match List.assoc_opt name bodies with
      | None -> go seen rest
      | Some f -> go (name :: seen) (callees f @ rest))
  in
  go [] [ "main" ]

let rtl_callees (f : R.coq_function) : string list =
  R.Code.fold
    (fun _ instr acc ->
      match instr with
      | R.Icall (_, R.Rsymbol id, _, _, _) | R.Itailcall (_, R.Rsymbol id, _) ->
        Ident.name id :: acc
      | _ -> acc)
    f.R.fn_code []

(** All sites of [cls] in an RTL program (empty for the Linear-level
    class), restricted to functions reachable from [main]. *)
let rtl_sites (cls : mclass) (p : R.program) : site list =
  match cls with
  | Corrupt_conv_slot -> []
  | _ ->
    let live = reachable_funs rtl_callees p in
    List.concat_map
      (fun (id, d) ->
        match d with
        | Iface.Ast.Gfun (Iface.Ast.Internal f)
          when List.mem (Ident.name id) live ->
          rtl_fun_sites cls (Ident.name id) f
        | _ -> [])
      p.Iface.Ast.prog_defs

(* The single-successor instructions can be split in two for
   duplication: [pc: i -> fresh; fresh: i -> succ]. *)
let with_successor instr n =
  match instr with
  | R.Iop (op, args, res, _) -> Some (R.Iop (op, args, res, n))
  | R.Iload (ch, a, args, dst, _) -> Some (R.Iload (ch, a, args, dst, n))
  | R.Istore (ch, a, args, src, _) -> Some (R.Istore (ch, a, args, src, n))
  | R.Icall (sg, ros, args, res, _) -> Some (R.Icall (sg, ros, args, res, n))
  | _ -> None

(** Apply an RTL mutation at a site; [None] if the site no longer
    matches (wrong class, missing node). *)
let apply_rtl (cls : mclass) (s : site) (p : R.program) : R.program option =
  map_program_fun p s.site_fun (fun f ->
      match R.Code.get f.R.fn_code s.site_loc with
      | None -> None
      | Some instr -> (
        let with_code edits =
          let b = R.Code.builder ~of_code:f.R.fn_code () in
          List.iter (fun (n, i) -> R.Code.set b n i) edits;
          { f with R.fn_code = R.Code.freeze b }
        in
        let set i = with_code [ (s.site_loc, i) ] in
        match (cls, instr) with
        | Swap_operands, R.Iop (op, [ a; b ], res, n) when non_commutative op ->
          Some (set (R.Iop (op, [ b; a ], res, n)))
        | Perturb_const, R.Iop (op, args, res, n) -> (
          match perturb_op op with
          | Some op' -> Some (set (R.Iop (op', args, res, n)))
          | None -> None)
        | Perturb_const, R.Icond (c, args, n1, n2) -> (
          match perturb_cond c with
          | Some c' -> Some (set (R.Icond (c', args, n1, n2)))
          | None -> None)
        | Drop_instr, (R.Istore _ | R.Icall _) -> (
          match R.successors_instr instr with
          | [ n ] -> Some (set (R.Inop n))
          | _ -> None)
        | Dup_instr, (R.Iop _ | R.Iload _ | R.Istore _ | R.Icall _) -> (
          let fresh = R.max_node f + 1 in
          match (with_successor instr fresh, R.successors_instr instr) with
          | Some first, [ n ] ->
            let second = Option.get (with_successor instr n) in
            Some (with_code [ (fresh, second); (s.site_loc, first) ])
          | _ -> None)
        | Retarget_branch, R.Icond (c, args, n1, n2) when n1 <> n2 ->
          Some (set (R.Icond (c, args, n2, n1)))
        | _ -> None))

(** {1 Linear mutators: convention-slot corruption}

    Writes to the registers that realize calling-convention slots — the
    argument registers before an [Lcall], the result register before an
    [Lreturn] — and accesses to [Incoming]/[Outgoing] stack slots are
    the executable form of the convention's "slots". Corrupting one
    (redirecting the write to a scratch register, or shifting the slot
    offset by a word) is exactly the class of bug the structural
    conventions [CL]/[LM]/[MA] exist to rule out. *)

let conv_regs =
  Target.Conventions.int_param_regs @ [ Target.Conventions.loc_result
                                          Memory.Mtypes.signature_main ]

let scratch_reg = Mach.R10

(* A self-move [r = move(r)] writes nothing new; redirecting its
   destination is semantically neutral, so it is not a site. *)
let self_move op args dest =
  match (op, args) with Middle.Op.Omove, [ src ] -> src = dest | _ -> false

(* A write to [reg] at instruction [i] realizes a convention slot only
   if the written value actually reaches the convention point: a call
   that takes [reg] as a parameter register, or a return with [reg] the
   result register — with no intervening redefinition. Otherwise the
   write merely happens to target a register that doubles as a parameter
   register (a call result retrieved into CX, say), and corrupting it
   can be semantically invisible: the callee may have left the very same
   value there. Equivalent mutants like that would defeat the must-kill
   gate. The scan is intraprocedural and stops conservatively at labels
   and branches; convention writes are emitted immediately before their
   call/return, so the straight-line suffix always contains them. *)
let reaches_convention_point (sg : Memory.Mtypes.signature)
    (code : L.instruction array) (i : int) (reg : Mach.mreg) : bool =
  let n = Array.length code in
  let defines = function
    | L.Lop (_, _, d) | L.Lload (_, _, _, d) | L.Lgetstack (_, _, _, d) ->
      d = reg
    | _ -> false
  in
  let rec go j =
    if j >= n then false
    else
      match code.(j) with
      | L.Lcall _ | L.Ltailcall _ ->
        List.mem reg Target.Conventions.int_param_regs
      | L.Lreturn -> reg = Target.Conventions.loc_result sg
      | L.Llabel _ | L.Lgoto _ | L.Lcond _ -> false
      | instr -> if defines instr then false else go (j + 1)
  in
  go (i + 1)

let linear_fun_sites (name : string) (f : L.coq_function) : site list =
  let site loc note = { site_fun = name; site_loc = loc; site_note = note } in
  let code = Array.of_list f.L.fn_code in
  List.concat
    (List.mapi
       (fun i instr ->
         match instr with
         | L.Lop (op, args, dest)
           when List.mem dest conv_regs && dest <> scratch_reg
                && not (self_move op args dest)
                && reaches_convention_point f.L.fn_sig code i dest ->
           [ site i "redirect convention-register write to scratch" ]
         | L.Lgetstack (_, _, _, _) -> [ site i "shift stack slot by one word" ]
         | L.Lsetstack (_, _, _, _) -> [ site i "shift stack slot by one word" ]
         | _ -> [])
       f.L.fn_code)

let linear_callees (f : L.coq_function) : string list =
  List.filter_map
    (function
      | L.Lcall (_, L.Rsymbol id) | L.Ltailcall (_, L.Rsymbol id) ->
        Some (Ident.name id)
      | _ -> None)
    f.L.fn_code

let linear_sites (cls : mclass) (p : L.program) : site list =
  match cls with
  | Corrupt_conv_slot ->
    let live = reachable_funs linear_callees p in
    List.concat_map
      (fun (id, d) ->
        match d with
        | Iface.Ast.Gfun (Iface.Ast.Internal f)
          when List.mem (Ident.name id) live ->
          linear_fun_sites (Ident.name id) f
        | _ -> [])
      p.Iface.Ast.prog_defs
  | _ -> []

let apply_linear (cls : mclass) (s : site) (p : L.program) : L.program option =
  match cls with
  | Corrupt_conv_slot ->
    map_program_fun p s.site_fun (fun f ->
        let changed = ref false in
        let code =
          List.mapi
            (fun i instr ->
              if i <> s.site_loc then instr
              else
                match instr with
                | L.Lop (op, args, dest)
                  when List.mem dest conv_regs && dest <> scratch_reg
                       && not (self_move op args dest) ->
                  changed := true;
                  L.Lop (op, args, scratch_reg)
                | L.Lgetstack (sl, ofs, ty, dst) ->
                  changed := true;
                  L.Lgetstack (sl, ofs + 1, ty, dst)
                | L.Lsetstack (src, sl, ofs, ty) ->
                  changed := true;
                  L.Lsetstack (src, sl, ofs + 1, ty)
                | other -> other)
            f.L.fn_code
        in
        if !changed then Some { f with L.fn_code = code } else None)
  | _ -> None

(** Which IR a class mutates. *)
let injection_point = function
  | Corrupt_conv_slot -> `Linear
  | _ -> `Rtl
