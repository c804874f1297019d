(** RTL: register transfer language over a control-flow graph (CompCert's
    [RTL]).

    Functions are CFGs of instructions over an unbounded supply of
    pseudo-registers. This is the representation on which all scalar
    optimizations (constant propagation, CSE, dead code, inlining,
    tail-call recognition) operate. *)

open Support
open Memory
open Memory.Mtypes
open Memory.Values
open Memory.Memdata
open Iface
open Iface.Li

type reg = int

let pp_reg fmt r = Format.fprintf fmt "x%d" r

(** Maps keyed by pseudo-register: the naive core's register set. *)
module Regmap = Map.Make (Int)

type node = int

(** Node-indexed code, shared with LTL: the instruction at node [n]
    sits in slot [n] of an array, and a node without one reads as
    [None]. Nodes are dense counters, so a fetch is one bounds-checked
    array read. The array is trimmed (its last slot holds an
    instruction), so equal code has one representation.

    Iteration is in increasing node order. The linear scan numbers its
    positions in that order, and the chaos sites and every dump follow
    it. *)
module Code : sig
  type 'i t

  val empty : 'i t
  val get : 'i t -> node -> 'i option
  val mem : 'i t -> node -> bool
  val iter : (node -> 'i -> unit) -> 'i t -> unit
  val fold : (node -> 'i -> 'a -> 'a) -> 'i t -> 'a -> 'a
  val map : ('i -> 'j) -> 'i t -> 'j t
  val mapi : (node -> 'i -> 'j) -> 'i t -> 'j t

  (** [rewrite f c] is [mapi f c], but shares what [f] leaves alone:
      an instruction [f] returns physically unchanged keeps its slot,
      and where [f] changes nothing the result is [c] itself. *)
  val rewrite : (node -> 'i -> 'i) -> 'i t -> 'i t

  (** The number of nodes holding an instruction. *)
  val cardinal : 'i t -> int

  (** The largest node holding an instruction; 0 for empty code. *)
  val max_node : 'i t -> node

  (** One past {!max_node}; 0 for empty code. Every node holding an
      instruction is below it. *)
  val size : 'i t -> int

  (** A growable table that code is built in: RTLgen, Inlining, CSE,
      Renumber, the allocator's expansion chains and the chaos mutator
      write nodes in any order, then {!freeze} it. *)
  type 'i builder

  (** A builder holding [c]'s instructions, or none. *)
  val builder : ?of_code:'i t -> unit -> 'i builder

  (** [set b n i] puts [i] at node [n], replacing any instruction
      there. [n] must be non-negative. *)
  val set : 'i builder -> node -> 'i -> unit

  (** The code built so far; [b] stays usable. *)
  val freeze : 'i builder -> 'i t
end = struct
  type 'i t = 'i option array

  let empty = [||]
  let get c n = if n >= 0 && n < Array.length c then Array.unsafe_get c n else None
  let mem c n = match get c n with Some _ -> true | None -> false

  let iter f c =
    for n = 0 to Array.length c - 1 do
      match Array.unsafe_get c n with Some i -> f n i | None -> ()
    done

  let fold f c acc =
    let rec go n acc =
      if n >= Array.length c then acc
      else
        go (n + 1)
          (match Array.unsafe_get c n with Some i -> f n i acc | None -> acc)
    in
    go 0 acc

  let mapi f c =
    Array.mapi (fun n o -> match o with Some i -> Some (f n i) | None -> None) c

  let map f c = mapi (fun _ i -> f i) c

  let rewrite f c =
    (* [c] until the first change; a copy from there on. *)
    let rec scan n =
      if n >= Array.length c then c
      else
        match Array.unsafe_get c n with
        | Some i ->
          let j = f n i in
          if j == i then scan (n + 1)
          else begin
            let c' = Array.copy c in
            c'.(n) <- Some j;
            for n = n + 1 to Array.length c - 1 do
              match Array.unsafe_get c n with
              | Some i ->
                let j = f n i in
                if j != i then c'.(n) <- Some j
              | None -> ()
            done;
            c'
          end
        | None -> scan (n + 1)
    in
    scan 0

  let cardinal c = fold (fun _ _ k -> k + 1) c 0
  let size c = Array.length c
  let max_node c = max 0 (Array.length c - 1)

  type 'i builder = { mutable arr : 'i option array; mutable len : int }

  let builder ?(of_code = empty) () =
    { arr = Array.append of_code (Array.make 16 None); len = Array.length of_code }

  let set b n i =
    if n < 0 then invalid_arg "Rtl.Code.set: negative node";
    let cap = Array.length b.arr in
    if n >= cap then begin
      let arr = Array.make (max (n + 1) (2 * cap)) None in
      Array.blit b.arr 0 arr 0 cap;
      b.arr <- arr
    end;
    b.arr.(n) <- Some i;
    if n >= b.len then b.len <- n + 1

  let freeze b = Array.sub b.arr 0 b.len
end

(** Call targets: register-indirect or by symbol. *)
type ros = Rreg of reg | Rsymbol of Ident.t

type instruction =
  | Inop of node
  | Iop of Op.operation * reg list * reg * node
  | Iload of chunk * Op.addressing * reg list * reg * node
  | Istore of chunk * Op.addressing * reg list * reg * node
  | Icall of signature * ros * reg list * reg * node
  | Itailcall of signature * ros * reg list
  | Icond of Op.condition * reg list * node * node
  | Ireturn of reg option

type code = instruction Code.t

type coq_function = {
  fn_sig : signature;
  fn_params : reg list;
  fn_stacksize : int;
  fn_code : code;
  fn_entrypoint : node;
}

type program = (coq_function, unit) Ast.program

let internal_sig f = f.fn_sig
let link p1 p2 = Ast.link ~internal_sig p1 p2

let successors_instr = function
  | Inop n | Iop (_, _, _, n) | Iload (_, _, _, _, n) | Istore (_, _, _, _, n)
  | Icall (_, _, _, _, n) ->
    [ n ]
  | Icond (_, _, n1, n2) -> [ n1; n2 ]
  | Itailcall _ | Ireturn _ -> []

(** [successors_instr i], passed to [f] in order; no list is built. *)
let iter_successors f = function
  | Inop n | Iop (_, _, _, n) | Iload (_, _, _, _, n) | Istore (_, _, _, _, n)
  | Icall (_, _, _, _, n) ->
    f n
  | Icond (_, _, n1, n2) ->
    f n1;
    f n2
  | Itailcall _ | Ireturn _ -> ()

(** The flow graph of [c], over its nodes [0 .. Code.size c - 1]: what
    the dataflow analyses solve on. *)
let graph (c : code) : Fixpoint.graph =
  let size = Code.size c in
  let first = Array.make (size + 1) 0 in
  for n = 0 to size - 1 do
    first.(n + 1) <-
      (first.(n)
      +
      match Code.get c n with
      | Some (Inop _ | Iop _ | Iload _ | Istore _ | Icall _) -> 1
      | Some (Icond _) -> 2
      | Some (Itailcall _ | Ireturn _) | None -> 0)
  done;
  let succ = Array.make first.(size) 0 in
  for n = 0 to size - 1 do
    match Code.get c n with
    | Some
        ( Inop s | Iop (_, _, _, s) | Iload (_, _, _, _, s) | Istore (_, _, _, _, s)
        | Icall (_, _, _, _, s) ) ->
      succ.(first.(n)) <- s
    | Some (Icond (_, _, s1, s2)) ->
      succ.(first.(n)) <- s1;
      succ.(first.(n) + 1) <- s2
    | Some (Itailcall _ | Ireturn _) | None -> ()
  done;
  { Fixpoint.first; succ }

let instr_uses = function
  | Inop _ -> []
  | Iop (_, args, _, _) -> args
  | Iload (_, _, args, _, _) -> args
  | Istore (_, _, args, src, _) -> args @ [ src ]
  | Icall (_, ros, args, _, _) -> (
    match ros with Rreg r -> r :: args | Rsymbol _ -> args)
  | Itailcall (_, ros, args) -> (
    match ros with Rreg r -> r :: args | Rsymbol _ -> args)
  | Icond (_, args, _, _) -> args
  | Ireturn (Some r) -> [ r ]
  | Ireturn None -> []

let instr_defs = function
  | Iop (_, _, res, _) | Iload (_, _, _, res, _) | Icall (_, _, _, res, _) ->
    [ res ]
  | _ -> []

(** Every register [i] reads or writes, passed to [f]; no list is
    built. *)
let iter_regs f = function
  | Inop _ | Ireturn None -> ()
  | Iop (_, args, r, _) | Iload (_, _, args, r, _) | Istore (_, _, args, r, _) ->
    List.iter f args;
    f r
  | Icall (_, ros, args, res, _) ->
    (match ros with Rreg r -> f r | Rsymbol _ -> ());
    List.iter f args;
    f res
  | Itailcall (_, ros, args) ->
    (match ros with Rreg r -> f r | Rsymbol _ -> ());
    List.iter f args
  | Icond (_, args, _, _) -> List.iter f args
  | Ireturn (Some r) -> f r

(** The largest register [c] mentions; 0 when it mentions none. *)
let max_reg (c : code) =
  let m = ref 0 in
  let note r = if r > !m then m := r in
  Code.iter (fun _ i -> iter_regs note i) c;
  !m

let max_reg_function (f : coq_function) =
  List.fold_left max (max_reg f.fn_code) f.fn_params

let max_node (f : coq_function) = Code.max_node f.fn_code

(** {1 Semantics}

    The semantics is parameterized over the register-set representation
    ({!regops}), so the same transition rules run two execution cores:

    - the {e persistent} core over [value Regmap.t] (the naive
      reference), and
    - the {e mutable} core over a flat value array with grow-on-write
      ({!Mregset}), where a register write is an in-place store.

    Mutation is safe because every activation owns its register set
    exclusively: a call hands the callee a fresh set built from the
    argument {e values} ([rinit]), the caller's set sits untouched in
    its stack frame until the return writes the single result register,
    and the C-level interface carries argument/result values — never a
    register set — so no live array can leak across the LTS boundary. *)

type regset = value Regmap.t

let rget r (rs : regset) = Option.value (Regmap.find_opt r rs) ~default:Vundef
let rset r v (rs : regset) = Regmap.add r v rs

let init_regs args params =
  let rec go rs params args =
    match (params, args) with
    | p :: params', a :: args' -> go (rset p a rs) params' args'
    | _, _ -> rs
  in
  go Regmap.empty params args

(** Register-set operations, instantiating the transition rules at a
    concrete representation. *)
type 'rs regops = {
  oget : reg -> 'rs -> value;
  oset : reg -> value -> 'rs -> 'rs;
  oinit : value list -> reg list -> 'rs;  (** fresh set for a callee *)
}

let pure_ops : regset regops = { oget = rget; oset = rset; oinit = init_regs }

(** Flat mutable register set: a dense value array indexed by
    pseudo-register, doubling on out-of-range writes (RTL registers are
    dense but unbounded); reads beyond the array are [Vundef]. *)
module Mregset = struct
  type t = { mutable arr : value array }

  let get r (rs : t) = if r < Array.length rs.arr then rs.arr.(r) else Vundef

  let set r v (rs : t) =
    let n = Array.length rs.arr in
    if r >= n then begin
      let arr' = Array.make (max (r + 1) (2 * n)) Vundef in
      Array.blit rs.arr 0 arr' 0 n;
      rs.arr <- arr'
    end;
    rs.arr.(r) <- v;
    rs

  let init args params =
    let rs = { arr = Array.make (max 32 (List.fold_left max 0 params + 1)) Vundef } in
    let rec go params args =
      match (params, args) with
      | p :: params', a :: args' ->
        ignore (set p a rs);
        go params' args'
      | _, _ -> rs
    in
    go params args
end

let mut_ops : Mregset.t regops =
  { oget = Mregset.get; oset = Mregset.set; oinit = Mregset.init }

type 'rs stackframe = {
  sf_res : reg;
  sf_f : coq_function;
  sf_sp : value;
  sf_pc : node;
  sf_rs : 'rs;
}

type 'rs state =
  | State of 'rs stackframe list * coq_function * value * node * 'rs * Mem.t
  | Callstate of 'rs stackframe list * value * signature * value list * Mem.t
  | Returnstate of 'rs stackframe list * value * Mem.t

type genv = (coq_function, unit) Genv.t

let ros_address (ge : genv) ops ros rs =
  match ros with
  | Rreg r -> Some (ops.oget r rs)
  | Rsymbol id -> (
    match Genv.find_symbol ge id with Some b -> Some (Vptr (b, 0)) | None -> None)

let free_stack m sp sz =
  match sp with
  | Vptr (b, 0) -> Mem.free m b 0 sz
  | _ -> if sz = 0 then Some m else None

(* Writes go through [ops.oset] only on success paths: a stuck step has
   not touched an in-place register set, so the interaction probes that
   follow see the pre-step state. [gv] is [ge]'s view for operations,
   built once per semantics. *)
let step (ge : genv) (gv : Op.genv_view) (ops : 'rs regops) (s : 'rs state) :
    (Core.Events.trace * 'rs state) list =
  let ret s' = [ (Core.Events.e0, s') ] in
  let rget_list rl rs = List.map (fun r -> ops.oget r rs) rl in
  match s with
  | State (stack, f, sp, pc, rs, m) -> (
    match Code.get f.fn_code pc with
    | None -> []
    | Some instr -> (
      match instr with
      | Inop n -> ret (State (stack, f, sp, n, rs, m))
      | Iop (op, args, res, n) -> (
        match Op.eval_operation gv sp op (rget_list args rs) m with
        | Some v -> ret (State (stack, f, sp, n, ops.oset res v rs, m))
        | None -> [])
      | Iload (chunk, addr, args, dst, n) -> (
        match Op.eval_addressing gv sp addr (rget_list args rs) with
        | Some va -> (
          match Mem.loadv chunk m va with
          | Some v -> ret (State (stack, f, sp, n, ops.oset dst v rs, m))
          | None -> [])
        | None -> [])
      | Istore (chunk, addr, args, src, n) -> (
        match Op.eval_addressing gv sp addr (rget_list args rs) with
        | Some va -> (
          match Mem.storev chunk m va (ops.oget src rs) with
          | Some m' -> ret (State (stack, f, sp, n, rs, m'))
          | None -> [])
        | None -> [])
      | Icall (sg, ros, args, res, n) -> (
        match ros_address ge ops ros rs with
        | Some vf ->
          let frame = { sf_res = res; sf_f = f; sf_sp = sp; sf_pc = n; sf_rs = rs } in
          ret (Callstate (frame :: stack, vf, sg, rget_list args rs, m))
        | None -> [])
      | Itailcall (sg, ros, args) -> (
        match ros_address ge ops ros rs with
        | Some vf -> (
          match free_stack m sp f.fn_stacksize with
          | Some m' -> ret (Callstate (stack, vf, sg, rget_list args rs, m'))
          | None -> [])
        | None -> [])
      | Icond (cond, args, n1, n2) -> (
        match Op.eval_condition cond (rget_list args rs) m with
        | Some b -> ret (State (stack, f, sp, (if b then n1 else n2), rs, m))
        | None -> [])
      | Ireturn optr -> (
        match free_stack m sp f.fn_stacksize with
        | Some m' ->
          let v = match optr with Some r -> ops.oget r rs | None -> Vundef in
          ret (Returnstate (stack, v, m'))
        | None -> [])))
  | Callstate (stack, vf, sg, args, m) -> (
    match Genv.find_funct ge vf with
    | Some (Ast.Internal f) ->
      if not (signature_equal sg f.fn_sig) then []
      else
        let m1, b = Mem.alloc m 0 f.fn_stacksize in
        ret
          (State
             (stack, f, Vptr (b, 0), f.fn_entrypoint, ops.oinit args f.fn_params, m1))
    | Some (Ast.External _) | None -> [])
  | Returnstate (stack, v, m) -> (
    match stack with
    | frame :: stack' ->
      ret
        (State
           ( stack',
             frame.sf_f,
             frame.sf_sp,
             frame.sf_pc,
             ops.oset frame.sf_res v frame.sf_rs,
             m ))
    | [] -> [])

let semantics_gen (ops : 'rs regops) ~(symbols : Ident.t list) (p : program) :
    ('rs state, c_query, c_reply, c_query, c_reply) Core.Smallstep.lts =
  let ge = Genv.globalenv ~symbols p in
  let gv = { Op.find_symbol = (fun id -> Genv.find_symbol ge id) } in
  {
    Core.Smallstep.name = "RTL";
    dom =
      (fun q ->
        match Genv.find_funct ge q.cq_vf with
        | Some (Ast.Internal f) -> signature_equal q.cq_sg f.fn_sig
        | _ -> false);
    init = (fun q -> Callstate ([], q.cq_vf, q.cq_sg, q.cq_args, q.cq_mem));
    step = (fun s -> step ge gv ops s);
    at_external =
      (fun s ->
        match s with
        | Callstate (_, vf, sg, args, m) when Genv.calls_out ge vf ->
          Some { cq_vf = vf; cq_sg = sg; cq_args = args; cq_mem = m }
        | _ -> None);
    after_external =
      (fun s r ->
        match s with
        | Callstate (stack, _, _, _, _) -> Returnstate (stack, r.cr_res, r.cr_mem)
        | _ -> invalid_arg "RTL.after_external: not at an external call");
    final =
      (fun s ->
        match s with
        | Returnstate ([], v, m) -> Some { cr_res = v; cr_mem = m }
        | _ -> None);
    handover = None;
  }

(** The RTL open semantics, on the flat mutable register set. *)
let semantics ~(symbols : Ident.t list) (p : program) :
    (Mregset.t state, c_query, c_reply, c_query, c_reply) Core.Smallstep.lts =
  semantics_gen mut_ops ~symbols p

(** The same semantics on the persistent register map — the reference the
    mutable-state lockstep suite runs against [semantics]. *)
let semantics_naive ~(symbols : Ident.t list) (p : program) :
    (regset state, c_query, c_reply, c_query, c_reply) Core.Smallstep.lts =
  semantics_gen pure_ops ~symbols p

(** {1 Printing} *)

let pp_ros fmt = function
  | Rreg r -> pp_reg fmt r
  | Rsymbol id -> Ident.pp fmt id

let pp_instruction fmt (i : instruction) =
  let regs fmt rl =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
      pp_reg fmt rl
  in
  match i with
  | Inop n -> Format.fprintf fmt "nop -> %d" n
  | Iop (op, args, res, n) ->
    Format.fprintf fmt "%a = %a(%a) -> %d" pp_reg res Op.pp_operation op regs args n
  | Iload (chunk, addr, args, dst, n) ->
    Format.fprintf fmt "%a = load %a %a(%a) -> %d" pp_reg dst pp_chunk chunk
      Op.pp_addressing addr regs args n
  | Istore (chunk, addr, args, src, n) ->
    Format.fprintf fmt "store %a %a(%a) := %a -> %d" pp_chunk chunk
      Op.pp_addressing addr regs args pp_reg src n
  | Icall (_, ros, args, res, n) ->
    Format.fprintf fmt "%a = call %a(%a) -> %d" pp_reg res pp_ros ros regs args n
  | Itailcall (_, ros, args) ->
    Format.fprintf fmt "tailcall %a(%a)" pp_ros ros regs args
  | Icond (cond, args, n1, n2) ->
    Format.fprintf fmt "if %a(%a) -> %d else %d" Op.pp_condition cond regs args n1 n2
  | Ireturn None -> Format.fprintf fmt "return"
  | Ireturn (Some r) -> Format.fprintf fmt "return %a" pp_reg r

let pp_function fmt (f : coq_function) =
  Format.fprintf fmt "@[<v>function(%a) stack %d entry %d@," pp_signature f.fn_sig
    f.fn_stacksize f.fn_entrypoint;
  let nodes = Code.fold (fun n i acc -> (n, i) :: acc) f.fn_code [] in
  List.iter (fun (n, i) -> Format.fprintf fmt "  %4d: %a@," n pp_instruction i) nodes;
  Format.fprintf fmt "@]"
