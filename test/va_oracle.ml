(** Reference value analysis for differential testing: the map-based
    analysis that [Middle.Valueanalysis] replaced, with the worklist it
    ran on and the constant propagation it fed. Environments are
    [AMap]s merged at every join; the production analysis must compute
    the same fact at every node, and [Passes.Constprop] the same code
    as {!constprop}. *)

open Memory.Values
module Rtl = Middle.Rtl
module Op = Middle.Op

type aval =
  | Vbot  (** unreachable / no value *)
  | Const of value  (** known constant (never a pointer) *)
  | Vtop

(* Constants compare by {!Memory.Values.equal}, floats by their bits:
   [0.0] and [-0.0] are different constants, and a NaN is its own. *)
let aval_equal a b =
  match (a, b) with
  | Vbot, Vbot | Vtop, Vtop -> true
  | Const v1, Const v2 -> equal v1 v2
  | _ -> false

let aval_lub a b =
  match (a, b) with
  | Vbot, x | x, Vbot -> x
  | Const _, Const _ -> if aval_equal a b then a else Vtop
  | _ -> Vtop

module AMap = Map.Make (Int)

(* Abstract register environments. [None] encodes unreachable (⊥).
   Canonical form: a register absent from the map is [Vtop], and [Vtop]
   is never stored — environments only hold the registers with a known
   constant, which keeps them small (and [equal]/[lub] cheap) even in
   functions with many registers. *)
type aenv = aval AMap.t option

let aenv_get r (ae : aenv) =
  match ae with
  | None -> Vbot
  | Some m -> Option.value (AMap.find_opt r m) ~default:Vtop

(* Physical-equality preserving: writing a value a register already has
   (or [Vtop] to an absent register) returns [ae] itself, so a stable
   transfer application allocates nothing and the fixpoint solver's
   physical-equality fast path fires instead of a structural compare. *)
let aenv_set r v (ae : aenv) =
  match ae with
  | None -> None
  | Some m -> (
    match (v, AMap.find_opt r m) with
    | Vtop, None -> ae
    | Vtop, Some _ -> Some (AMap.remove r m)
    | _, Some v0 when aval_equal v0 v -> ae
    | _, _ -> Some (AMap.add r v m))

module L = struct
  type t = aenv

  let bot : t = None

  let equal a b =
    match (a, b) with
    | None, None -> true
    | Some m1, Some m2 -> m1 == m2 || AMap.equal aval_equal m1 m2
    | _ -> false

  let lub a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some m1, Some m2 ->
      if m1 == m2 then a
      else
        (* Keys present in only one side lub with the implicit [Vtop],
           so the canonical result keeps only keys agreeing on both
           sides (modulo [aval_lub]). *)
        Some
          (AMap.merge
             (fun _ v1 v2 ->
               match (v1, v2) with
               | Some v1, Some v2 -> (
                 match aval_lub v1 v2 with Vtop -> None | v -> Some v)
               | _ -> None)
             m1 m2)
end

(* The worklist over nodes named by integers, as the analyses solved
   before their graphs were dense: every node seeded in increasing
   order after the entries, and each dequeue asking for a fresh
   successor list. *)
let solve ~(successors : int -> int list) ~(transfer : int -> L.t -> L.t)
    ~(entries : (int * L.t) list) (nodes : int list) : int -> L.t =
  let size =
    List.fold_left
      (fun acc n -> List.fold_left max (max acc n) (successors n))
      (List.fold_left (fun acc (n, _) -> max acc n) 0 entries)
      nodes
    + 1
  in
  let value = Array.make size L.bot in
  let queued = Array.make size false in
  let queue = Queue.create () in
  let enqueue n =
    if not queued.(n) then begin
      queued.(n) <- true;
      Queue.add n queue
    end
  in
  let augment n v =
    let old = value.(n) in
    let merged = L.lub old v in
    if merged != old && not (L.equal old merged) then begin
      value.(n) <- merged;
      enqueue n
    end
  in
  List.iter (fun (n, v) -> augment n v) entries;
  List.iter enqueue nodes;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    queued.(n) <- false;
    let out = transfer n value.(n) in
    List.iter (fun m -> augment m out) (successors n)
  done;
  fun n -> if n >= 0 && n < size then value.(n) else L.bot

(* Abstract evaluation of an operation over known constants: delegate to
   the concrete evaluator on constant arguments (no pointers, no sp, no
   symbols, no memory dependence). *)
let no_symbols = { Op.find_symbol = (fun _ -> None) }

let pure_op = function
  | Op.Oaddrsymbol _ | Op.Oaddrstack _ | Op.Olea _ | Op.Ocmp (Op.Ccomplu _)
  | Op.Ocmp (Op.Ccompluimm _) | Op.Omove ->
    false
  | _ -> true

let eval_const (op : Op.operation) (vl : value list) : aval =
  match Op.eval_operation no_symbols Vundef op vl Memory.Mem.empty with
  | Some ((Vint _ | Vlong _ | Vfloat _ | Vsingle _) as v) -> Const v
  | _ -> Vtop

let abstract_op (op : Op.operation) (args : aval list) : aval =
  if not (pure_op op) then Vtop
  else
    let concrete =
      List.fold_right
        (fun a acc ->
          match (a, acc) with
          | Const v, Some vs -> Some (v :: vs)
          | _ -> None)
        args (Some [])
    in
    match concrete with None -> Vtop | Some vl -> eval_const op vl

(* [abstract_op] fused with the environment lookups: builds the concrete
   argument list only when every argument is a known constant, so the
   common all-[Vtop] transfer application allocates nothing. *)
let abstract_op_regs (op : Op.operation) (args : Rtl.reg list) (ae : aenv) :
    aval =
  if not (pure_op op) then Vtop
  else
    let rec consts acc = function
      | [] -> eval_const op (List.rev acc)
      | r :: rest -> (
        match aenv_get r ae with Const v -> consts (v :: acc) rest | _ -> Vtop)
    in
    consts [] args

let abstract_cond (cond : Op.condition) (args : aval list) : bool option =
  match cond with
  | Op.Ccomplu _ | Op.Ccompluimm _ -> None
  | _ -> (
    let concrete =
      List.fold_right
        (fun a acc ->
          match (a, acc) with
          | Const v, Some vs -> Some (v :: vs)
          | _ -> None)
        args (Some [])
    in
    match concrete with
    | None -> None
    | Some vl -> Op.eval_condition cond vl Memory.Mem.empty)

let transfer (code : Rtl.code) n (ae : aenv) : aenv =
  match (ae, Rtl.Code.get code n) with
  | None, _ | _, None -> ae
  | Some _, Some i -> (
    match i with
    | Rtl.Iop (Op.Omove, [ src ], res, _) -> aenv_set res (aenv_get src ae) ae
    | Rtl.Iop (op, args, res, _) ->
      aenv_set res (abstract_op_regs op args ae) ae
    | Rtl.Iload (_, _, _, dst, _) -> aenv_set dst Vtop ae
    | Rtl.Icall (_, _, _, res, _) -> aenv_set res Vtop ae
    | _ -> ae)

(** [analyze f] returns the abstract environment at the entrance of each
    node. *)
let analyze (f : Rtl.coq_function) : int -> aenv =
  let code = f.Rtl.fn_code in
  let successors n =
    match Rtl.Code.get code n with Some i -> Rtl.successors_instr i | None -> []
  in
  solve ~successors ~transfer:(transfer code)
    ~entries:[ (f.Rtl.fn_entrypoint, Some AMap.empty) ]
    (List.rev (Rtl.Code.fold (fun n _ l -> n :: l) code []))

(** The registers with a known constant in [ae], in increasing order;
    [None] where it is unreachable. *)
let fact (ae : aenv) : (Rtl.reg * value) list option =
  match ae with
  | None -> None
  | Some m ->
    Some
      (AMap.bindings m
      |> List.map (fun (r, a) ->
             match a with Const v -> (r, v) | Vbot | Vtop -> assert false))

let const_for (v : value) : Op.operation option =
  match v with
  | Vint n -> Some (Op.Ointconst n)
  | Vlong n -> Some (Op.Olongconst n)
  | Vfloat f -> Some (Op.Ofloatconst f)
  | Vsingle f -> Some (Op.Osingleconst f)
  | Vundef | Vptr _ -> None

let transf_instr (ae : aenv) (i : Rtl.instruction) : Rtl.instruction =
  match i with
  | Rtl.Iop (op, args, res, n) -> (
    let avals = List.map (fun r -> aenv_get r ae) args in
    (* If the whole operation is statically known, emit the constant. *)
    match abstract_op op avals with
    | Const v -> (
      match const_for v with
      | Some cop -> Rtl.Iop (cop, [], res, n)
      | None -> i)
    | _ -> (
      (* Otherwise strengthen operands: replace a known-constant second
         operand by the immediate form. *)
      match (op, args, avals) with
      | Op.Oadd, [ r1; _ ], [ _; Const (Vint n2) ] ->
        Rtl.Iop (Op.Oaddimm n2, [ r1 ], res, n)
      | Op.Oaddl, [ r1; _ ], [ _; Const (Vlong n2) ] ->
        Rtl.Iop (Op.Oaddlimm n2, [ r1 ], res, n)
      | Op.Omul, [ r1; _ ], [ _; Const (Vint n2) ] ->
        Rtl.Iop (Op.Omulimm n2, [ r1 ], res, n)
      | Op.Omull, [ r1; _ ], [ _; Const (Vlong n2) ] ->
        Rtl.Iop (Op.Omullimm n2, [ r1 ], res, n)
      | _ -> i))
  | Rtl.Icond (cond, args, n1, n2) -> (
    let avals = List.map (fun r -> aenv_get r ae) args in
    match abstract_cond cond avals with
    | Some true -> Rtl.Inop n1
    | Some false -> Rtl.Inop n2
    | None -> i)
  | _ -> i

(** Constant propagation as it was, over these facts. *)
let constprop (f : Rtl.coq_function) : Rtl.coq_function =
  let analysis = analyze f in
  { f with Rtl.fn_code = Rtl.Code.mapi (fun n i -> transf_instr (analysis n) i) f.Rtl.fn_code }

