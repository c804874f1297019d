(** Reference CSE for differential testing: the value numbering that
    [Passes.Cse] replaced, on persistent [Regmap] and [RhsMap]
    numberings, where an [Icond] fork hands both branches the same
    numbering. [Passes.Cse] must produce the same code. *)

module Rtl = Middle.Rtl
module Op = Middle.Op

(* Value-numbering keys: the right-hand side over the value numbers of
   its arguments, compared structurally. Operations and addressing modes
   are first-order data, so the polymorphic compare is exact on them —
   and far cheaper than serializing each instruction into a string key —
   except on float constants, which {!Op.compare_operation} orders by
   their bits ([0.0] and [-0.0] are different constants). *)
type rhs =
  | Rop of Op.operation * int list
  | Rload of Memory.Memdata.chunk * Op.addressing * int list

module RhsMap = Map.Make (struct
  type t = rhs

  let compare a b =
    match (a, b) with
    | Rop (o1, l1), Rop (o2, l2) ->
      let c = Op.compare_operation o1 o2 in
      if c <> 0 then c else Stdlib.compare l1 l2
    | _ -> Stdlib.compare a b
end)

type numbering = {
  num_of_reg : int Rtl.Regmap.t;  (** register → value number *)
  reg_of_rhs : (Rtl.reg * int) RhsMap.t;  (** available rhs → holding reg, vn of reg *)
  next_vn : int;
}

let empty_numbering = { num_of_reg = Rtl.Regmap.empty; reg_of_rhs = RhsMap.empty; next_vn = 1 }

let vn_of (n : numbering) r =
  match Rtl.Regmap.find_opt r n.num_of_reg with Some v -> (v, n) | None ->
    (* Assign a fresh value number lazily. *)
    (n.next_vn, { n with num_of_reg = Rtl.Regmap.add r n.next_vn n.num_of_reg;
                  next_vn = n.next_vn + 1 })

let vns_of n args =
  List.fold_right
    (fun r (vs, n) ->
      let v, n = vn_of n r in
      (v :: vs, n))
    args ([], n)

let rhs_key_op (op : Op.operation) (vns : int list) = Rop (op, vns)
let rhs_key_load chunk addr (vns : int list) = Rload (chunk, addr, vns)

(* Operations whose result depends on more than their arguments cannot be
   numbered. *)
let op_is_pure = function
  | Op.Omove -> false (* handled as an alias, not an equation *)
  | _ -> true

(* Set [res := fresh vn] after an opaque definition. *)
let set_unknown n res =
  { n with num_of_reg = Rtl.Regmap.add res n.next_vn n.num_of_reg; next_vn = n.next_vn + 1 }

let set_known n res vn = { n with num_of_reg = Rtl.Regmap.add res vn n.num_of_reg }

let kill_loads n =
  {
    n with
    reg_of_rhs =
      RhsMap.filter (fun k _ -> match k with Rload _ -> false | Rop _ -> true)
        n.reg_of_rhs;
  }

(* Predecessor counts by node, to delimit extended basic blocks; the
   entry has one more. A node beyond the code holds nothing to walk, so
   it needs no count. *)
let predecessor_counts (f : Rtl.coq_function) : int array =
  let preds = Array.make (Rtl.Code.size f.Rtl.fn_code) 0 in
  let count n = if n >= 0 && n < Array.length preds then preds.(n) <- preds.(n) + 1 in
  Rtl.Code.iter (fun _ i -> List.iter count (Rtl.successors_instr i)) f.Rtl.fn_code;
  count f.Rtl.fn_entrypoint;
  preds

(** Common subexpression elimination as it was. *)
let cse (f : Rtl.coq_function) : Rtl.coq_function =
  let preds = predecessor_counts f in
  let code = Rtl.Code.builder ~of_code:f.Rtl.fn_code () in
  let visited = Array.make (Rtl.Code.size f.Rtl.fn_code) false in
  (* Walk extended basic blocks carrying the numbering; restart with the
     empty numbering at join points. *)
  let rec walk n (num : numbering) =
    match Rtl.Code.get f.Rtl.fn_code n with
    | None -> ()
    | Some _ when visited.(n) -> ()
    | Some i -> (
      visited.(n) <- true;
      let num = if preds.(n) > 1 then empty_numbering else num in
      match i with
      | Rtl.Iop (Op.Omove, [ src ], res, n') ->
        let v, num = vn_of num src in
        walk n' (set_known num res v)
      | Rtl.Iop (op, args, res, n') when op_is_pure op ->
        let vns, num = vns_of num args in
        let key = rhs_key_op op vns in
        (match RhsMap.find_opt key num.reg_of_rhs with
        | Some (r0, vn0)
          when Rtl.Regmap.find_opt r0 num.num_of_reg = Some vn0 ->
          (* Previous result still available: replace by a move. *)
          Rtl.Code.set code n (Rtl.Iop (Op.Omove, [ r0 ], res, n'));
          walk n' (set_known num res vn0)
        | _ ->
          let num = set_unknown num res in
          let vn, num = vn_of num res in
          let num =
            { num with reg_of_rhs = RhsMap.add key (res, vn) num.reg_of_rhs }
          in
          walk n' num)
      | Rtl.Iop (_, _, res, n') -> walk n' (set_unknown num res)
      | Rtl.Iload (chunk, addr, args, dst, n') ->
        let vns, num = vns_of num args in
        let key = rhs_key_load chunk addr vns in
        (match RhsMap.find_opt key num.reg_of_rhs with
        | Some (r0, vn0)
          when Rtl.Regmap.find_opt r0 num.num_of_reg = Some vn0 ->
          Rtl.Code.set code n (Rtl.Iop (Op.Omove, [ r0 ], dst, n'));
          walk n' (set_known num dst vn0)
        | _ ->
          let num = set_unknown num dst in
          let vn, num = vn_of num dst in
          let num =
            { num with reg_of_rhs = RhsMap.add key (dst, vn) num.reg_of_rhs }
          in
          walk n' num)
      | Rtl.Istore (_, _, _, _, n') -> walk n' (kill_loads num)
      | Rtl.Icall (_, _, _, res, n') ->
        (* Calls may change memory arbitrarily (including allocation
           and deallocation, which affect pointer-comparison results):
           drop all equations. *)
        walk n' (set_unknown empty_numbering res)
      | Rtl.Inop n' -> walk n' num
      | Rtl.Icond (_, _, n1, n2) ->
        walk n1 num;
        walk n2 num
      | Rtl.Itailcall _ | Rtl.Ireturn _ -> ())
  in
  walk f.Rtl.fn_entrypoint empty_numbering;
  { f with Rtl.fn_code = Rtl.Code.freeze code }

