(** Common subexpression elimination by local value numbering (a
    restriction of CompCert's [CSE] to extended basic blocks).

    Simulation convention: [va·ext ↠ va·ext] (Table 3).

    Within each extended basic block (maximal single-predecessor chain),
    pure operations already computed are replaced by moves from the
    register holding the previous result. Loads are reused until a store
    or call invalidates memory equations.

    One walk covers each block tree from its root, depth first, on one
    mutable numbering: a register-indexed table of value numbers and an
    rhs-indexed table of available results. A second branch of an
    [Icond] must start from the numbering at the fork, so while one is
    pending every write goes on an undo trail, and the walk unwinds the
    trail before taking it. *)

open Support.Errors
module Errors = Support.Errors
module R = Middle.Rtl
module Op = Middle.Op

(* Value-numbering keys: the right-hand side over the value numbers of
   its arguments. Operations and addressing modes are first-order data,
   so structural equality is exact on them, except on float constants,
   which {!Op.equal_operation} compares by their bits ([0.0] and [-0.0]
   are different constants). [Hashtbl.hash] maps equal keys alike. *)
type rhs =
  | Rop of Op.operation * int list
  | Rload of Memory.Memdata.chunk * Op.addressing * int list

module Rhs_table = Hashtbl.Make (struct
  type t = rhs

  let equal a b =
    match (a, b) with
    | Rop (o1, l1), Rop (o2, l2) -> Op.equal_operation o1 o2 && l1 = l2
    | _ -> a = b

  let hash = Hashtbl.hash
end)

(* An available result: [holder] computed it, as value number [hvn], in
   numbering generation [gen]; a load also in memory generation [mem].
   It is still available while [holder] holds [hvn]. *)
type entry = { holder : R.reg; hvn : int; gen : int; mem : int }

type undo =
  | Reg of R.reg * int * int  (** a register's number and generation *)
  | Rhs of rhs * entry option  (** the key's entry before *)
  | Gens of int * int  (** the numbering and memory generations *)

(* A register's number counts only if it was written in the current
   generation [gen], and a load's entry only in the current memory
   generation [mem]: starting a generation empties the numbering, or
   forgets the loads, without touching the tables. Value numbers and
   generations are never reused. *)
type numbering = {
  vn : int array;
  vn_gen : int array;
  avail : entry Rhs_table.t;
  mutable gen : int;
  mutable mem : int;
  mutable next : int;  (** the next fresh value number or generation *)
  mutable trail : undo list;
  mutable pending : int;  (** forks whose second branch is still to walk *)
}

let fresh (num : numbering) =
  num.next <- num.next + 1;
  num.next

let log (num : numbering) u = if num.pending > 0 then num.trail <- u :: num.trail

let set (num : numbering) r v =
  log num (Reg (r, num.vn.(r), num.vn_gen.(r)));
  num.vn.(r) <- v;
  num.vn_gen.(r) <- num.gen

(* The number of [r], assigned fresh on first use. *)
let vn_of (num : numbering) r =
  if num.vn_gen.(r) = num.gen then num.vn.(r)
  else begin
    let v = fresh num in
    set num r v;
    v
  end

let rec vns_of num = function
  | [] -> []
  | r :: rl ->
    let v = vn_of num r in
    v :: vns_of num rl

let new_generations (num : numbering) ~all =
  log num (Gens (num.gen, num.mem));
  if all then num.gen <- fresh num;
  num.mem <- fresh num

(* The register still holding [key]'s value, and its number. *)
let available (num : numbering) key =
  match Rhs_table.find_opt num.avail key with
  | Some e
    when e.gen = num.gen
         && (match key with Rload _ -> e.mem = num.mem | Rop _ -> true)
         && num.vn_gen.(e.holder) = num.gen
         && num.vn.(e.holder) = e.hvn ->
    Some e
  | _ -> None

let record (num : numbering) key res v =
  if num.pending > 0 then log num (Rhs (key, Rhs_table.find_opt num.avail key));
  Rhs_table.replace num.avail key { holder = res; hvn = v; gen = num.gen; mem = num.mem }

let rec undo (num : numbering) mark =
  if num.trail != mark then
    match num.trail with
    | [] -> ()
    | u :: rest ->
      (match u with
      | Reg (r, v, g) ->
        num.vn.(r) <- v;
        num.vn_gen.(r) <- g
      | Rhs (key, Some e) -> Rhs_table.replace num.avail key e
      | Rhs (key, None) -> Rhs_table.remove num.avail key
      | Gens (g, m) ->
        num.gen <- g;
        num.mem <- m);
      num.trail <- rest;
      undo num mark

(* Operations whose result depends on more than their arguments cannot be
   numbered. *)
let op_is_pure = function
  | Op.Omove -> false (* handled as an alias, not an equation *)
  | _ -> true

(* Predecessor counts by node, to delimit extended basic blocks; the
   entry has one more. A node beyond the code holds nothing to walk, so
   it needs no count. *)
let predecessor_counts (f : R.coq_function) : int array =
  let preds = Array.make (R.Code.size f.R.fn_code) 0 in
  let count n = if n >= 0 && n < Array.length preds then preds.(n) <- preds.(n) + 1 in
  R.Code.iter (fun _ i -> R.iter_successors count i) f.R.fn_code;
  count f.R.fn_entrypoint;
  preds

let transf_function (f : R.coq_function) : R.coq_function Errors.t =
  let preds = predecessor_counts f in
  let nregs = R.max_reg_function f + 1 in
  let num =
    {
      vn = Array.make nregs 0;
      vn_gen = Array.make nregs 0;
      avail = Rhs_table.create 16;
      gen = 1;
      mem = 1;
      next = 1;
      trail = [];
      pending = 0;
    }
  in
  let code = f.R.fn_code in
  let rewritten = ref None in
  let replace n i =
    let b =
      match !rewritten with
      | Some b -> b
      | None ->
        let b = R.Code.builder ~of_code:code () in
        rewritten := Some b;
        b
    in
    R.Code.set b n i
  in
  let visited = Bytes.make (R.Code.size code) '\000' in
  (* [key := res]: a move from the register still holding [key]'s value,
     or a fresh number that [res] now makes available. *)
  let define n key res n' =
    match available num key with
    | Some e ->
      replace n (R.Iop (Op.Omove, [ e.holder ], res, n'));
      set num res e.hvn
    | None ->
      let v = fresh num in
      set num res v;
      record num key res v
  in
  (* Walk extended basic blocks carrying the numbering; restart with the
     empty numbering at join points. *)
  let rec walk n =
    match R.Code.get code n with
    | None -> ()
    | Some _ when Bytes.get visited n <> '\000' -> ()
    | Some i -> (
      Bytes.set visited n '\001';
      if preds.(n) > 1 then new_generations num ~all:true;
      match i with
      | R.Iop (Op.Omove, [ src ], res, n') ->
        set num res (vn_of num src);
        walk n'
      | R.Iop (op, args, res, n') when op_is_pure op ->
        define n (Rop (op, vns_of num args)) res n';
        walk n'
      | R.Iop (_, _, res, n') ->
        set num res (fresh num);
        walk n'
      | R.Iload (chunk, addr, args, dst, n') ->
        define n (Rload (chunk, addr, vns_of num args)) dst n';
        walk n'
      | R.Istore (_, _, _, _, n') ->
        new_generations num ~all:false;
        walk n'
      | R.Icall (_, _, _, res, n') ->
        (* Calls may change memory arbitrarily (including allocation
           and deallocation, which affect pointer-comparison results):
           drop all equations. *)
        new_generations num ~all:true;
        set num res (fresh num);
        walk n'
      | R.Inop n' -> walk n'
      | R.Icond (_, _, n1, n2) ->
        let mark = num.trail in
        num.pending <- num.pending + 1;
        walk n1;
        num.pending <- num.pending - 1;
        undo num mark;
        walk n2
      | R.Itailcall _ | R.Ireturn _ -> ())
  in
  walk f.R.fn_entrypoint;
  match !rewritten with
  | None -> ok f
  | Some b -> ok { f with R.fn_code = R.Code.freeze b }

let transf_program (p : R.program) : R.program Errors.t =
  Iface.Ast.transform_program transf_function p
