(** Value analysis: forward constant/interval-free abstract interpretation
    over RTL registers (a restriction of CompCert's [ValueAnalysis]).

    The abstract domain tracks known constant values per register. Memory
    is treated conservatively (loads return ⊤); read-only global data is
    the province of the [va] invariant checked at interaction boundaries
    (paper, Appendix B.3). Used by [Constprop].

    The fact at a node is unreachable (⊥), or the registers holding a
    known constant there; every other register is ⊤. A reachable fact
    is an immutable list of bindings that lists only the constants,
    which keeps it small in functions with many registers. It orders
    registers by the last node that writes each, latest first. The
    solver visits nodes in about the order they run, so a write
    usually lands at the head of the list: it allocates one binding,
    and the fact shares the rest with the one it came from, as facts
    share whole lists wherever they agree. A join filters the target's
    list by the incoming one, stops where the two share their tail,
    and builds a new list only when it drops a binding: it neither
    merges nor compares whole environments. *)

open Memory.Values

(* A fact's bindings by decreasing key, each a register's key and its
   constant. A constant is never [Vundef] or a pointer. A register's
   key is one past the last node that writes it, so no register has
   key -1 and [unreached] is a row no fact can be. *)
type row = Nil | Bind of int * value * row

let unreached = Bind (-1, Vundef, Nil)

(** The solved analysis of one function: node [n]'s fact is
    [rows.(n)], keyed by [keys]. [folds] marks the operations whose
    last visit, which saw that fact, computed a constant. *)
type t = { code : Rtl.code; keys : int array; rows : row array; folds : Bytes.t }

let reached (t : t) n = n >= 0 && n < Array.length t.rows && t.rows.(n) != unreached

(* The constant of the register of key [k] in [row], or [Vundef]. *)
let rec find_key (row : row) k =
  match row with
  | Bind (k', v, rest) -> if k' > k then find_key rest k else if k' = k then v else Vundef
  | Nil -> Vundef

(* [r]'s constant in [row]; a register that no node writes has key 0
   and holds none. *)
let find keys row r =
  let k = if r < Array.length keys then keys.(r) else 0 in
  if k = 0 then Vundef else find_key row k

(* Node [n]'s row; an unreachable node knows no constant either. *)
let row (t : t) n = if reached t n then t.rows.(n) else Nil

(** The constant [r] holds at the entrance of node [n], or [Vundef]
    when it holds none known there (and everywhere in an unreachable
    node). *)
let const (t : t) n r = find t.keys (row t n) r

(** The registers with a known constant at the entrance of node [n],
    in increasing order; [None] where [n] is unreachable. *)
let fact (t : t) n : (Rtl.reg * value) list option =
  let reg k =
    match Rtl.Code.get t.code (k - 1) with
    | Some (Rtl.Iop (_, _, r, _) | Rtl.Iload (_, _, _, r, _) | Rtl.Icall (_, _, _, r, _)) -> r
    | _ -> invalid_arg "Valueanalysis.fact"
  in
  let rec bindings acc = function
    | Bind (k, v, rest) -> bindings ((reg k, v) :: acc) rest
    | Nil -> List.sort (fun (r1, _) (r2, _) -> compare r1 r2) acc
  in
  if reached t n then Some (bindings [] t.rows.(n)) else None

(* Operations whose result depends on more than their constant
   arguments: symbols, the stack pointer and the memory. *)
let pure_op = function
  | Op.Oaddrsymbol _ | Op.Oaddrstack _ | Op.Olea _ | Op.Ocmp (Op.Ccomplu _)
  | Op.Ocmp (Op.Ccompluimm _) | Op.Omove ->
    false
  | _ -> true

let constant = function
  | (Vint _ | Vlong _ | Vfloat _ | Vsingle _) as v -> v
  | _ -> Vundef

(* [Op.eval_condition]'s answer on the constants of [args] in [row],
   read through [Op.test] once the arguments are known, with no
   argument list; [None] when an argument is not a known constant. The
   unsigned 64-bit comparisons, which read the memory, are never
   folded. *)
let test_row keys row (cond : Op.condition) (args : Rtl.reg list) : bool option =
  match (cond, args) with
  | (Op.Ccomplu _ | Op.Ccompluimm _), _ -> None
  | _, [ r1; r2 ] -> (
    match (find keys row r1, find keys row r2) with
    | Vundef, _ | _, Vundef -> None
    | v1, v2 -> (
      match Op.test cond with Op.Test2 f -> f Memory.Mem.empty v1 v2 | Op.Test_imm _ -> None))
  | _, [ r1 ] -> (
    match find keys row r1 with
    | Vundef -> None
    | v1 -> (
      match Op.test cond with
      | Op.Test_imm (f, imm) -> f Memory.Mem.empty v1 imm
      | Op.Test2 _ -> None))
  | _ -> None

let rec all_known keys row = function
  | [] -> true
  | r :: rl -> find keys row r != Vundef && all_known keys row rl

(* [Op.eval_operation]'s answer on the constants of [args] in [row]
   when it is a constant, else [Vundef]: every argument must be known,
   and the operator is applied through [Op.arity], each argument read
   once. *)
let eval_row keys row (op : Op.operation) (args : Rtl.reg list) : value =
  if not (pure_op op) then Vundef
  else
    match args with
    | [ r ] -> (
      match find keys row r with
      | Vundef -> Vundef
      | v -> (
        match Op.arity op with
        | Op.Const c -> constant c
        | Op.Unary f -> constant (f v)
        | Op.Binary_imm (f, imm) -> constant (f v imm)
        | Op.Unary_partial f -> ( match f v with Some v -> constant v | None -> Vundef)
        | Op.Cmp cond -> (
          match test_row keys row cond args with Some b -> of_bool b | None -> Vundef)
        | _ -> Vundef))
    | [ r1; r2 ] -> (
      match (find keys row r1, find keys row r2) with
      | Vundef, _ | _, Vundef -> Vundef
      | v1, v2 -> (
        match Op.arity op with
        | Op.Const c -> constant c
        | Op.Binary f -> constant (f v1 v2)
        | Op.Binary_partial f -> ( match f v1 v2 with Some v -> constant v | None -> Vundef)
        | Op.Cmp cond -> (
          match test_row keys row cond args with Some b -> of_bool b | None -> Vundef)
        | _ -> Vundef))
    | _ -> (
      (* No operator takes these operands but a constant. *)
      match Op.arity op with
      | Op.Const c when all_known keys row args -> constant c
      | _ -> Vundef)

(** The constant that [op] computes from [args] at node [n], or
    [Vundef] when it is not a known constant. *)
let eval_op (t : t) n op args = eval_row t.keys (row t n) op args

(** Whether the operation at node [n] computes a known constant, as
    {!eval_op} would answer, without evaluating it again. *)
let folds (t : t) n = n >= 0 && n < Bytes.length t.folds && Bytes.get t.folds n <> '\000'

(** Whether [cond] on [args] is statically known at node [n]. *)
let eval_cond (t : t) n cond args = test_row t.keys (row t n) cond args

(* [row] with the register of key [k] holding [v] ([Vundef]: ⊤);
   [row] itself when it already does. Constants compare by
   {!Memory.Values.equal}, floats by their bits: [0.0] and [-0.0] are
   different constants, and a NaN is its own. *)
let rec set_row (row : row) k v =
  match row with
  | Bind (k', v0, rest) when k' > k ->
    let rest' = set_row rest k v in
    if rest' == rest then row else Bind (k', v0, rest')
  | Bind (k', v0, rest) when k' = k ->
    if v == Vundef then rest else if equal v0 v then row else Bind (k, v, rest)
  | _ -> if v == Vundef then row else Bind (k, v, row)

(* The fact leaving node [n], given its fact at the entrance. *)
let transfer (t : t) n =
  let row = t.rows.(n) in
  if row == unreached then row
  else
    match Rtl.Code.get t.code n with
    | Some (Rtl.Iop (Op.Omove, [ src ], res, _)) ->
      set_row row t.keys.(res) (find t.keys row src)
    | Some (Rtl.Iop (op, args, res, _)) ->
      let v = eval_row t.keys row op args in
      Bytes.set t.folds n (if v == Vundef then '\000' else '\001');
      set_row row t.keys.(res) v
    | Some (Rtl.Iload (_, _, _, res, _) | Rtl.Icall (_, _, _, res, _)) ->
      set_row row t.keys.(res) Vundef
    | _ -> row

(* [src] without its bindings of keys above [k]. *)
let rec skip (src : row) k =
  match src with Bind (k', _, rest) when k' > k -> skip rest k | _ -> src

(* [dst] less the bindings [src] does not agree with; [dst] itself when
   [src] agrees with all of them. The walk stops where the two rows
   share their tail. *)
let rec filter (dst : row) (src : row) =
  if dst == src then dst
  else
    match dst with
    | Nil -> dst
    | Bind (k, v, rest) -> (
      match skip src k with
      | Bind (k', v', src') when k' = k && (v' == v || equal v' v) ->
        let rest' = filter rest src' in
        if rest' == rest then dst else Bind (k, v, rest')
      | src' -> filter rest src')

(** [analyze f] solves the analysis: the entry point's fact is every
    register ⊤, and every other fact starts unreachable. A visit
    computes the fact leaving its node once; a node reached for the
    first time takes it as it is, and a join filters by it. *)
let analyze (f : Rtl.coq_function) : t =
  let code = f.Rtl.fn_code in
  let dest = function
    | Rtl.Iop (_, _, r, _) | Rtl.Iload (_, _, _, r, _) | Rtl.Icall (_, _, _, r, _) -> r
    | _ -> -1
  in
  let keys = Array.make (Rtl.Code.fold (fun _ i m -> max m (dest i)) code (-1) + 1) 0 in
  Rtl.Code.iter (fun n i -> if dest i >= 0 then keys.(dest i) <- n + 1) code;
  let g = Rtl.graph code in
  let size = Support.Fixpoint.size g in
  let t = { code; keys; rows = Array.make size unreached; folds = Bytes.make size '\000' } in
  if f.Rtl.fn_entrypoint >= 0 && f.Rtl.fn_entrypoint < size then
    t.rows.(f.Rtl.fn_entrypoint) <- Nil;
  let out = ref unreached in
  Support.Fixpoint.forward g
    ~visit:(fun n -> out := transfer t n)
    ~flow:(fun _ m ->
      let row = t.rows.(m) in
      let row' =
        if !out == unreached || row == !out then row
        else if row == unreached then !out
        else filter row !out
      in
      if row' == row then false
      else begin
        t.rows.(m) <- row';
        true
      end);
  t
