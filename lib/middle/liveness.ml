(** Liveness analysis over RTL (backward dataflow, CompCert's [Liveness]).

    Used by register allocation (interference construction) and by the
    dead-code elimination pass. *)

(** Sets of pseudo-registers. Pseudo-registers are small non-negative
    integers, so an immutable packed bitset (63 bits per word, trailing
    zero words trimmed so the representation is canonical) beats a
    balanced tree on every operation the dataflow solver performs:
    [union]/[diff]/[equal] are word-parallel, [mem]/[add]/[remove] are
    O(words). The interface is the [Set.Make (Int)] subset the compiler
    uses. *)
module RSet : sig
  type t

  val empty : t
  val is_empty : t -> bool
  val mem : int -> t -> bool
  val add : int -> t -> t
  val remove : int -> t -> t
  val union : t -> t -> t
  val diff : t -> t -> t
  val equal : t -> t -> bool
  val of_list : int list -> t
  val elements : t -> int list
  val cardinal : t -> int
  val iter : (int -> unit) -> t -> unit
  val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
end = struct
  type t = int array

  let bits = Sys.int_size
  let empty : t = [||]
  let is_empty s = Array.length s = 0

  let trim (a : t) : t =
    let n = ref (Array.length a) in
    while !n > 0 && a.(!n - 1) = 0 do
      decr n
    done;
    if !n = Array.length a then a else Array.sub a 0 !n

  let mem i s =
    let w = i / bits in
    w < Array.length s && s.(w) land (1 lsl (i mod bits)) <> 0

  let add i s =
    let w = i / bits and b = i mod bits in
    let n = Array.length s in
    if w < n && s.(w) land (1 lsl b) <> 0 then s
    else begin
      let a = Array.make (max n (w + 1)) 0 in
      Array.blit s 0 a 0 n;
      a.(w) <- a.(w) lor (1 lsl b);
      a
    end

  let remove i s =
    let w = i / bits and b = i mod bits in
    if w >= Array.length s || s.(w) land (1 lsl b) = 0 then s
    else begin
      let a = Array.copy s in
      a.(w) <- a.(w) land lnot (1 lsl b);
      trim a
    end

  (* [subset b a]: every bit of [b] is in [a]. Checked before [union]
     allocates, so the converged phase of a fixpoint solve — where joins
     almost always absorb — allocates nothing at all. *)
  let subset (b : t) (a : t) =
    let la = Array.length a and lb = Array.length b in
    lb <= la
    &&
    let rec go i = i >= lb || (b.(i) land lnot a.(i) = 0 && go (i + 1)) in
    go 0

  let union (a : t) (b : t) : t =
    let la = Array.length a and lb = Array.length b in
    if la = 0 then b
    else if lb = 0 then a
    else if subset b a then a
    else if subset a b then b
    else begin
      let l = max la lb in
      let r = Array.make l 0 in
      for i = 0 to l - 1 do
        r.(i) <-
          (if i < la then a.(i) else 0) lor (if i < lb then b.(i) else 0)
      done;
      r
    end

  let diff (a : t) (b : t) : t =
    let la = Array.length a and lb = Array.length b in
    if la = 0 || lb = 0 then a
    else begin
      (* Nothing to remove: keep [a] physically (no copy). *)
      let l = min la lb in
      let rec disjoint i = i >= l || (a.(i) land b.(i) = 0 && disjoint (i + 1)) in
      if disjoint 0 then a
      else begin
        let r = Array.copy a in
        for i = 0 to l - 1 do
          r.(i) <- a.(i) land lnot b.(i)
        done;
        trim r
      end
    end

  let equal (a : t) (b : t) =
    a == b
    ||
    let la = Array.length a in
    la = Array.length b
    &&
    let rec go i = i >= la || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let of_list l = List.fold_left (fun s i -> add i s) empty l

  (* [ctz_byte.[b]]: the index of the lowest set bit of the byte [b > 0]. *)
  let ctz_byte =
    Bytes.init 256 (fun b ->
        let rec go i = if b = 0 || (b lsr i) land 1 = 1 then i else go (i + 1) in
        Char.chr (go 0))

  (* The index of the lowest set bit of [x <> 0], in constant time: three
     halvings of the search window, then one byte-table read. Logical
     shifts keep the sign bit (bit 62) an ordinary bit. *)
  let lowest_bit x =
    let i = if x land 0xFFFF_FFFF = 0 then 32 else 0 in
    let x = x lsr i in
    let j = if x land 0xFFFF = 0 then 16 else 0 in
    let x = x lsr j in
    let k = if x land 0xFF = 0 then 8 else 0 in
    i + j + k + Char.code (Bytes.unsafe_get ctz_byte ((x lsr k) land 0xFF))

  let iter f s =
    for w = 0 to Array.length s - 1 do
      let x = ref s.(w) in
      while !x <> 0 do
        f ((w * bits) + lowest_bit !x);
        x := !x land (!x - 1)
      done
    done

  let fold f s acc =
    let acc = ref acc in
    iter (fun i -> acc := f i !acc) s;
    !acc

  let elements s = List.rev (fold (fun i l -> i :: l) s [])

  let cardinal s =
    let c = ref 0 in
    Array.iter
      (fun w ->
        let x = ref w in
        while !x <> 0 do
          x := !x land (!x - 1);
          incr c
        done)
      s;
    !c
end

module L = struct
  type t = RSet.t

  let bot = RSet.empty
  let equal = RSet.equal
  let lub = RSet.union
end

module Solver = Support.Fixpoint.Make (L)

(* Transfer function of an instruction:
   live-in = (live-out \ defs) ∪ uses, read off the instruction. [remove]
   and [add] return their argument physically when it already has the
   answer, so a stable transfer application allocates nothing. *)
let add_regs rl s = List.fold_left (fun s r -> RSet.add r s) s rl

let add_ros (ros : Rtl.ros) s =
  match ros with Rtl.Rreg r -> RSet.add r s | Rtl.Rsymbol _ -> s

let transfer (code : Rtl.code) n (live_out : RSet.t) : RSet.t =
  match Rtl.Code.get code n with
  | None | Some (Rtl.Inop _ | Rtl.Ireturn None) -> live_out
  | Some (Rtl.Iop (_, args, res, _) | Rtl.Iload (_, _, args, res, _)) ->
    add_regs args (RSet.remove res live_out)
  | Some (Rtl.Istore (_, _, args, src, _)) -> RSet.add src (add_regs args live_out)
  | Some (Rtl.Icall (_, ros, args, res, _)) ->
    add_ros ros (add_regs args (RSet.remove res live_out))
  | Some (Rtl.Itailcall (_, ros, args)) -> add_ros ros (add_regs args live_out)
  | Some (Rtl.Icond (_, args, _, _)) -> add_regs args live_out
  | Some (Rtl.Ireturn (Some r)) -> RSet.add r live_out

(** A solved liveness analysis of one function: the fixpoint is the
    costly part, and [live_in]/[live_out] read it. A client that needs
    one function's liveness twice solves it once and passes the
    solution along. *)
type solution = { code : Rtl.code; out : int -> RSet.t }

let solve (f : Rtl.coq_function) : solution =
  let code = f.Rtl.fn_code in
  (* solve_backward gives the fact at the exit of each node: the join of
     live-ins of successors. live-in is then one transfer application. *)
  let live_out =
    Solver.solve_backward ~successors:(Rtl.successors code) ~transfer:(transfer code)
      ~entries:[] (Rtl.nodes code)
  in
  { code; out = live_out }

(** Live-out of each node. *)
let live_out (s : solution) : int -> RSet.t = s.out

(** Live-in of each node: the registers live at the entrance of the
    node's instruction. Results are memoized in a dense array over
    nodes, so repeated queries at the same node cost one array read. *)
let live_in (s : solution) : int -> RSet.t =
  let size = Rtl.Code.size s.code in
  let memo = Array.make size RSet.empty in
  let filled = Array.make size false in
  fun n ->
    if n < 0 || n >= size then RSet.empty
    else if filled.(n) then memo.(n)
    else begin
      let l = transfer s.code n (s.out n) in
      memo.(n) <- l;
      filled.(n) <- true;
      l
    end

let analyze (f : Rtl.coq_function) : int -> RSet.t = live_in (solve f)
let analyze_out (f : Rtl.coq_function) : int -> RSet.t = live_out (solve f)

(** Every internal function's liveness, by name: the Allocation stage
    solves it once and hands it to the allocator and to its
    validator. *)
let solve_program (p : Rtl.program) : (Support.Ident.t * solution) list =
  List.filter_map
    (fun (id, d) ->
      match d with
      | Iface.Ast.Gfun (Iface.Ast.Internal f) -> Some (id, solve f)
      | _ -> None)
    p.Iface.Ast.prog_defs
