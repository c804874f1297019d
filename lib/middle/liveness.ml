(** Liveness analysis over RTL (backward dataflow, CompCert's [Liveness]).

    Used by register allocation (interference construction), its
    validator, and the dead-code elimination pass. The solver grows one
    bit row per node in place; the allocator and the validator read the
    rows as {!RSet.t}s. *)

(** Sets of pseudo-registers. Pseudo-registers are small non-negative
    integers, so an immutable packed bitset (63 bits per word, trailing
    zero words trimmed so the representation is canonical) beats a
    balanced tree on every operation the allocator and its validator
    perform: [union] is word-parallel, [mem]/[add]/[remove] are
    O(words). The interface is the [Set.Make (Int)] subset the compiler
    uses. *)
module RSet : sig
  type t

  val empty : t
  val mem : int -> t -> bool
  val add : int -> t -> t
  val remove : int -> t -> t
  val union : t -> t -> t
  val of_list : int list -> t

  (** [of_bits a ofs len]: the set whose words are [a.(ofs)] to
      [a.(ofs + len - 1)], the layout of {!solution}'s rows. *)
  val of_bits : int array -> int -> int -> t

  val elements : t -> int list
  val cardinal : t -> int
  val iter : (int -> unit) -> t -> unit
  val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
end = struct
  type t = int array

  let bits = Sys.int_size
  let empty : t = [||]

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

  let of_list l = List.fold_left (fun s i -> add i s) empty l

  let of_bits a ofs len =
    let n = ref len in
    while !n > 0 && a.(ofs + !n - 1) = 0 do
      decr n
    done;
    if !n = 0 then empty else Array.sub a ofs !n

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

let bits = Sys.int_size

(** A solved liveness analysis of one function: the fixpoint is the
    costly part, and [live_in]/[live_out] read it. Node [n]'s live-out
    set is row [n] of a bit table, [width] words at [n * width], which
    the solver grows in place. A client that needs one function's
    liveness twice solves it once and passes the solution along. *)
type solution = {
  code : Rtl.code;
  width : int;
  rows : int array;
  mutable outs : RSet.t array;  (** [live_out]'s sets, built on its first call *)
}

let add_bit (dst : int array) r = dst.(r / bits) <- dst.(r / bits) lor (1 lsl (r mod bits))

let rec add_bits dst = function
  | [] -> ()
  | r :: rl ->
    add_bit dst r;
    add_bits dst rl

let add_ros dst = function Rtl.Rreg r -> add_bit dst r | Rtl.Rsymbol _ -> ()
let kill_bit (dst : int array) r = dst.(r / bits) <- dst.(r / bits) land lnot (1 lsl (r mod bits))

(* Into [dst], node [n]'s live-in bits: live-in = (live-out \ defs) ∪
   uses, read off the instruction. *)
let live_in_bits (s : solution) n (dst : int array) =
  Array.blit s.rows (n * s.width) dst 0 s.width;
  match Rtl.Code.get s.code n with
  | None | Some (Rtl.Inop _ | Rtl.Ireturn None) -> ()
  | Some (Rtl.Iop (_, args, res, _) | Rtl.Iload (_, _, args, res, _)) ->
    kill_bit dst res;
    add_bits dst args
  | Some (Rtl.Istore (_, _, args, src, _)) ->
    add_bits dst args;
    add_bit dst src
  | Some (Rtl.Icall (_, ros, args, res, _)) ->
    kill_bit dst res;
    add_bits dst args;
    add_ros dst ros
  | Some (Rtl.Itailcall (_, ros, args)) ->
    add_bits dst args;
    add_ros dst ros
  | Some (Rtl.Icond (_, args, _, _)) -> add_bits dst args
  | Some (Rtl.Ireturn (Some r)) -> add_bit dst r

let solve (f : Rtl.coq_function) : solution =
  let code = f.Rtl.fn_code in
  let g = Rtl.graph code in
  let width = (Rtl.max_reg code / bits) + 1 in
  let s = { code; width; rows = Array.make (Support.Fixpoint.size g * width) 0; outs = [||] } in
  (* A visit computes the node's live-in once; each flow ORs it into a
     predecessor's live-out row. *)
  let live_in = Array.make width 0 in
  Support.Fixpoint.backward g
    ~visit:(fun n -> live_in_bits s n live_in)
    ~flow:(fun _ p ->
      let base = p * width in
      let grew = ref false in
      for w = 0 to width - 1 do
        let old = s.rows.(base + w) in
        let x = old lor live_in.(w) in
        if x <> old then begin
          s.rows.(base + w) <- x;
          grew := true
        end
      done;
      !grew);
  s

let size (s : solution) = Array.length s.rows / s.width

(** Whether [r] is live out of node [n], read off the table. *)
let is_live_out (s : solution) n r =
  n >= 0 && n < size s
  && r / bits < s.width
  && s.rows.((n * s.width) + (r / bits)) land (1 lsl (r mod bits)) <> 0

(** Live-out of each node. *)
let live_out (s : solution) : int -> RSet.t =
  if Array.length s.outs = 0 then
    s.outs <- Array.init (size s) (fun n -> RSet.of_bits s.rows (n * s.width) s.width);
  fun n -> if n >= 0 && n < Array.length s.outs then s.outs.(n) else RSet.empty

(** Live-in of each node: the registers live at the entrance of the
    node's instruction. Results are memoized in a dense array over
    nodes, so repeated queries at the same node cost one array read. *)
let live_in (s : solution) : int -> RSet.t =
  let size = size s in
  let memo = Array.make size RSet.empty in
  let filled = Bytes.make size '\000' in
  let scratch = Array.make s.width 0 in
  fun n ->
    if n < 0 || n >= size then RSet.empty
    else if Bytes.get filled n <> '\000' then memo.(n)
    else begin
      live_in_bits s n scratch;
      let l = RSet.of_bits scratch 0 s.width in
      memo.(n) <- l;
      Bytes.set filled n '\001';
      l
    end

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
