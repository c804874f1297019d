(** Register allocation: RTL to LTL (CompCert's [Allocation]).

    Simulation convention: [wt · ext · CL ↠ wt · ext · CL] (Table 3):
    arguments move from abstract values to locations ([CL]), under the
    typing invariant [wt].

    The allocator is untrusted: {!Alloc_check} validates every coloring,
    and the driver ([Driver.Pipeline.allocation]) tries two of them:
    - {!allocate_linear_with}, the fast path: a linear scan over
      liveness intervals with move and calling-convention hints.
      Pseudo-registers live across a call may only receive callee-save
      machine registers (or spill), since the convention gives no
      guarantee on caller-save registers across calls;
    - {!spill_everything}, the fallback when the validator rejects the
      linear scan's coloring: each pseudo-register gets its own [Local]
      slot, which the validator accepts by construction.

    Spilled pseudo-registers live in [Local] stack slots; operations on
    spilled values go through reserved scratch registers (r10/rsi for
    integers, x6/x7 for floats), which are excluded from allocation.
    Calls marshal arguments with a parallel-move sequence (cycles are
    broken through a reserved [Local] slot), mirroring CompCert's
    [Parmov]; a slot-to-slot move goes through r10 or x6, neither an
    argument register, so it cannot clobber an argument already
    placed. *)

open Support
open Support.Errors
open Memory.Mtypes
open Target.Machregs
open Target.Locations
open Target.Conventions
module R = Middle.Rtl
module L = Backend.Ltl
module Op = Middle.Op
module RSet = Middle.Liveness.RSet

(* Scratch registers, reserved (never allocated). *)
let int_scratch1 = R10
let int_scratch2 = SI
let float_scratch1 = X6
let float_scratch2 = X7
let scratches = [ int_scratch1; int_scratch2; float_scratch1; float_scratch2 ]

let allocatable_int = [ AX; BX; CX; DX; DI; R8; R9; R12; R13; R14; R15 ]
let allocatable_float = [ X0; X1; X2; X3; X4; X5 ]

(* The scan loop's candidate pools, fixed per (class, across-call)
   combination — built once, not re-filtered per interval. Caller-save
   first in the normal pools: callee-saves cost a save/restore. *)
let pool_int_across = List.filter is_callee_save allocatable_int
let pool_float_across = List.filter is_callee_save allocatable_float

let pool_int_normal =
  List.filter (fun m -> not (is_callee_save m)) allocatable_int
  @ pool_int_across

let pool_float_normal =
  List.filter (fun m -> not (is_callee_save m)) allocatable_float
  @ pool_float_across

(** {1 Type inference for pseudo-registers} *)

(** The type of each pseudo-register, indexed by register: the first
    definition found gives it, and a register no definition types reads
    [Tlong]. *)
let infer_types (f : R.coq_function) : typ array =
  let nregs = R.max_reg_function f + 1 in
  let types = Array.make nregs Tlong in
  let known = Array.make nregs false in
  let set r t =
    if r >= 0 && r < nregs && not known.(r) then begin
      types.(r) <- t;
      known.(r) <- true;
      true
    end
    else false
  in
  List.iter2
    (fun r t -> ignore (set r t))
    f.R.fn_params f.R.fn_sig.sig_args;
  (* Rounds until no type changes. Each round visits the nodes in
     decreasing order: where definitions disagree, the first one found
     wins, so the order fixes the type. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for n = R.max_node f downto 0 do
      match R.Code.get f.R.fn_code n with
      | Some (R.Iop (Op.Omove, [ src ], res, _)) ->
        if src >= 0 && src < nregs && known.(src) && set res types.(src) then
          changed := true
      | Some (R.Iop (op, _, res, _)) -> (
        match Op.type_of_operation op with
        | Some t -> if set res t then changed := true
        | None -> ())
      | Some (R.Iload (chunk, _, _, dst, _)) ->
        if set dst (Memory.Memdata.type_of_chunk chunk) then changed := true
      | Some (R.Icall (sg, _, _, res, _)) ->
        if set res (proj_sig_res sg) then changed := true
      | _ -> ()
    done
  done;
  types

(* The type of [r] in [types], [Tlong] beyond it. *)
let typ_in (types : typ array) r =
  if r >= 0 && r < Array.length types then types.(r) else Tlong

(** {1 Allocators} *)

(** Where a pseudo-register lives: a machine register [R m], or a spill
    slot [S (Local, i, t)]. *)
type assignment = loc

(** An allocator colors one function, given its liveness and its
    inferred typing ({!infer_types}): a location per pseudo-register,
    indexed by register ([None] for a register it leaves unassigned),
    and the number of spill slots used.
    Allocators are untrusted: [Alloc_check] validates every coloring,
    and the driver falls back to {!spill_everything} when it rejects a
    linear-scan one. *)
type allocator =
  Middle.Liveness.solution ->
  typ array ->
  R.coq_function ->
  assignment option array * int

(** The location a coloring gives [r], if it gives one. *)
let assigned (assign : assignment option array) r =
  if r >= 0 && r < Array.length assign then assign.(r) else None

(** Every pseudo-register [r] in its own slot, [Local r]. No two
    pseudo-registers share a location and none is held in a register
    across a call, so the coloring passes the validator by
    construction: machine registers carry values only within the
    expansion of one RTL instruction. *)
let spill_everything _ (types : typ array) (f : R.coq_function) :
    assignment option array * int =
  let nregs = R.max_reg_function f + 1 in
  ( Array.init nregs (fun r ->
        if r = 0 then None else Some (S (Local, r, typ_in types r))),
    nregs )

(** {2 Linear scan}

    The fast path: one pass over the numbered RTL derives a live
    {e interval} per pseudo-register — the span of instruction positions
    (ascending node order) where it is live or defined — and intervals
    are allocated in start order against a free-register pool,
    spilling on exhaustion. Interval overlap over-approximates
    interference (two registers simultaneously live at a node share that
    node's position), so a coloring that keeps overlapping intervals
    apart satisfies the validator's interference check; values live
    across a call take callee-save registers only.

    [~clobber:true] deliberately breaks it: every pseudo-register gets
    the first register of its pool regardless of overlap, a wrong
    coloring that tests use to prove the validator rejects it and the
    driver falls back to {!spill_everything}. *)
let allocate_linear_with ?(clobber = false) live (types : typ array)
    (f : R.coq_function) : assignment option array * int =
  let typ_of = typ_in types in
  let live_out = Middle.Liveness.live_out live in
  let nregs = R.max_reg_function f + 1 in
  (* Interval bounds, indexed by pseudo-register. Parameters are defined
     simultaneously at a virtual entry position -1, so they all overlap
     there and get pairwise-distinct locations. *)
  let istart = Array.make nregs max_int in
  let ifinish = Array.make nregs min_int in
  let extend r p =
    if p < istart.(r) then istart.(r) <- p;
    if p > ifinish.(r) then ifinish.(r) <- p
  in
  List.iter (fun r -> extend r (-1)) f.R.fn_params;
  let max_node = R.max_node f in
  (* Definition sites per pseudo-register and the move-source exemption
     per node, collected in the same pass: they turn the node-level
     interference probe below into a scan of one register's (usually
     single) definition site instead of the whole function body. *)
  let def_sites : int list array = Array.make nregs [] in
  let exempt_src = Array.make (max_node + 1) (-1) in
  let across_call = ref RSet.empty in
  let all_moves = ref [] in
  let pos = ref 0 in
  R.Code.iter
    (fun n i ->
      let p = !pos in
      incr pos;
      (* live-in = (live-out \ defs) ∪ uses, and defs are extended just
         below — so walking live-out plus the instruction's own uses
         covers both liveness views without a second bitset scan. *)
      RSet.iter (fun r -> extend r p) (live_out n);
      List.iter (fun r -> extend r p) (R.instr_uses i);
      (* Dead definitions still occupy their location at the def point. *)
      List.iter
        (fun r ->
          extend r p;
          def_sites.(r) <- n :: def_sites.(r))
        (R.instr_defs i);
      match i with
      | R.Icall (_, _, _, res, _) ->
        across_call := RSet.union !across_call (RSet.remove res (live_out n))
      | R.Iop (Op.Omove, [ src ], res, _) ->
        exempt_src.(n) <- src;
        if src <> res then all_moves := (res, src) :: !all_moves
      | _ -> ())
    f.R.fn_code;
  (* Calling-convention hints: bias call arguments, call results, return
     values and parameters toward the fixed register their convention
     location prescribes, so the marshalling moves around calls, entry
     and return collapse to elidable self-moves. Best-effort: the hint
     register is taken only when it is legal for the pseudo-register's
     pool (the across-call restriction still excludes caller-saves) and
     free over its whole interval. *)
  let fhint : mreg option array = Array.make nregs None in
  let suggest r m = if fhint.(r) = None then fhint.(r) <- Some m in
  let suggest_args args locs =
    List.iter2
      (fun r l -> match l with R m -> suggest r m | S _ -> ())
      args locs
  in
  R.Code.iter
    (fun _ i ->
      match i with
      | R.Icall (sg, _, args, res, _) ->
        suggest res (loc_result sg);
        suggest_args args (loc_arguments sg)
      | R.Itailcall (sg, _, args) -> suggest_args args (loc_arguments sg)
      | R.Ireturn (Some r) -> suggest r (loc_result f.R.fn_sig)
      | _ -> ())
    f.R.fn_code;
  suggest_args f.R.fn_params (loc_arguments f.R.fn_sig);
  (* Move-coalescing hints: for every move [res := src], each side is
     hinted toward the other's register, whichever is allocated first.
     Whether the shared register is actually taken is decided at
     allocation time by {!interferes} below. *)
  let hint = Array.make nregs (-1) in
  let rhint = Array.make nregs (-1) in
  List.iter
    (fun (res, src) ->
      hint.(res) <- src;
      rhint.(src) <- res)
    !all_moves;
  (* [a] and [b] interfere iff some definition of one happens while the
     other is live-out (the validator's rule, including its move
     exemption: a move's destination does not interfere with its
     source), or both are parameters (defined simultaneously at entry).
     This is node-level truth, strictly finer than interval overlap: a
     move destination whose interval merely touches or even encloses the
     source's can still share its register. *)
  let interferes a b =
    (List.mem a f.R.fn_params && List.mem b f.R.fn_params)
    || List.exists
         (fun n -> b <> exempt_src.(n) && RSet.mem b (live_out n))
         def_sites.(a)
    || List.exists
         (fun n -> a <> exempt_src.(n) && RSet.mem a (live_out n))
         def_sites.(b)
  in
  let intervals = ref [] in
  for r = nregs - 1 downto 0 do
    if istart.(r) <= ifinish.(r) then intervals := r :: !intervals
  done;
  let intervals =
    List.stable_sort
      (fun a b ->
        let c = compare istart.(a) istart.(b) in
        if c <> 0 then c else compare ifinish.(a) ifinish.(b))
      !intervals
  in
  (* The coloring under construction, indexed by pseudo-register. *)
  let assign : assignment option array = Array.make nregs None in
  let next_slot = ref 0 in
  (* Active intervals holding a machine register, sorted by increasing
     finish; [reg_used] mirrors their occupancy for O(pool) probes. Each
     entry remembers its pseudo-register so a coalescing hint can
     recognize (and take over from) the move source it targets. *)
  let active : (int * int * mreg) list ref = ref [] in
  let reg_used = Array.make num_mregs false in
  (* Coalesced intervals can co-hold one register, so releasing it on
     expiry must wait until no remaining active interval holds it. *)
  let expire p =
    let rec go = function
      | (fin, _, m) :: rest when fin < p ->
        let rest = go rest in
        if not (List.exists (fun (_, _, m') -> mreg_index m' = mreg_index m) rest)
        then reg_used.(mreg_index m) <- false;
        rest
      | l -> l
    in
    active := go !active
  in
  let rec insert ((fe, _, _) as entry) = function
    | [] -> [ entry ]
    | (fin, _, _) :: _ as l when fe <= fin -> entry :: l
    | e :: rest -> e :: insert entry rest
  in
  (* A hint register is usable when every active interval currently
     holding it is provably non-interfering with [r] — in particular
     when it is plain free. [r] then joins as a co-holder: the register
     stays occupied from every other interval's point of view, while the
     coalesced intervals share it and the moves between them lower to
     deletable self-moves. *)
  let co_holdable r m =
    List.for_all
      (fun (_, v, m') -> mreg_index m' <> mreg_index m || not (interferes v r))
      !active
  in
  let try_hint r pool =
    let usable m = List.memq m pool && co_holdable r m in
    let from_vreg s =
      if s < 0 then None
      else
        match assign.(s) with
        | Some (R m) when usable m -> Some m
        | _ -> None
    in
    match from_vreg hint.(r) with
    | Some m -> Some m
    | None -> (
      match fhint.(r) with
      | Some m when usable m -> Some m
      | _ -> from_vreg rhint.(r))
  in
  List.iter
    (fun r ->
      expire istart.(r);
      let t = typ_of r in
      let pool =
        match (is_float_typ t, RSet.mem r !across_call) with
        | true, true -> pool_float_across
        | true, false -> pool_float_normal
        | false, true -> pool_int_across
        | false, false -> pool_int_normal
      in
      let candidate =
        if clobber then List.nth_opt pool 0
        else
          match try_hint r pool with
          | Some m -> Some m
          | None -> List.find_opt (fun m -> not reg_used.(mreg_index m)) pool
      in
      let a =
        match candidate with
        | Some m ->
          if not clobber then begin
            reg_used.(mreg_index m) <- true;
            active := insert (ifinish.(r), r, m) !active
          end;
          R m
        | None ->
          let i = !next_slot in
          incr next_slot;
          S (Local, i, t)
      in
      assign.(r) <- Some a)
    intervals;
  (assign, !next_slot)

let allocate live (f : R.coq_function) : assignment option array * int =
  allocate_linear_with live (infer_types f) f

(** {1 Parallel moves}

    Sources and destinations are locations; all destinations are
    distinct. Cycles are broken through a reserved [Local] slot. *)

(* Each move carries the machine type of the datum it transfers, so that
   the parking slot used for cycle breaking normalizes correctly. *)
let compile_parallel_move ~(temp_slot : int) (moves : (loc * loc * typ) list) :
    (loc * loc) list =
  let n = List.length moves in
  let src = Array.of_list (List.map (fun (s, _, _) -> s) moves) in
  let dst = Array.of_list (List.map (fun (_, d, _) -> d) moves) in
  let tys = Array.of_list (List.map (fun (_, _, t) -> t) moves) in
  let status = Array.make n `To_move in
  let out = ref [] in
  let emit s d = if not (loc_equal s d) then out := (s, d) :: !out in
  let rec move_one i =
    status.(i) <- `Being_moved;
    for j = 0 to n - 1 do
      if j <> i && locs_overlap src.(j) dst.(i) then begin
        match status.(j) with
        | `To_move -> move_one j
        | `Being_moved ->
          (* Cycle: park j's source in the temp slot, typed by the datum. *)
          let tmp = S (Local, temp_slot, tys.(j)) in
          emit src.(j) tmp;
          src.(j) <- tmp
        | `Moved -> ()
      end
    done;
    emit src.(i) dst.(i);
    status.(i) <- `Moved
  in
  for i = 0 to n - 1 do
    if status.(i) = `To_move then
      if loc_equal src.(i) dst.(i) then status.(i) <- `Moved else move_one i
  done;
  List.rev !out

(** {1 Code generation} *)

type gen_state = {
  code : L.instruction L.Code.builder;
  mutable next_node : int;
}

(* Emit a chain of instructions ending at [cont]; returns the entry. Each
   element is a function from successor node to instruction. *)
let emit_chain (st : gen_state) (builders : (L.node -> L.instruction) list)
    (cont : L.node) : L.node =
  List.fold_right
    (fun mk cont ->
      let n = st.next_node in
      st.next_node <- n + 1;
      L.Code.set st.code n (mk cont);
      n)
    builders cont

let scratch_for t which =
  if is_float_typ t then (if which = 0 then float_scratch1 else float_scratch2)
  else if which = 0 then int_scratch1
  else int_scratch2

(* Instructions realizing a single move between locations. A move whose
   endpoints coincide — the normal outcome of coalescing — realizes as
   nothing at all. *)
let move_loc (src : loc) (dst : loc) : (L.node -> L.instruction) list =
  if loc_equal src dst then []
  else
  match (src, dst) with
  | R r1, R r2 -> [ (fun n -> L.Lop (Op.Omove, [ r1 ], r2, n)) ]
  | R r1, S (k, o, t) -> [ (fun n -> L.Lsetstack (r1, k, o, t, n)) ]
  | S (k, o, t), R r2 -> [ (fun n -> L.Lgetstack (k, o, t, r2, n)) ]
  | S (k1, o1, t1), S (k2, o2, t2) ->
    let sc = scratch_for t1 0 in
    [
      (fun n -> L.Lgetstack (k1, o1, t1, sc, n));
      (fun n -> L.Lsetstack (sc, k2, o2, t2, n));
    ]

let moves_code moves = List.concat_map (fun (s, d) -> move_loc s d) moves

(* Read the pseudo-registers [args] into machine registers, spilled ones
   through scratches. Returns (prefix builders, machine registers). *)
let read_args (assign : assignment option array) (typ_of : R.reg -> typ)
    (args : R.reg list) : (L.node -> L.instruction) list * mreg list =
  let next_scratch = ref 0 in
  let prefix = ref [] in
  let regs =
    List.map
      (fun r ->
        match assigned assign r with
        | Some (R m) -> m
        | Some (S (k, i, t)) ->
          let sc = scratch_for t !next_scratch in
          incr next_scratch;
          prefix := !prefix @ [ (fun n -> L.Lgetstack (k, i, t, sc, n)) ];
          sc
        | None ->
          (* Never-assigned register: undefined value; read a scratch. *)
          scratch_for (typ_of r) 0)
      args
  in
  (!prefix, regs)

(* Write machine register result into the location of [res]. Returns the
   destination machine register for the op and suffix builders. *)
let write_res (assign : assignment option array) (typ_of : R.reg -> typ)
    (res : R.reg) : mreg * (L.node -> L.instruction) list =
  match assigned assign res with
  | Some (R m) -> (m, [])
  | Some (S (k, i, t)) ->
    let sc = scratch_for t 0 in
    (sc, [ (fun n -> L.Lsetstack (sc, k, i, t, n)) ])
  | None -> (scratch_for (typ_of res) 0, [])

let loc_of (assign : assignment option array) (typ_of : R.reg -> typ) (r : R.reg) :
    loc =
  match assigned assign r with
  | Some l -> l
  | None -> R (scratch_for (typ_of r) 0)

(* Translate one function; also returns the coloring used, so the
   validator can check the allocator's actual (untrusted) output instead
   of re-deriving it. *)
let transf_function_with_assignment ~(allocator : allocator) live
    (f : R.coq_function) : (L.coq_function * assignment option array) Errors.t =
  let types = infer_types f in
  let assign, nslots = allocator live types f in
  let typ_of = typ_in types in
  let temp_slot = nslots in
  let callee_slot = nslots + 1 in
  let st = { code = L.Code.builder (); next_node = R.max_node f + 1 } in
  let transl_node (i : R.instruction) : L.instruction =
    (* The first instruction of the expansion occupies node [n]; the rest
       chain through fresh nodes. We build the tail first. *)
    let with_chain (builders : (L.node -> L.instruction) list) (cont : L.node) :
        L.instruction =
      match builders with
      | [] -> L.Lnop cont
      | first :: rest -> first (emit_chain st rest cont)
    in
    match i with
    | R.Inop n' -> L.Lnop n'
    | R.Iop (Op.Omove, [ src ], res, n') ->
      (* When coalescing gave both sides the same location, [move_loc]
         returns no builders and the move lowers to a bare [Lnop], which
         the validator accepts (the copy equation is trivially
         satisfied) and linearization elides on fall-through. *)
      let s = loc_of assign typ_of src and d = loc_of assign typ_of res in
      with_chain (move_loc s d) n'
    | R.Iop (op, args, res, n') ->
      let prefix, margs = read_args assign typ_of args in
      let mres, suffix = write_res assign typ_of res in
      with_chain
        (prefix @ [ (fun n -> L.Lop (op, margs, mres, n)) ] @ suffix)
        n'
    | R.Iload (chunk, addr, args, dst, n') ->
      let prefix, margs = read_args assign typ_of args in
      let mres, suffix = write_res assign typ_of dst in
      with_chain
        (prefix @ [ (fun n -> L.Lload (chunk, addr, margs, mres, n)) ] @ suffix)
        n'
    | R.Istore (chunk, addr, args, src, n') -> (
      let prefix, margs = read_args assign typ_of args in
      match assigned assign src with
      | Some (R msrc) ->
        with_chain
          (prefix @ [ (fun n -> L.Lstore (chunk, addr, margs, msrc, n)) ])
          n'
      | _ ->
        (* Spilled source: collapse the address into the first integer
           scratch, freeing the second for the stored value. *)
        let t = typ_of src in
        let ssrc = if is_float_typ t then float_scratch1 else int_scratch2 in
        let load_src n =
          match assigned assign src with
          | Some (S (k, i, st')) -> L.Lgetstack (k, i, st', ssrc, n)
          | _ -> L.Lop (Op.Omove, [ ssrc ], ssrc, n)
        in
        with_chain
          (prefix
          @ [
              (fun n -> L.Lop (Op.Olea addr, margs, int_scratch1, n));
              load_src;
              (fun n ->
                L.Lstore (chunk, Op.Aindexed 0, [ int_scratch1 ], ssrc, n));
            ])
          n')
    | R.Icall (sg, ros, args, res, n') ->
      let arg_locs = loc_arguments sg in
      let moves =
        List.map2
          (fun r l -> (loc_of assign typ_of r, l, typ_of r))
          args arg_locs
      in
      let par = compile_parallel_move ~temp_slot moves in
      let ros', ros_park, ros_fetch =
        match ros with
        | R.Rsymbol id -> (L.Rsymbol id, [], [])
        | R.Rreg r ->
          (* Park the function value in a dedicated Local slot before the
             argument moves (which may clobber both its register and the
             scratches), and fetch it just before the call. *)
          ( L.Rreg int_scratch1,
            move_loc (loc_of assign typ_of r) (S (Local, callee_slot, Tlong)),
            move_loc (S (Local, callee_slot, Tlong)) (R int_scratch1) )
      in
      let res_loc = loc_of assign typ_of res in
      let result_moves = move_loc (R (loc_result sg)) res_loc in
      with_chain
        (ros_park @ moves_code par @ ros_fetch
        @ [ (fun n -> L.Lcall (sg, ros', n)) ]
        @ result_moves)
        n'
    | R.Itailcall (sg, ros, args) ->
      let arg_locs = loc_arguments sg in
      let moves =
        List.map2
          (fun r l -> (loc_of assign typ_of r, l, typ_of r))
          args arg_locs
      in
      let par = compile_parallel_move ~temp_slot moves in
      let ros', ros_prefix =
        match ros with
        | R.Rsymbol id -> (L.Rsymbol id, [])
        | R.Rreg r ->
          ( L.Rreg int_scratch1,
            move_loc (loc_of assign typ_of r) (R int_scratch1) )
      in
      (match ros_prefix @ moves_code par with
      | [] -> L.Ltailcall (sg, ros')
      | first :: rest ->
        first (emit_chain st rest (emit_chain st [ (fun _ -> L.Ltailcall (sg, ros')) ] 0)))
    | R.Icond (cond, args, n1, n2) -> (
      let prefix, margs = read_args assign typ_of args in
      match prefix with
      | [] -> L.Lcond (cond, margs, n1, n2)
      | first :: rest ->
        first
          (emit_chain st rest
             (emit_chain st [ (fun _ -> L.Lcond (cond, margs, n1, n2)) ] 0)))
    | R.Ireturn optr -> (
      let moves =
        match optr with
        | Some r -> move_loc (loc_of assign typ_of r) (R (loc_result f.R.fn_sig))
        | None -> []
      in
      match moves with
      | [] -> L.Lreturn
      | first :: rest -> first (emit_chain st rest (emit_chain st [ (fun _ -> L.Lreturn) ] 0)))
  in
  (* Translate each RTL node; expansions allocate fresh LTL nodes. *)
  R.Code.iter (fun n i -> L.Code.set st.code n (transl_node i)) f.R.fn_code;
  (* Entry: marshal incoming arguments from calling-convention locations
     (registers and Incoming slots) to the parameters' locations. *)
  let entry_moves =
    let arg_locs = loc_arguments f.R.fn_sig in
    let incoming =
      List.map
        (function S (Outgoing, o, t) -> S (Incoming, o, t) | l -> l)
        arg_locs
    in
    List.map2
      (fun l p -> (l, loc_of assign typ_of p, typ_of p))
      incoming f.R.fn_params
  in
  let par = compile_parallel_move ~temp_slot entry_moves in
  let entry = emit_chain st (moves_code par) f.R.fn_entrypoint in
  ok
    ( {
        L.fn_sig = f.R.fn_sig;
        fn_stacksize = f.R.fn_stacksize;
        fn_code = L.Code.freeze st.code;
        fn_entrypoint = entry;
      },
      assign )

(** Translate a whole program, returning alongside the LTL the coloring
    the allocator chose for each internal function — the untrusted input
    [Alloc_check.validate_program] validates. [liveness] holds every
    internal function's solved liveness
    ({!Middle.Liveness.solve_program}). *)
let transf_program_with_assignments ~(allocator : allocator) ~liveness
    (p : R.program) :
    (L.program * (Support.Ident.t * assignment option array) list) Errors.t =
  let open Errors in
  let* defs =
    map_list
      (fun (id, d) ->
        match d with
        | Iface.Ast.Gfun (Iface.Ast.Internal f) ->
          let* f', assign =
            transf_function_with_assignment ~allocator (List.assoc id liveness) f
          in
          ok ((id, Iface.Ast.Gfun (Iface.Ast.Internal f')), Some (id, assign))
        | Iface.Ast.Gfun (Iface.Ast.External ef) ->
          ok ((id, Iface.Ast.Gfun (Iface.Ast.External ef)), None)
        | Iface.Ast.Gvar gv -> ok ((id, Iface.Ast.Gvar gv), None))
      p.Iface.Ast.prog_defs
  in
  ok
    ( { p with Iface.Ast.prog_defs = List.map fst defs },
      List.filter_map snd defs )
