(** Translation validation for register allocation.

    CompCert validates its (untrusted, heuristic) register allocator a
    posteriori; this module plays the same role for [Allocation]. Given
    the RTL function, the allocator's assignment and the produced LTL
    code, two independent checks are performed:

    1. {b Assignment well-formedness} ([check_assignment]): liveness and
       interference are {e recomputed here} and the coloring is checked
       against them — interfering pseudo-registers get non-overlapping
       locations, values live across calls avoid caller-save registers,
       reserved scratch registers are never assigned.

    2. {b Code correspondence} ([check_code]): for every RTL instruction,
       the corresponding LTL expansion (the chain of fresh nodes up to
       the next RTL boundary node) is executed {e symbolically} over an
       abstract map from locations to value tags. A tag [Tentry r] means
       "the value pseudo-register [r] had at instruction entry"; [Tdef]
       is the value defined by this instruction. The expansion must
       apply the RTL operation to the right tags, route the defined value
       into the result's location, place [Tentry]-tagged arguments into
       the calling convention's locations at calls, invalidate
       caller-save locations across calls, and leave every live-out
       pseudo-register's current value in its assigned location at each
       boundary.

    [validate] runs both; a buggy allocator change is caught at compile
    time rather than at run time. *)

open Support.Errors
module Errors = Support.Errors
open Memory.Mtypes
open Target.Machregs
open Target.Locations
open Target.Conventions
module R = Middle.Rtl
module L = Backend.Ltl
module Op = Middle.Op
module RSet = Middle.Liveness.RSet

type assignment = Allocation.assignment

(** {1 Check 1: the coloring} *)

(* Early exit for the hot validation loops: the Errors monad threads a
   closure per (definition, live register) pair, which dominates the
   validator's profile on large functions; a local exception keeps the
   loops allocation-free on the success path. *)
exception Check_fail of string

let fail fmt = Format.kasprintf (fun s -> raise (Check_fail s)) fmt

let check_assignment ~(live_out : int -> RSet.t) (f : R.coq_function)
    (assign : assignment option array) : unit Errors.t =
  let loc = Allocation.assigned assign in
  try
    (* Reserved scratch registers must not be allocated. *)
    Array.iteri
      (fun r a ->
        match a with
        | Some (R m) when List.memq m Allocation.scratches ->
          fail "pseudo-register x%d assigned the scratch register %s" r
            (mreg_name m)
        | _ -> ())
      assign;
    (* Interference: at every definition point, the defined register's
       location must not overlap any live-out register's location (except
       the moved-from register of a move). *)
    R.Code.iter
      (fun n i ->
        match R.instr_defs i with
        | [] -> ()
        | defs ->
          let out = live_out n in
          (* Pseudo-registers are >= 1, so -1 never exempts anything. *)
          let exempt =
            match i with R.Iop (Op.Omove, [ src ], _, _) -> src | _ -> -1
          in
          List.iter
            (fun d ->
              match loc d with
              | None -> ()
              | Some ld ->
                RSet.iter
                  (fun r ->
                    if r <> d && r <> exempt then
                      match loc r with
                      | Some lr when locs_overlap ld lr ->
                        fail
                          "interference violated at node %d: x%d and x%d \
                           share %s"
                          n d r
                          (Format.asprintf "%a" pp_loc ld)
                      | _ -> ())
                  out)
            defs)
      f.R.fn_code;
    (* Values live across calls must not sit in caller-save registers. *)
    R.Code.iter
      (fun n i ->
        match i with
        | R.Icall (_, _, _, res, _) ->
          RSet.iter
            (fun r ->
              if r <> res then
                match loc r with
                | Some (R m) when not (is_callee_save m) ->
                  fail
                    "x%d is live across the call at node %d but assigned the \
                     caller-save register %s"
                    r n (mreg_name m)
                | _ -> ())
            (live_out n)
        | _ -> ())
      f.R.fn_code;
    ok ()
  with Check_fail e -> Error e

(** {1 Check 2: the code} *)

type tag =
  | Tentry of R.reg  (** the value [r] had at instruction entry *)
  | Tdef  (** the value defined by this instruction *)
  | Topaque

(* Constructor by constructor: the walk tests tags once per (node, live
   register) pair, where polymorphic equality would call the runtime's
   generic compare. *)
let tag_equal (t : tag) (t' : tag) =
  match (t, t') with
  | Tentry r, Tentry r' -> r = r'
  | Tdef, Tdef | Topaque, Topaque -> true
  | (Tentry _ | Tdef | Topaque), _ -> false

let rec mem_tag t = function [] -> false | t' :: l -> tag_equal t t' || mem_tag t l

(* The abstract state is a set of equations [(l, t)]: location [l] holds
   the value denoted by tag [t]. One location may satisfy several
   equations at once — this is exactly what validates move coalescing,
   where several pseudo-registers with provably equal values share a
   machine register.

   Equations are bucketed by {e storage class} — the unit of overlap: a
   machine register, or a (kind, word) slot cell (slots are one word wide
   on this target, [typ_words t = 1], so two slots overlap exactly when
   kind and word coincide).

   The store is an indexed mutable structure rather than a functional
   map. Storage classes resolve through a dense array for registers and
   a small hash table for slots into an arena of {e cells}; cells form a
   union-find whose classes are locations with provably equal values, so
   the data moves of an expansion ([Omove], [Lgetstack], [Lsetstack])
   attach the destination to the source's class in O(1) instead of
   copying equations. Writing a location rebinds its storage class to a
   fresh cell — surviving members of the old class keep reading the old
   root, which is what makes a call's caller-save kill safe. Everything
   is generation-stamped and arena-allocated, so one store serves every
   RTL node of every function of a validation: resetting it is one
   integer bump, and steady-state validation allocates only the tag
   lists themselves. *)
module AbsState = struct
  let key_of = function
    | R m -> mreg_index m
    | S (k, o, _) ->
      num_mregs
      + (3 * o)
      + (match k with Local -> 0 | Incoming -> 1 | Outgoing -> 2)

  let dummy_loc = R (List.hd all_mregs)

  let callee_save_of_index =
    let a = Array.make num_mregs false in
    List.iter (fun m -> a.(mreg_index m) <- is_callee_save m) all_mregs;
    a

  type t = {
    mutable gen : int;  (** current generation; stale entries are invisible *)
    mutable len : int;  (** live extent of the cell arena *)
    (* Cell arena (struct-of-arrays). [parent] is the union-find link;
       [label] the location whose equations the cell carries; [tags] the
       class's tags, valid at the root; [extra] rare overflow equations
       for a second overlapping location in the same storage class
       (possible only in initial states of hostile assignments). *)
    mutable parent : int array;
    mutable label : loc array;
    mutable tags : tag list array;
    mutable extra : (loc * tag) list array;
    (* Storage class -> cell: dense for registers, table for slots. *)
    reg_cell : int array;
    reg_gen : int array;
    slot_cell : (int, int) Hashtbl.t;
    mutable slot_keys : int list;  (** slot keys bound this generation *)
  }

  let create () =
    {
      gen = 0;
      len = 0;
      parent = Array.make 64 0;
      label = Array.make 64 dummy_loc;
      tags = Array.make 64 [];
      extra = Array.make 64 [];
      reg_cell = Array.make num_mregs (-1);
      reg_gen = Array.make num_mregs (-1);
      slot_cell = Hashtbl.create 32;
      slot_keys = [];
    }

  let reset a =
    a.gen <- a.gen + 1;
    a.len <- 0;
    if a.slot_keys <> [] then begin
      List.iter (Hashtbl.remove a.slot_cell) a.slot_keys;
      a.slot_keys <- []
    end

  let grow a =
    let cap = Array.length a.parent in
    let ext arr dummy =
      let n = Array.make (2 * cap) dummy in
      Array.blit arr 0 n 0 cap;
      n
    in
    a.parent <- ext a.parent 0;
    a.label <- ext a.label dummy_loc;
    a.tags <- ext a.tags [];
    a.extra <- ext a.extra []

  let new_cell a l ts =
    if a.len = Array.length a.parent then grow a;
    let i = a.len in
    a.len <- i + 1;
    a.parent.(i) <- i;
    a.label.(i) <- l;
    a.tags.(i) <- ts;
    a.extra.(i) <- [];
    i

  let rec find a i =
    let p = a.parent.(i) in
    if p = i then i
    else begin
      let r = find a p in
      a.parent.(i) <- r;
      r
    end

  let cell_of_key a k =
    if k < num_mregs then
      if a.reg_gen.(k) = a.gen then a.reg_cell.(k) else -1
    else
      match Hashtbl.find_opt a.slot_cell (k - num_mregs) with
      | Some i -> i
      | None -> -1

  let bind_key a k i =
    if k < num_mregs then begin
      a.reg_gen.(k) <- a.gen;
      a.reg_cell.(k) <- i
    end
    else begin
      let sk = k - num_mregs in
      if not (Hashtbl.mem a.slot_cell sk) then a.slot_keys <- sk :: a.slot_keys;
      Hashtbl.replace a.slot_cell sk i
    end

  let unbind_key a k =
    if k < num_mregs then begin
      a.reg_gen.(k) <- a.gen;
      a.reg_cell.(k) <- -1
    end
    else Hashtbl.remove a.slot_cell (k - num_mregs)

  let holds l tag (a : t) =
    let c = cell_of_key a (key_of l) in
    c >= 0
    && ((loc_equal a.label.(c) l && mem_tag tag a.tags.(find a c))
       || List.exists (fun (l', t') -> loc_equal l l' && tag_equal t' tag) a.extra.(c))

  let tags_of l (a : t) =
    let c = cell_of_key a (key_of l) in
    if c < 0 then []
    else
      let base = if loc_equal a.label.(c) l then a.tags.(find a c) else [] in
      match a.extra.(c) with
      | [] -> base
      | ex ->
        base
        @ List.filter_map (fun (l', t) -> if loc_equal l l' then Some t else None) ex

  (* Writing [l] invalidates every equation on an overlapping location —
     its storage class rebinds to a fresh singleton class. *)
  let set l tag (a : t) : t =
    bind_key a (key_of l) (new_cell a l [ tag ]);
    a

  (* [set] with the singleton tag list preallocated by the caller
     (interned constants — the walk writes [Tdef]/[Topaque] once per
     expansion), so the write allocates nothing. *)
  let set_tags l (ts : tag list) (a : t) : t =
    bind_key a (key_of l) (new_cell a l ts);
    a

  (* Record an equation without invalidating others (used only when
     building the initial state, whose equations hold simultaneously). *)
  let add l tag (a : t) : t =
    let k = key_of l in
    let c = cell_of_key a k in
    if c < 0 then bind_key a k (new_cell a l [ tag ])
    else if loc_equal a.label.(c) l then begin
      let r = find a c in
      a.tags.(r) <- tag :: a.tags.(r)
    end
    else a.extra.(c) <- (l, tag) :: a.extra.(c);
    a

  (* [add] with the equation's tag list preallocated (the per-function
     interned singletons): a fresh storage class — the common case when
     filling an initial state — binds the list structurally without
     consing. Collisions (hostile assignments only) fall back to the
     consing path. *)
  let add_tags l (ts : tag list) (a : t) : t =
    let k = key_of l in
    if cell_of_key a k < 0 then begin
      bind_key a k (new_cell a l ts);
      a
    end
    else List.fold_left (fun a tag -> add l tag a) a ts

  (* Copy: the destination receives every equation of the source. In the
     common case this is a union-find attach — the destination's fresh
     cell joins the source's class and shares its tags structurally. *)
  let move ~src ~dst (a : t) : t =
    let c = cell_of_key a (key_of src) in
    let kd = key_of dst in
    if c < 0 then unbind_key a kd
    else if loc_equal a.label.(c) src && a.extra.(c) = [] then begin
      let i = new_cell a dst [] in
      a.parent.(i) <- find a c;
      bind_key a kd i
    end
    else begin
      match tags_of src a with
      | [] -> unbind_key a kd
      | ts -> bind_key a kd (new_cell a dst ts)
    end;
    a

  (* A call clobbers caller-save registers and argument-passing slots.
     Unbinding the storage classes (rather than clearing cells) leaves
     surviving classes intact: a callee-save member of a killed
     register's class keeps its equations. *)
  let kill_caller_save (a : t) : t =
    for m = 0 to num_mregs - 1 do
      if a.reg_gen.(m) = a.gen && a.reg_cell.(m) >= 0 && not callee_save_of_index.(m)
      then a.reg_cell.(m) <- -1
    done;
    if a.slot_keys <> [] then
      a.slot_keys <-
        List.filter
          (fun sk ->
            Hashtbl.mem a.slot_cell sk
            &&
            (* [sk = 3*word + kind]: Local (0) survives a call, Incoming
               (1) and Outgoing (2) do not. *)
            (sk mod 3 = 0
            ||
            (Hashtbl.remove a.slot_cell sk;
             false)))
          a.slot_keys;
    a
end

(* [Tentry] tags (and their singleton lists, for the initial-state
   equations) interned per function: the walk and the boundary checks
   ask "does location [l] hold the entry value of [r]" once per (node,
   live register) pair, and a fresh [Tentry r] box each time is pure
   allocation ([holds] compares structurally, so sharing is invisible). *)
let tentry_tables (n : int) : (R.reg -> tag) * (R.reg -> tag list) =
  let tbl = Array.init n (fun r -> Tentry r) in
  let sing = Array.init n (fun r -> [ tbl.(r) ]) in
  ( (fun r -> if r >= 0 && r < n then tbl.(r) else Tentry r),
    fun r -> if r >= 0 && r < n then sing.(r) else [ Tentry r ] )

(* Interned singleton tag lists for the walk's writes. *)
let tags_def = [ Tdef ]
let tags_opaque = [ Topaque ]

(* What each live pseudo-register's value is after the instruction.
   [defs] is the precomputed [R.instr_defs instr], so per-register
   queries allocate nothing. *)
let out_tag (tent : R.reg -> tag) (instr : R.instruction) (defs : R.reg list)
    (r : R.reg) : tag =
  match instr with
  | R.Iop (Op.Omove, [ src ], dst, _) when r = dst -> tent src
  | _ -> if List.memq r defs then Tdef else tent r

(* [at]/[entering] locate the boundary for error messages — plain ints,
   so the success path allocates no context. *)
let check_boundary (tent : R.reg -> tag) (assign : assignment option array)
    (instr : R.instruction) ~(defs : R.reg list) (live : RSet.t)
    (a : AbsState.t) ~(at : int) ~(entering : int) : unit =
  RSet.iter
    (fun r ->
      match Allocation.assigned assign r with
      | None ->
        fail "after node %d, entering %d: live pseudo-register x%d has no \
              location" at entering r
      | Some l ->
        if not (AbsState.holds l (out_tag tent instr defs r) a) then
          fail "after node %d, entering %d: x%d is not in its location %a" at
            entering r pp_loc l)
    live

let args_hold (tent : R.reg -> tag) (a : AbsState.t) (margs : mreg list)
    (rargs : R.reg list) : bool =
  List.length margs = List.length rargs
  && List.for_all2 (fun m r -> AbsState.holds (R m) (tent r) a) margs rargs

(* The walk's per-function context. The immutable fields are fixed for
   the whole function; the mutable ones are rebound once per RTL node.
   One record per function keeps the mutually recursive walk's
   signatures small without allocating a closure (or re-passing ten
   arguments) per hop. *)
type walk_env = {
  w_tent : R.reg -> tag;
  w_f : R.coq_function;  (** its nodes are the expansion boundaries *)
  w_ltl : L.code;
  w_assign : assignment option array;
  w_live_in : int -> RSet.t;
  mutable w_instr : R.instruction;  (** RTL instruction being covered *)
  mutable w_defs : R.reg list;  (** its [instr_defs] *)
  mutable w_origin : int;  (** its RTL node, for error messages *)
}

let env_is_boundary env n = R.Code.mem env.w_f.R.fn_code n

(* A boundary has been reached with state [a]: every live-in register of
   the target node must sit in its location. *)
let env_boundary env (n : L.node) (a : AbsState.t) : unit =
  check_boundary env.w_tent env.w_assign env.w_instr ~defs:env.w_defs
    (env.w_live_in n) a ~at:env.w_origin ~entering:n

(* Symbolically execute the LTL chain from [n] until boundary nodes,
   checking each reached boundary in place. Failures raise {!Check_fail}
   (caught at the per-function boundary): threading a result through
   every hop of every chain would allocate a closure and an [Ok] box per
   symbolic step on the success path; checking boundaries in place
   rather than returning them spares the per-node result list too.
   [walk] processes the instruction at [n]; [walk_from] is the
   continuation for a reached successor — it stops at boundary nodes. *)
let rec walk_from (env : walk_env) (n : L.node) (a : AbsState.t)
    ~(performed : bool) ~(fuel : int) : unit =
  if env_is_boundary env n then
    if performed then env_boundary env n a
    else fail "expansion reaches node %d without performing its instruction" n
  else walk env n a ~performed ~fuel

and walk (env : walk_env) (n : L.node) (a : AbsState.t) ~(performed : bool)
    ~(fuel : int) : unit =
  if fuel = 0 then fail "expansion does not terminate"
  else
    let tent = env.w_tent in
    match L.Code.get env.w_ltl n with
    | None -> fail "missing LTL node %d" n
    | Some li -> (
      match (li, env.w_instr) with
      (* The instruction-specific step. *)
      | L.Lnop n', R.Inop _ -> walk_from env n' a ~performed:true ~fuel:(fuel - 1)
      | L.Lop (op, margs, res, n'), R.Iop (rop, rargs, _, _)
        when Op.equal_operation op rop && op <> Op.Omove && not performed ->
        if args_hold tent a margs rargs then
          walk_from env n'
            (AbsState.set_tags (R res) tags_def a)
            ~performed:true ~fuel:(fuel - 1)
        else fail "operation arguments mismatched at LTL node %d" n
      | L.Lload (chunk, addr, margs, dst, n'), R.Iload (rchunk, raddr, rargs, _, _)
        when chunk = rchunk && addr = raddr && not performed ->
        if args_hold tent a margs rargs then
          walk_from env n'
            (AbsState.set_tags (R dst) tags_def a)
            ~performed:true ~fuel:(fuel - 1)
        else fail "load arguments mismatched at LTL node %d" n
      | L.Lstore (chunk, addr, margs, src, n'), R.Istore (rchunk, raddr, rargs, rsrc, _)
        when chunk = rchunk && not performed ->
        (* Either the direct form (same addressing, args and source hold
           the RTL values) or the collapsed form (address materialized by
           a preceding [Olea], source reloaded through a scratch). *)
        let direct =
          addr = raddr
          && args_hold tent a margs rargs
          && AbsState.holds (R src) (tent rsrc) a
        in
        let collapsed =
          addr = Op.Aindexed 0 && AbsState.holds (R src) (tent rsrc) a
        in
        if direct || collapsed then
          walk_from env n' a ~performed:true ~fuel:(fuel - 1)
        else fail "store operands mismatched at LTL node %d" n
      | L.Lop (Op.Olea addr, margs, res, n'), R.Istore (_, raddr, rargs, _, _)
        when addr = raddr && not performed ->
        (* Address materialization for the collapsed store form. *)
        if args_hold tent a margs rargs then
          walk_from env n'
            (AbsState.set_tags (R res) tags_opaque a)
            ~performed ~fuel:(fuel - 1)
        else fail "lea arguments mismatched at LTL node %d" n
      | L.Lcond (cond, margs, n1, n2), R.Icond (rcond, rargs, rn1, rn2)
        when cond = rcond ->
        if not (args_hold tent a margs rargs) then
          fail "condition arguments mismatched at LTL node %d" n
        else if n1 <> rn1 || n2 <> rn2 then
          fail "condition targets changed at LTL node %d" n
        else begin
          (* Both targets are RTL boundary nodes; the state only gets
             read, so the two checks share it. *)
          env_boundary env n1 a;
          env_boundary env n2 a
        end
      | L.Lcall (sg, _, n'), R.Icall (rsg, _, rargs, _, _)
        when signature_equal sg rsg && not performed ->
        let ok_args =
          List.length (loc_arguments sg) = List.length rargs
          && List.for_all2
               (fun l r -> AbsState.holds l (tent r) a)
               (loc_arguments sg) rargs
        in
        if not ok_args then fail "call arguments misplaced at LTL node %d" n
        else
          let a = AbsState.kill_caller_save a in
          let a = AbsState.set_tags (R (loc_result sg)) tags_def a in
          walk_from env n' a ~performed:true ~fuel:(fuel - 1)
      | L.Ltailcall (sg, _), R.Itailcall (rsg, _, rargs)
        when signature_equal sg rsg ->
        let ok_args =
          List.length (loc_arguments sg) = List.length rargs
          && List.for_all2
               (fun l r -> AbsState.holds l (tent r) a)
               (loc_arguments sg) rargs
        in
        if not ok_args then fail "tailcall arguments misplaced at node %d" n
      | L.Lreturn, R.Ireturn ropt -> (
        match ropt with
        | None -> ()
        | Some r ->
          if AbsState.holds (R (loc_result env.w_f.R.fn_sig)) (tent r) a then ()
          else fail "return value not in the result register")
      (* Generic data movement within the expansion. *)
      | L.Lnop n', _ -> walk_from env n' a ~performed ~fuel:(fuel - 1)
      | L.Lop (Op.Omove, [ src ], dst, n'), _ ->
        walk_from env n'
          (AbsState.move ~src:(R src) ~dst:(R dst) a)
          ~performed ~fuel:(fuel - 1)
      | L.Lgetstack (k, o, t, dst, n'), _ ->
        walk_from env n'
          (AbsState.move ~src:(S (k, o, t)) ~dst:(R dst) a)
          ~performed ~fuel:(fuel - 1)
      | L.Lsetstack (src, k, o, t, n'), _ ->
        walk_from env n'
          (AbsState.move ~src:(R src) ~dst:(S (k, o, t)) a)
          ~performed ~fuel:(fuel - 1)
      | _ -> fail "unexpected LTL instruction at node %d" n)

(* Initial abstract state at an RTL node: every live-in register's entry
   value sits in its assigned location. Resets and refills the
   validation's store [a] — the previous node's state becomes garbage by
   generation bump, not by traversal. [tsing] is the interned singleton
   table, so a fresh equation binds without consing. *)
let init_state (a : AbsState.t) (tsing : R.reg -> tag list)
    (assign : assignment option array) (live_in : RSet.t) : AbsState.t =
  AbsState.reset a;
  RSet.iter
    (fun r ->
      match Allocation.assigned assign r with
      | Some l -> ignore (AbsState.add_tags l (tsing r) a)
      | None -> ())
    live_in;
  a

(* A move instruction "performs" by routing: special-case it since its
   expansion contains no distinguished operation. *)
let is_move = function R.Iop (Op.Omove, [ _ ], _, _) -> true | _ -> false

let check_code (store : AbsState.t) ~(live_in : int -> RSet.t)
    (f : R.coq_function) (assign : assignment option array)
    (ltl : L.coq_function) : unit Errors.t =
  let tent, tsing = tentry_tables (Array.length assign) in
  let env =
    {
      w_tent = tent;
      w_f = f;
      w_ltl = ltl.L.fn_code;
      w_assign = assign;
      w_live_in = live_in;
      w_instr = R.Ireturn None;
      w_defs = [];
      w_origin = -1;
    }
  in
  try
    R.Code.iter
      (fun n instr ->
        env.w_instr <- instr;
        env.w_defs <- R.instr_defs instr;
        env.w_origin <- n;
        let a0 = init_state store tsing assign (live_in n) in
        walk env n a0 ~performed:(is_move instr) ~fuel:64)
      f.R.fn_code;
    ok ()
  with Check_fail e -> Error e

(** Run both validation passes on one function, given its solved
    liveness and the validation's store. *)
let validate store live (f : R.coq_function) (assign : assignment option array)
    (ltl : L.coq_function) : unit Errors.t =
  let* () =
    check_assignment ~live_out:(Middle.Liveness.live_out live) f assign
  in
  check_code store ~live_in:(Middle.Liveness.live_in live) f assign ltl

(** Validate a whole program against [Allocation]. The allocator's own
    (untrusted) colorings are taken from [assignments] when provided —
    the CompCert architecture, where validation consumes the allocator's
    output rather than re-deriving it; both checks treat the assignment
    as hostile. Without [assignments] the deterministic coloring is
    recomputed, for callers that only hold the two programs. [liveness]
    is every internal function's solved liveness
    ({!Middle.Liveness.solve_program}), the one the allocator read; one
    abstract store serves the whole validation. *)
let validate_program ?(assignments = []) ~liveness (rtl : R.program)
    (ltl : L.program) : unit Errors.t =
  let store = AbsState.create () in
  fold_list
    (fun () (id, d) ->
      match d with
      | Iface.Ast.Gfun (Iface.Ast.Internal rf) -> (
        match Iface.Ast.find_def ltl id with
        | Some (Iface.Ast.Gfun (Iface.Ast.Internal lf)) ->
          let live = List.assoc id liveness in
          let assign =
            match List.assoc_opt id assignments with
            | Some assign -> assign
            | None -> fst (Allocation.allocate live rf)
          in
          (match validate store live rf assign lf with
          | Ok () -> ok ()
          | Error e -> error "%s: %s" (Support.Ident.name id) e)
        | _ -> error "%s: missing from the LTL program" (Support.Ident.name id))
      | _ -> ok ())
    () rtl.Iface.Ast.prog_defs
