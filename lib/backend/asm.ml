(** Asm: the target assembly language, over the full architectural
    register file (CompCert's [Asm], link-register style).

    The program counter holds code pointers [Vptr (fb, pos)] where [fb]
    is the block of a function symbol and [pos] an instruction index.
    [Pcall] sets the return-address register; function prologues
    ([Pallocframe]) allocate the frame and spill the back link and RA;
    epilogues ([Pfreeframe]) restore them. Asm uses the interface [A]:
    queries and answers are a register file plus memory (paper §3.2 —
    "the semantics of assembly is formulated exclusively in terms of the
    language interface A", Appendix A.6).

    Following CompCertO, an activation is complete when control returns
    to the address that the environment installed in [RA] at entry. *)

open Support
open Memory
open Memory.Values
open Memory.Mtypes
open Memory.Memdata
open Middle
open Iface
open Iface.Li

type label = int

type ros = Rreg of preg | Rsymbol of Ident.t

type instruction =
  | Pallocframe of int * int * int  (** size, ofs_link, ofs_ra *)
  | Pfreeframe of int * int * int  (** size, ofs_link, ofs_ra *)
  | Pop of Op.operation * preg list * preg
  | Pload of chunk * Op.addressing * preg list * preg
  | Pstore of chunk * Op.addressing * preg list * preg
  | Plabel of label
  | Pjmp of label
  | Pjcc of Op.condition * preg list * label
  | Pcall of ros
  | Pjmp_tail of ros  (** tail jump to another function *)
  | Pret

type coq_function = { fn_sig : signature; fn_code : instruction array }

type program = (coq_function, unit) Ast.program

let internal_sig f = f.fn_sig

(** Syntactic linking of Asm programs: the [+] operator of Theorem 3.5. *)
let link p1 p2 = Ast.link ~internal_sig p1 p2

let find_label (lbl : label) (code : instruction array) : int option =
  let rec go i =
    if i >= Array.length code then None
    else match code.(i) with Plabel l when l = lbl -> Some (i + 1) | _ -> go (i + 1)
  in
  go 0

(** {1 Semantics} *)

(** An Asm state: the register file, the memory, and [init_ra], the
    return address of the query the activation was entered with (the
    activation is final when the PC reaches it). [m] is mutable for the
    threaded dispatcher only, whose supersteps write the activation's
    one state record in place (see {!exec}); the naive reference builds
    a new record at every step. *)
type state = { rs : Pregfile.t; mutable m : Mem.t; init_ra : value }

type genv = (coq_function, unit) Genv.t

let genv_view (ge : genv) : Op.genv_view =
  { Op.find_symbol = (fun id -> Genv.find_symbol ge id) }

let ros_address (ge : genv) ros (rs : Pregfile.t) =
  match ros with
  | Rreg r -> Some (Pregfile.get r rs)
  | Rsymbol id -> (
    match Genv.find_symbol ge id with Some b -> Some (Vptr (b, 0)) | None -> None)

let chunk_of_typ = function
  | Tint -> Mint32
  | Tlong -> Mint64
  | Tfloat -> Mfloat64
  | Tsingle -> Mfloat32
  | Tany64 -> Many64

(* One instruction. [fb] is the current function's block, [pos] the index
   of the instruction being executed. *)
let exec_instr (ge : genv) (f : coq_function) (fb : block) (pos : int)
    (i : instruction) (rs : Pregfile.t) (m : Mem.t) : (Pregfile.t * Mem.t) option =
  let next rs = Some (Pregfile.set PC (Vptr (fb, pos + 1)) rs, m) in
  let next_m rs m = Some (Pregfile.set PC (Vptr (fb, pos + 1)) rs, m) in
  let goto lbl rs =
    match find_label lbl f.fn_code with
    | Some pos' -> Some (Pregfile.set PC (Vptr (fb, pos')) rs, m)
    | None -> None
  in
  match i with
  | Pallocframe (sz, ofs_link, ofs_ra) -> (
    let m1, b = Mem.alloc m 0 sz in
    let sp' = Vptr (b, 0) in
    match Mem.store Mint64 m1 b ofs_link (Pregfile.get SP rs) with
    | None -> None
    | Some m2 -> (
      match Mem.store Mint64 m2 b ofs_ra (Pregfile.get RA rs) with
      | None -> None
      | Some m3 -> next_m (Pregfile.set SP sp' rs) m3))
  | Pfreeframe (sz, ofs_link, ofs_ra) -> (
    match Pregfile.get SP rs with
    | Vptr (b, 0) -> (
      match (Mem.load Mint64 m b ofs_link, Mem.load Mint64 m b ofs_ra) with
      | Some link, Some ra -> (
        match Mem.free m b 0 sz with
        | Some m' ->
          next_m (Pregfile.set SP link (Pregfile.set RA ra rs)) m'
        | None -> None)
      | _ -> None)
    | _ -> None)
  | Pop (op, args, res) -> (
    let vl = List.map (fun r -> Pregfile.get r rs) args in
    match Op.eval_operation (genv_view ge) (Pregfile.get SP rs) op vl m with
    | Some v -> next (Pregfile.set res v rs)
    | None -> None)
  | Pload (chunk, addr, args, dst) -> (
    let vl = List.map (fun r -> Pregfile.get r rs) args in
    match Op.eval_addressing (genv_view ge) (Pregfile.get SP rs) addr vl with
    | Some va -> (
      match Mem.loadv chunk m va with
      | Some v -> next (Pregfile.set dst v rs)
      | None -> None)
    | None -> None)
  | Pstore (chunk, addr, args, src) -> (
    let vl = List.map (fun r -> Pregfile.get r rs) args in
    match Op.eval_addressing (genv_view ge) (Pregfile.get SP rs) addr vl with
    | Some va -> (
      match Mem.storev chunk m va (Pregfile.get src rs) with
      | Some m' -> next_m rs m'
      | None -> None)
    | None -> None)
  | Plabel _ -> next rs
  | Pjmp lbl -> goto lbl rs
  | Pjcc (cond, args, lbl) -> (
    let vl = List.map (fun r -> Pregfile.get r rs) args in
    match Op.eval_condition cond vl m with
    | Some true -> goto lbl rs
    | Some false -> next rs
    | None -> None)
  | Pcall ros -> (
    match ros_address ge ros rs with
    | Some vf ->
      let rs = Pregfile.set RA (Vptr (fb, pos + 1)) rs in
      Some (Pregfile.set PC vf rs, m)
    | None -> None)
  | Pjmp_tail ros -> (
    match ros_address ge ros rs with
    | Some vf -> Some (Pregfile.set PC vf rs, m)
    | None -> None)
  | Pret -> Some (Pregfile.set PC (Pregfile.get RA rs) rs, m)

(** The naive dispatcher: one [Genv] lookup plus one instruction match
    per step, and a new state record. Kept as the executable reference
    the direct-threaded dispatcher below is tested against in
    lockstep. *)
let step (ge : genv) (s : state) : (Core.Events.trace * state) list =
  match Pregfile.get PC s.rs with
  | Vptr (fb, pos) -> (
    match Genv.find_funct_ptr ge fb with
    | Some (Ast.Internal f) when pos >= 0 && pos < Array.length f.fn_code -> (
      match exec_instr ge f fb pos f.fn_code.(pos) s.rs s.m with
      | Some (rs', m') -> [ (Core.Events.e0, { s with rs = rs'; m = m' }) ]
      | None -> [])
    | _ -> [])
  | _ -> []

(** {2 Pre-decoded, direct-threaded dispatch}

    [step] re-matches [f.fn_code.(pos)], re-resolves the function block
    in the global environment, re-scans for labels and re-allocates the
    successor PC value on {e every} step. The fast path decodes each
    function once into an array of closures: everything that does not
    depend on the running state is resolved at decode time, so executing
    an instruction is one array index plus one one-argument closure call
    that builds no argument list, closure, option or intermediate
    address. Resolved at decode time are operand register indices,
    label targets, the function's PC values, and:
    - symbol addresses ([Oaddrsymbol], [Aglobal], direct calls), which
      become constants; an unknown symbol decodes to a closure that is
      stuck, as [exec_instr] is;
    - addressing modes: a load or store reads its block and offset
      straight from the registers into [Mem.load] or [Mem.store], and
      only [Olea] builds the address as a value;
    - operators and conditions, resolved by arity ({!Op.arity},
      {!Op.test}) to the [Values] function that [eval_operation] and
      [eval_condition] apply, with an immediate as its constant second
      operand. The decoder has one arm per arity, not per operator, so
      covering another operator takes no new arm, and which [Values]
      function an operator applies is written once, in [Op]. The
      [asmdecode] suite checks every decoded shape against
      [exec_instr].
    Decoded functions are memoized in a per-[semantics] decode cache
    keyed by function block (the shape the second-backend roadmap item
    needs: one cache per backend signature); the global hit/miss
    counters feed the [asm.decode_cache.*] bench gauges.

    Inside a superstep the PC is an int {e position}, not a register
    write: a closure returns the position of its successor in the same
    function — [pos + 1] on fallthrough, a jump or branch target
    resolved at decode time, or the target of a call, tail call or
    return that stays in this function's code — or {!left} when control
    leaves the function (the closure wrote the PC itself), or {!stuck}
    having written nothing. The superstep loop writes the PC register
    once, when the superstep ends, from the function's table of
    precomputed [Vptr (fb, p)] values.

    The threaded core executes over a {e flat mutable register file}
    and a memory the run owns ({!Mem.thaw}), in the activation's one
    state record: a closure writes the record's register array in
    place, and a store or frame operation replaces the record's memory
    only when the memory model returns a different one — it returns
    the same memory when it only stored into chunks the run already
    owns — so no step builds a state. Two invariants make this safe
    under the LTS discipline:

    - {e no write before fallibility is resolved}: a closure performs no
      register or memory write until every way it can get stuck has
      been ruled out, so a stuck instruction leaves the state
      bit-identical and the PC the loop writes at exit is that
      instruction's own: the run loop's [at_external]/[final] probes
      see the pre-instruction state, and the next [step] fails on it
      again;
    - {e copy-on-observe}: [at_external] and [final] hand out
      {!Pregfile.copy} snapshots and {!Mem.freeze}d memories, and [init]
      and [after_external] copy and thaw what they receive, so whoever
      keeps a query or reply (the run loop, an oracle, layering, the
      co-execution harness, an [⊕] hook) never sees a later mutation.
      The one exception is the handover ({!Core.Smallstep.handover}): at
      an [⊕] push or pop between two threaded activations, the live
      array and the owned memory go to the next activation as is, and
      [init] or [after_external] adopts a payload whose memory is owned
      without a copy or a thaw. The activation that hands them over is
      suspended or finished, and never reads them again. *)

(** A decoded instruction: mutates the state's register file in place,
    replaces its memory when that changes, and returns the position of
    its successor in the same function, {!left} or {!stuck}. *)
type exec = state -> int

(** The instruction wrote the PC: control left the function's code. *)
let left = -1

(** The instruction cannot execute, and wrote nothing. *)
let stuck = -2

(* A decoded function: a closure per instruction, and the PC value of
   every position, [pcs.(p) = Vptr (fb, p)] for [0 <= p <= len], the
   end of the code included. *)
type decoded = { code : exec array; pcs : value array }

let ipc = preg_index PC
let isp = preg_index SP
let ira = preg_index RA

(* Install the successor memory of a store or frame operation. A store
   into a chunk the run owns returns the same memory, and then nothing
   is written. *)
let set_mem st m' = if m' != st.m then st.m <- m'

(* A control transfer to the code value [v] from function [fb] of
   [len] instructions: its position when [v] is code of [fb], else
   the PC is written and the run leaves. *)
let transfer fb len (rs : Pregfile.t) v =
  match v with
  | Vptr (b, p) when b = fb && p >= 0 && p < len -> p
  | _ ->
    rs.(ipc) <- v;
    left

(* A memory access: a load into a register or a store from one. *)
type access = Load of chunk * int | Store of chunk * int

(* Perform [acc] at offset [o] of block [b], then continue at [next]. *)
let access acc next st b o =
  match acc with
  | Load (chunk, idst) -> (
    match Mem.load chunk st.m b o with
    | Some v ->
      st.rs.(idst) <- v;
      next
    | None -> stuck)
  | Store (chunk, isrc) -> (
    match Mem.store chunk st.m b o st.rs.(isrc) with
    | Some m' ->
      set_mem st m';
      next
    | None -> stuck)

(* [locate gv addr args acc next] performs [acc] at the block and offset
   [addr] designates on the registers [args], or sticks where
   [Op.eval_addressing] followed by [Mem.loadv] or [Mem.storev] would:
   those need a pointer, so an address that is not one, a missing
   symbol or a mismatched operand count sticks. A [Vlong] offset added
   to a pointer is read with [Int64.to_int], as [Values.addl] reads
   it. *)
let locate (gv : Op.genv_view) (addr : Op.addressing) (args : preg list)
    (acc : access) (next : int) : exec =
  match (addr, List.map preg_index args) with
  | Op.Aindexed ofs, [ a ] -> (
    fun st -> match st.rs.(a) with Vptr (b, o) -> access acc next st b (o + ofs) | _ -> stuck)
  | Op.Aindexed2 ofs, [ a; c ] -> (
    fun st ->
      match (st.rs.(a), st.rs.(c)) with
      | Vptr (b, o), Vlong n | Vlong n, Vptr (b, o) ->
        access acc next st b (o + Int64.to_int n + ofs)
      | _ -> stuck)
  | Op.Aindexed2scaled (sc, ofs), [ a; c ] -> (
    let sc = Int64.of_int sc in
    fun st ->
      match (st.rs.(a), st.rs.(c)) with
      | Vptr (b, o), Vlong n -> access acc next st b (o + Int64.to_int (Int64.mul n sc) + ofs)
      | _ -> stuck)
  | Op.Aglobal (id, ofs), [] -> (
    match gv.Op.find_symbol id with
    | Some b -> fun st -> access acc next st b ofs
    | None -> fun _ -> stuck)
  | Op.Ainstack ofs, [] -> (
    fun st ->
      match st.rs.(isp) with Vptr (b, base) -> access acc next st b (base + ofs) | _ -> stuck)
  (* [Ascaled]: a scaled index alone is an integer, never a pointer. *)
  | _ -> fun _ -> stuck

(* [Olea]: [Op.eval_addressing] on the registers [args], the one place
   the decoder builds an address as a value. *)
let decode_lea (gv : Op.genv_view) (addr : Op.addressing) (args : preg list)
    (ires : int) (next : int) : exec =
  let vlong n = Vlong (Int64.of_int n) in
  let set st v =
    st.rs.(ires) <- v;
    next
  in
  match (addr, List.map preg_index args) with
  | Op.Aindexed ofs, [ a ] ->
    let vofs = vlong ofs in
    fun st -> set st (addl st.rs.(a) vofs)
  | Op.Aindexed2 ofs, [ a; c ] ->
    let vofs = vlong ofs in
    fun st -> set st (addl (addl st.rs.(a) st.rs.(c)) vofs)
  | Op.Ascaled (sc, ofs), [ a ] -> (
    let sc = Int64.of_int sc and vofs = vlong ofs in
    fun st ->
      match st.rs.(a) with Vlong n -> set st (addl (Vlong (Int64.mul n sc)) vofs) | _ -> stuck)
  | Op.Aindexed2scaled (sc, ofs), [ a; c ] -> (
    let sc = Int64.of_int sc and vofs = vlong ofs in
    fun st ->
      match st.rs.(c) with
      | Vlong n -> set st (addl (addl st.rs.(a) (Vlong (Int64.mul n sc))) vofs)
      | _ -> stuck)
  | Op.Aglobal (id, ofs), [] -> (
    match gv.Op.find_symbol id with
    | Some b ->
      let v = Vptr (b, ofs) in
      fun st -> set st v
    | None -> fun _ -> stuck)
  | Op.Ainstack ofs, [] -> (
    fun st ->
      match st.rs.(isp) with Vptr (b, base) -> set st (Vptr (b, base + ofs)) | _ -> stuck)
  | _ -> fun _ -> stuck

(* [Op.eval_condition cond] on the registers [args]. *)
let decode_test (cond : Op.condition) (args : preg list) : state -> bool option =
  match (Op.test cond, List.map preg_index args) with
  | Op.Test2 f, [ a; b ] -> fun st -> f st.m st.rs.(a) st.rs.(b)
  | Op.Test_imm (f, n), [ a ] -> fun st -> f st.m st.rs.(a) n
  | _ -> fun _ -> None

let decode_instr (gv : Op.genv_view) (ge : genv) (f : coq_function)
    (fb : block) (pcs : value array) (pos : int) (i : instruction) : exec =
  let next = pos + 1 in
  let len = Array.length f.fn_code in
  match i with
  | Pallocframe (sz, ofs_link, ofs_ra) ->
    fun st -> (
      let rs = st.rs in
      match Mem.alloc_frame st.m sz ofs_link rs.(isp) ofs_ra rs.(ira) with
      | Some (m', b) ->
        rs.(isp) <- Vptr (b, 0);
        set_mem st m';
        next
      | None -> stuck)
  | Pfreeframe (sz, ofs_link, ofs_ra) ->
    fun st -> (
      let rs = st.rs in
      match rs.(isp) with
      | Vptr (b, 0) -> (
        let m = st.m in
        match (Mem.load Mint64 m b ofs_link, Mem.load Mint64 m b ofs_ra) with
        | Some link, Some ra -> (
          match Mem.free m b 0 sz with
          | Some m' ->
            rs.(isp) <- link;
            rs.(ira) <- ra;
            set_mem st m';
            next
          | None -> stuck)
        | _ -> stuck)
      | _ -> stuck)
  (* An operator is resolved by its arity ([Op.arity]) to the [Values]
     function [Op.eval_operation] applies, and a symbol's address to a
     constant; an operand count the operator does not take sticks, as
     there. *)
  | Pop (op, args, res) -> (
    let ires = preg_index res in
    match (Op.arity op, List.map preg_index args) with
    | Op.Move, [ a ] ->
      fun st ->
        let rs = st.rs in
        rs.(ires) <- rs.(a);
        next
    | Op.Const v, _ ->
      fun st ->
        st.rs.(ires) <- v;
        next
    | Op.Symbol (id, ofs), _ -> (
      match gv.Op.find_symbol id with
      | Some b ->
        let v = Vptr (b, ofs) in
        fun st ->
          st.rs.(ires) <- v;
          next
      | None -> fun _ -> stuck)
    | Op.Stack ofs, _ -> (
      fun st ->
        let rs = st.rs in
        match rs.(isp) with
        | Vptr (b, base) ->
          rs.(ires) <- Vptr (b, base + ofs);
          next
        | _ -> stuck)
    | Op.Unary f, [ a ] ->
      fun st ->
        let rs = st.rs in
        rs.(ires) <- f rs.(a);
        next
    | Op.Binary f, [ a; b ] ->
      fun st ->
        let rs = st.rs in
        rs.(ires) <- f rs.(a) rs.(b);
        next
    | Op.Binary_imm (f, n), [ a ] ->
      fun st ->
        let rs = st.rs in
        rs.(ires) <- f rs.(a) n;
        next
    | Op.Unary_partial f, [ a ] -> (
      fun st ->
        let rs = st.rs in
        match f rs.(a) with
        | Some v ->
          rs.(ires) <- v;
          next
        | None -> stuck)
    | Op.Binary_partial f, [ a; b ] -> (
      fun st ->
        let rs = st.rs in
        match f rs.(a) rs.(b) with
        | Some v ->
          rs.(ires) <- v;
          next
        | None -> stuck)
    | Op.Lea addr, _ -> decode_lea gv addr args ires next
    | Op.Cmp cond, _ ->
      (* a condition that cannot be decided yields [Vundef] *)
      let t = decode_test cond args in
      fun st ->
        st.rs.(ires) <- (match t st with Some b -> of_bool b | None -> Vundef);
        next
    | ( ( Op.Move | Op.Unary _ | Op.Binary _ | Op.Binary_imm _ | Op.Unary_partial _
        | Op.Binary_partial _ ),
        _ ) ->
      fun _ -> stuck)
  | Pload (chunk, addr, args, dst) -> locate gv addr args (Load (chunk, preg_index dst)) next
  | Pstore (chunk, addr, args, src) -> locate gv addr args (Store (chunk, preg_index src)) next
  | Plabel _ -> fun _ -> next
  | Pjmp lbl -> (
    match find_label lbl f.fn_code with
    | Some target -> fun _ -> target
    | None -> fun _ -> stuck)
  | Pjcc (cond, args, lbl) -> (
    (* The label resolves at decode time, but a missing label only
       sticks the taken branch — the fall-through must still work,
       exactly as in [exec_instr]. *)
    let taken = match find_label lbl f.fn_code with Some p -> p | None -> stuck in
    let branch = function Some true -> taken | Some false -> next | None -> stuck in
    match (Op.test cond, List.map preg_index args) with
    | Op.Test2 f, [ a; b ] -> fun st -> branch (f st.m st.rs.(a) st.rs.(b))
    | Op.Test_imm (f, n), [ a ] -> fun st -> branch (f st.m st.rs.(a) n)
    | _ -> fun _ -> stuck)
  | Pcall ros -> (
    let ret = pcs.(next) in
    match ros with
    | Rsymbol id -> (
      match Genv.find_symbol ge id with
      | Some b when b = fb ->
        fun st ->
          st.rs.(ira) <- ret;
          0
      | Some b ->
        let vf = Vptr (b, 0) in
        fun st ->
          let rs = st.rs in
          rs.(ira) <- ret;
          rs.(ipc) <- vf;
          left
      | None -> fun _ -> stuck)
    | Rreg r ->
      let ir = preg_index r in
      (* Read the callee address before overwriting RA: with an in-place
         register file, [Pcall RA] must call the OLD return address
         (matching [exec_instr], which resolves [ros] first). *)
      fun st ->
        let rs = st.rs in
        let vf = rs.(ir) in
        rs.(ira) <- ret;
        transfer fb len rs vf)
  | Pjmp_tail ros -> (
    match ros with
    | Rsymbol id -> (
      match Genv.find_symbol ge id with
      | Some b when b = fb -> fun _ -> 0
      | Some b ->
        let vf = Vptr (b, 0) in
        fun st ->
          st.rs.(ipc) <- vf;
          left
      | None -> fun _ -> stuck)
    | Rreg r ->
      let ir = preg_index r in
      fun st -> transfer fb len st.rs st.rs.(ir))
  | Pret -> fun st -> transfer fb len st.rs st.rs.(ira)

let decode_function (ge : genv) (fb : block) (f : coq_function) : decoded =
  let gv = genv_view ge in
  let pcs = Array.init (Array.length f.fn_code + 1) (fun p -> Vptr (fb, p)) in
  { code = Array.mapi (fun pos i -> decode_instr gv ge f fb pcs pos i) f.fn_code;
    pcs }

(* Global decode-cache counters over the dispatcher's lookups only: each
   one (including the same-block fast path) counts, and a miss decodes.
   The interaction tests' "is this internal code?" probes consult the
   same cache uncounted, so the hit-rate gauge the bench derives from
   these describes decoding, not how often a caller probes. *)
let decode_cache_lookups = ref 0
let decode_cache_misses = ref 0
let decode_cache_stats () = (!decode_cache_lookups, !decode_cache_misses)

let reset_decode_cache_stats () =
  decode_cache_lookups := 0;
  decode_cache_misses := 0

type decode_cache = {
  dc_tbl : (block, decoded option) Hashtbl.t;
      (** [None] caches "this block is not internal code" *)
  mutable dc_last_fb : block;  (** -1 when empty; blocks start at 1 *)
  mutable dc_last : decoded option;
}

let make_decode_cache () : decode_cache =
  { dc_tbl = Hashtbl.create 16; dc_last_fb = -1; dc_last = None }

let find_decoded ~counted (ge : genv) (dc : decode_cache) (fb : block) :
    decoded option =
  if counted then incr decode_cache_lookups;
  if fb = dc.dc_last_fb then dc.dc_last
  else begin
    let d =
      match Hashtbl.find dc.dc_tbl fb with
      | d -> d
      | exception Not_found ->
        if counted then incr decode_cache_misses;
        let d =
          match Genv.find_funct_ptr ge fb with
          | Some (Ast.Internal f) -> Some (decode_function ge fb f)
          | _ -> None
        in
        Hashtbl.add dc.dc_tbl fb d;
        d
    in
    dc.dc_last_fb <- fb;
    dc.dc_last <- d;
    d
  end

(* A superstep runs at most this many instructions, so fuel still
   bounds the loops inside one function. *)
let fuse_budget = 64

(* [superstep d st ra budget pos] executes the instruction at [pos] (a
   position of [d]'s code other than the return position [ra]) and its
   successors while they stay in [d]'s code, differ from [ra] and the
   budget lasts, then writes the PC once. A stuck instruction after the
   first ends the superstep with the PC at it; when the first one is
   stuck, nothing is written and the result is [false]. *)
let rec superstep d st ra budget pos =
  let next = d.code.(pos) st in
  if next >= 0 then
    if next < Array.length d.code && next <> ra && budget > 1 then
      superstep d st ra (budget - 1) next
    else begin
      st.rs.(ipc) <- d.pcs.(next);
      true
    end
  else if next = left then true
  else if budget = fuse_budget then false
  else begin
    st.rs.(ipc) <- d.pcs.(pos);
    true
  end

let semantics_gen ~(threaded : bool) ~(symbols : Ident.t list) (p : program) :
    (state, a_query, a_reply, a_query, a_reply) Core.Smallstep.lts =
  let ge = Genv.globalenv ~symbols p in
  let dc = make_decode_cache () in
  (* A state is at an interaction point when the PC leaves this unit's
     internal code: either at the environment return address (final) or
     at a block this unit does not define internally (external call).
     The threaded semantics answers "is this internal code?" from the
     decode cache (uncounted: a probe is not a dispatch), so the
     interaction test costs no [Genv] descent either. *)
  let is_internal v =
    match v with
    | Vptr (b, 0) ->
      if threaded then Option.is_some (find_decoded ~counted:false ge dc b)
      else (
        match Genv.find_funct_ptr ge b with
        | Some (Ast.Internal _) -> true
        | _ -> false)
    | _ -> false
  in
  (* One LTS step executes a bounded {e superstep} of instructions, not
     just one: {!superstep} keeps going while the successor position
     stays inside the same function's code and differs from the
     position of the activation return address, computed once per
     superstep. Such intermediate states are provably silent
     non-interaction states — [final] needs the PC to equal
     [init_ra] (excluded explicitly) and [at_external] needs a
     control transfer to the base of a {e non-internal} block (the
     current block is internal by construction) — and every internal
     step emits the empty trace, so fusing them under one transition
     preserves the observable behavior while paying the run loop's
     per-step overhead once per superstep instead of once per
     instruction. No PC inside a superstep is observable, so the PC
     register is written once, at its end: the position it stopped at,
     or whatever the instruction that left the function wrote.

     A stuck instruction mid-superstep ends it with the PC at that
     instruction; the decode invariant (no write before fallibility is
     resolved) means re-executing it on the next [step] fails
     identically, reporting the same stuck state one transition later.

     The run owns its register array and its memory exclusively between
     observation points, so a superstep writes them in the activation's
     one state record and hands that record back. *)
  let step_full =
    if threaded then fun s ->
      match s.rs.(ipc) with
      | Vptr (fb, pos) -> (
        match find_decoded ~counted:true ge dc fb with
        | Some d when pos >= 0 && pos < Array.length d.code ->
          (* -1, no position, when the return address is not code of [fb]. *)
          let ra = match s.init_ra with Vptr (b, p) when b = fb -> p | _ -> -1 in
          if superstep d s ra fuse_budget pos then [ (Core.Events.e0, s) ] else []
        | _ -> [])
      | _ -> []
    else step ge
  in
  (* Payloads. What [at_external] and [final] hand out is a snapshot: a
     copy of the register file, and the memory frozen, which adds the
     run's in-place writes and chunk copies since its thaw to the
     [mem.cow.*] counters. [adopt] takes an inbound payload: one whose
     memory is owned was handed over ({!Core.Smallstep.handover}) and
     becomes the activation's as is; any other may be shared
     ([Pregfile.init] is one shared array), so its register file is
     copied and, threaded, its memory thawed. The naive reference stays
     on the persistent memory model and has no handover. *)
  let snapshot_mem m =
    if Mem.owned m then begin
      let in_place, copied = Mem.write_stats m in
      Obs.Metrics.incr_counter ~by:in_place "mem.cow.in_place";
      Obs.Metrics.incr_counter ~by:copied "mem.cow.copied";
      Mem.freeze m
    end
    else m
  in
  let adopt init_ra rs m =
    if Mem.owned m then { rs; m; init_ra }
    else { rs = Pregfile.copy rs; m = (if threaded then Mem.thaw m else m); init_ra }
  in
  (* An external call is a control transfer to the base of a global
     symbol block this unit does not define internally. Return addresses
     point into the middle of code blocks and are excluded; garbage PCs
     are stuck, not external. *)
  let at_call s =
    let pc = s.rs.(ipc) in
    Genv.plausible_funct ge pc
    && (not (is_internal pc))
    && not (Values.equal pc s.init_ra)
  in
  let returned s = Values.equal s.rs.(ipc) s.init_ra in
  {
    Core.Smallstep.name = "Asm";
    dom = (fun q -> is_internal (Pregfile.get PC q.aq_rs));
    init = (fun q -> adopt (Pregfile.get RA q.aq_rs) q.aq_rs q.aq_mem);
    (* A final state has no internal step, even when the return address
       is code of this unit (a function called from inside the unit
       that tail-calls into another unit is answered there): [⊕] offers
       the internal step before the pop, and would otherwise go on
       running the caller's code inside the callee's activation. *)
    step = (fun s -> if returned s then [] else step_full s);
    at_external =
      (fun s ->
        if at_call s then
          Some { aq_rs = Pregfile.copy s.rs; aq_mem = snapshot_mem s.m }
        else None);
    (* A suspended activation never reads its register file or memory
       again: the reply's replace them. *)
    after_external = (fun s r -> adopt s.init_ra r.ar_rs r.ar_mem);
    final =
      (fun s ->
        if returned s then
          Some { ar_rs = Pregfile.copy s.rs; ar_mem = snapshot_mem s.m }
        else None);
    handover =
      (if threaded then
         Some
           {
             hand_external =
               (fun s ->
                 if at_call s then Some { aq_rs = s.rs; aq_mem = s.m }
                 else None);
             hand_final =
               (fun s ->
                 if returned s then Some { ar_rs = s.rs; ar_mem = s.m }
                 else None);
           }
       else None);
  }

(** The Asm open semantics, on the direct-threaded dispatcher. *)
let semantics ~(symbols : Ident.t list) (p : program) :
    (state, a_query, a_reply, a_query, a_reply) Core.Smallstep.lts =
  semantics_gen ~threaded:true ~symbols p

(** The same semantics on the naive per-step dispatcher — the reference
    the differential suite locksteps against [semantics]. *)
let semantics_naive ~(symbols : Ident.t list) (p : program) :
    (state, a_query, a_reply, a_query, a_reply) Core.Smallstep.lts =
  semantics_gen ~threaded:false ~symbols p

(** {1 Printing} *)

let pp_ros fmt = function
  | Rreg r -> pp_preg fmt r
  | Rsymbol id -> Ident.pp fmt id

let pp_instruction fmt i =
  let regs fmt rl =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
      pp_preg fmt rl
  in
  match i with
  | Pallocframe (sz, ol, orr) -> Format.fprintf fmt "allocframe %d, %d, %d" sz ol orr
  | Pfreeframe (sz, ol, orr) -> Format.fprintf fmt "freeframe %d, %d, %d" sz ol orr
  | Pop (op, args, res) ->
    Format.fprintf fmt "%a = %a(%a)" pp_preg res Op.pp_operation op regs args
  | Pload (chunk, addr, args, dst) ->
    Format.fprintf fmt "%a = load %a %a(%a)" pp_preg dst pp_chunk chunk
      Op.pp_addressing addr regs args
  | Pstore (chunk, addr, args, src) ->
    Format.fprintf fmt "store %a %a(%a) := %a" pp_chunk chunk Op.pp_addressing
      addr regs args pp_preg src
  | Plabel l -> Format.fprintf fmt "%d:" l
  | Pjmp l -> Format.fprintf fmt "jmp %d" l
  | Pjcc (cond, args, l) ->
    Format.fprintf fmt "j%a(%a) %d" Op.pp_condition cond regs args l
  | Pcall ros -> Format.fprintf fmt "call %a" pp_ros ros
  | Pjmp_tail ros -> Format.fprintf fmt "jmp-tail %a" pp_ros ros
  | Pret -> Format.fprintf fmt "ret"

let pp_function fmt (f : coq_function) =
  Format.fprintf fmt "@[<v>asm function(%a)@," pp_signature f.fn_sig;
  Array.iteri (fun i instr -> Format.fprintf fmt "  %3d: %a@," i pp_instruction instr) f.fn_code;
  Format.fprintf fmt "@]"
