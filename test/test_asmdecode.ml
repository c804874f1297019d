(** The threaded Asm decoder against the reference, one instruction at a
    time. For every shape that [Asm.decode_instr] resolves at decode
    time — loads and stores in every addressing mode, operators of each
    arity and [Olea], symbol addresses with a known and an unknown
    symbol, and every [Pjcc] condition — the decoded closure, run on a
    register file and a memory, must do what [Asm.exec_instr] does on
    them: write the same registers and memory and go to the same
    successor when the reference steps, and return [stuck] having
    written nothing when the reference has no step.

    Register files hold every kind of value: integers, longs small
    enough to be in-bounds offsets, floats and singles (NaN and both
    zeros included), [Vundef], and pointers into valid, freed, never
    allocated and read-only blocks, in and out of bounds. *)

open Support
open Memory
open Memory.Values
open Memory.Mtypes
open Memory.Memdata
open Iface.Li
module Asm = Backend.Asm
module Op = Middle.Op
module Gen = QCheck.Gen

(* Blocks: [main] is 1, the two globals 2 and 3; 4 is a stack frame, 5
   a freed block and 6 was never allocated. [nowhere] is in no symbol
   table. *)
let main = Ident.intern "main"
let g1 = Ident.intern "decode_g1"
let g2 = Ident.intern "decode_g2"
let nowhere = Ident.intern "decode_nowhere"
let symbols = [ main; g1; g2 ]
let fb = 1
let pos = 1

(* {1 Generators} *)

(* Offsets are aligned and in bounds more often than not, so that most
   accesses can succeed. *)
let gen_ofs = Gen.frequency [ (3, Gen.oneofl [ 0; 4; 8; 16 ]); (1, Gen.int_range (-8) 40) ]
let gen_i32 = Gen.oneof [ Gen.map Int32.of_int (Gen.int_range (-3) 40); Gen.ui32 ]

let gen_i64 =
  Gen.frequency
    [ (3, Gen.oneofl [ 0L; 4L; 8L; 16L ]); (2, Gen.map Int64.of_int (Gen.int_range (-16) 72));
      (1, Gen.ui64) ]

let gen_float =
  Gen.oneof [ Gen.oneofl [ 0.0; -0.0; Float.nan; Float.infinity; 1.5; -2.0 ]; Gen.float ]

let gen_value : value Gen.t =
  Gen.frequency
    [
      (1, Gen.return Vundef);
      (3, Gen.map (fun n -> Vint n) gen_i32);
      (3, Gen.map (fun n -> Vlong n) gen_i64);
      (1, Gen.map (fun f -> Vfloat f) gen_float);
      (1, Gen.map (fun f -> Vsingle (to_single f)) gen_float);
      ( 4,
        Gen.map2
          (fun b o -> Vptr (b, o))
          (Gen.frequency [ (6, Gen.int_range 2 4); (1, Gen.oneofl [ 1; 5; 6 ]) ])
          (Gen.frequency [ (6, Gen.oneofl [ 0; 8; 16; 24 ]); (1, Gen.int_range (-8) 72) ]) );
    ]

let gen_chunk =
  Gen.oneofl
    [ Mint8signed; Mint8unsigned; Mint16signed; Mint16unsigned; Mint32; Mint64;
      Mfloat32; Mfloat64; Many32; Many64 ]

let regs =
  [| Mreg Target.Machregs.AX; Mreg Target.Machregs.BX; Mreg Target.Machregs.CX;
     Mreg Target.Machregs.X0; SP; RA |]

let gen_reg = Gen.oneofa regs

(* A register file: the registers above random, SP most often a pointer
   into the frame. *)
let gen_regfile : Pregfile.t Gen.t =
  Gen.map2
    (fun vs sp ->
      let rs = Pregfile.copy Pregfile.init in
      Array.iteri (fun i r -> rs.(preg_index r) <- List.nth vs i) regs;
      Option.iter (fun v -> rs.(preg_index SP) <- v) sp;
      rs)
    (Gen.list_repeat (Array.length regs) gen_value)
    (Gen.opt (Gen.map (fun o -> Vptr (4, o)) (Gen.int_range 0 32)))

(* A memory: the blocks above, then random stores; the second half of
   [g2] is read-only. *)
let gen_mem : Mem.t Gen.t =
  Gen.map
    (fun stores ->
      let m = Mem.empty in
      let m, _ = Mem.alloc m 0 8 in
      let m, _ = Mem.alloc m 0 32 in
      let m, _ = Mem.alloc m 0 32 in
      let m, _ = Mem.alloc m 0 64 in
      let m, b5 = Mem.alloc m 0 32 in
      let m = Option.get (Mem.free m b5 0 32) in
      let m =
        List.fold_left
          (fun m (chunk, b, ofs, v) ->
            match Mem.store chunk m b ofs v with Some m' -> m' | None -> m)
          m stores
      in
      Option.get (Mem.drop_perm m 3 16 32 Readable))
    (Gen.list_size (Gen.int_range 0 12)
       (Gen.quad gen_chunk (Gen.int_range 2 4) (Gen.int_range 0 56) gen_value))

let gen_cmp = Gen.oneofl [ Ceq; Cne; Clt; Cle; Cgt; Cge ]

(* The shapes of each family, drawn with the same weight: every
   condition, addressing mode and operator arity the decoder resolves. *)
let conditions : Op.condition Gen.t list =
  Gen.
    [
      map (fun c -> Op.Ccomp c) gen_cmp;
      map (fun c -> Op.Ccompu c) gen_cmp;
      map2 (fun c n -> Op.Ccompimm (c, n)) gen_cmp gen_i32;
      map2 (fun c n -> Op.Ccompuimm (c, n)) gen_cmp gen_i32;
      map (fun c -> Op.Ccompl c) gen_cmp;
      map (fun c -> Op.Ccomplu c) gen_cmp;
      map2 (fun c n -> Op.Ccomplimm (c, n)) gen_cmp gen_i64;
      map2 (fun c n -> Op.Ccompluimm (c, n)) gen_cmp gen_i64;
      map (fun c -> Op.Ccompf c) gen_cmp;
      map (fun c -> Op.Ccompfs c) gen_cmp;
      map (fun n -> Op.Cmaskzero n) gen_i32;
      map (fun n -> Op.Cmasknotzero n) gen_i32;
    ]

(* Symbols include one in no symbol table. *)
let gen_sym = Gen.oneofl [ g1; g2; nowhere ]
let gen_scale = Gen.oneofl [ 1; 2; 4; 8 ]

let addressings : Op.addressing Gen.t list =
  Gen.
    [
      map (fun o -> Op.Aindexed o) gen_ofs;
      map (fun o -> Op.Aindexed2 o) gen_ofs;
      map2 (fun s o -> Op.Ascaled (s, o)) gen_scale gen_ofs;
      map2 (fun s o -> Op.Aindexed2scaled (s, o)) gen_scale gen_ofs;
      map2 (fun id o -> Op.Aglobal (id, o)) gen_sym gen_ofs;
      map (fun o -> Op.Ainstack o) gen_ofs;
    ]

let operators : Op.operation Gen.t list =
  Gen.
    [
      return Op.Omove;
      oneof
        [ map (fun n -> Op.Ointconst n) gen_i32; map (fun n -> Op.Olongconst n) gen_i64;
          map (fun f -> Op.Ofloatconst f) gen_float;
          map (fun f -> Op.Osingleconst (to_single f)) gen_float ];
      map2 (fun id o -> Op.Oaddrsymbol (id, o)) gen_sym gen_ofs;
      map (fun o -> Op.Oaddrstack o) gen_ofs;
      oneofl
        Op.
          [ Oneg; Onot; Ocast8signed; Ocast8unsigned; Ocast16signed; Ocast16unsigned;
            Onegl; Onotl; Olongofint; Olongofintu; Ointoflong; Ofloatofint; Ofloatoflong;
            Osingleoffloat; Ofloatofsingle; Osingleofint; Onegf; Oabsf; Onegfs ];
      oneofl
        Op.
          [ Oadd; Osub; Omul; Oand; Oor; Oxor; Oshl; Oshr; Oshru; Oaddl; Osubl; Omull;
            Oandl; Oorl; Oxorl; Oshll; Oshrl; Oshrlu; Oaddf; Osubf; Omulf; Odivf; Oaddfs;
            Osubfs; Omulfs; Odivfs ];
      oneof
        [ map2
            (fun k n -> k n)
            (oneofl
               Op.
                 [ (fun n -> Oaddimm n); (fun n -> Omulimm n); (fun n -> Oandimm n);
                   (fun n -> Oorimm n); (fun n -> Oxorimm n); (fun n -> Oshlimm n);
                   (fun n -> Oshrimm n); (fun n -> Oshruimm n); (fun n -> Oshllimm n);
                   (fun n -> Oshrlimm n); (fun n -> Oshrluimm n) ])
            gen_i32;
          map2
            (fun k n -> k n)
            (oneofl
               Op.
                 [ (fun n -> Oaddlimm n); (fun n -> Omullimm n); (fun n -> Oandlimm n);
                   (fun n -> Oorlimm n); (fun n -> Oxorlimm n) ])
            gen_i64 ];
      oneofl Op.[ Ointoffloat; Olongoffloat; Ointofsingle ];
      oneofl Op.[ Odiv; Odivu; Omod; Omodu; Odivl; Odivlu; Omodl; Omodlu ];
      oneof (List.map (map (fun a -> Op.Olea a)) addressings);
      oneof (List.map (map (fun c -> Op.Ocmp c)) conditions);
    ]

let addressing_arity = function
  | Op.Aindexed _ | Op.Ascaled _ -> 1
  | Op.Aindexed2 _ | Op.Aindexed2scaled _ -> 2
  | Op.Aglobal _ | Op.Ainstack _ -> 0

let condition_arity c = match Op.test c with Op.Test2 _ -> 2 | Op.Test_imm _ -> 1

let operation_arity op =
  match Op.arity op with
  | Op.Const _ | Op.Symbol _ | Op.Stack _ -> 0
  | Op.Move | Op.Unary _ | Op.Binary_imm _ | Op.Unary_partial _ -> 1
  | Op.Binary _ | Op.Binary_partial _ -> 2
  | Op.Lea a -> addressing_arity a
  | Op.Cmp c -> condition_arity c

(* Operands: the count the shape takes, and once in ten draws any count
   up to three (which the reference refuses, or ignores for a constant). *)
let gen_args n =
  Gen.frequency
    [ (9, Gen.list_repeat n gen_reg); (1, Gen.list_size (Gen.int_range 0 3) gen_reg) ]

(* {1 The check} *)

let pp_instr = Format.asprintf "%a" Asm.pp_instruction
let pp_rs = Format.asprintf "%a" Pregfile.pp

(* [i] at position [pos] of [main], between labels 1 and 2; label 3 is
   missing. *)
let agrees (i, rs, m) =
  let f = { Asm.fn_sig = signature_main; fn_code = [| Asm.Plabel 1; i; Asm.Plabel 2; Asm.Pret |] } in
  let p =
    { Iface.Ast.prog_defs = [ (main, Iface.Ast.Gfun (Iface.Ast.Internal f)) ]; prog_main = main }
  in
  let ge = Iface.Genv.globalenv ~symbols p in
  let d = Asm.decode_function ge fb f in
  let reference = Asm.exec_instr ge f fb pos i rs m in
  (* The threaded run owns its memory; a frozen one must behave alike. *)
  List.for_all
    (fun m0 ->
      let st = { Asm.rs = Pregfile.copy rs; m = m0; init_ra = Vundef } in
      let next = d.Asm.code.(pos) st in
      match reference with
      | None ->
        next = Asm.stuck
        && Pregfile.equal st.Asm.rs rs
        && st.Asm.m == m0 && Mem.equal st.Asm.m m
        || QCheck.Test.fail_reportf "%s: the reference is stuck, decoded returned %d@.%s"
             (pp_instr i) next (pp_rs st.Asm.rs)
      | Some (rs', m') ->
        next <> Asm.stuck
        && (if next >= 0 then st.Asm.rs.(Asm.ipc) <- d.Asm.pcs.(next);
            Pregfile.equal st.Asm.rs rs')
        && Mem.equal st.Asm.m m'
        || QCheck.Test.fail_reportf "%s: decoded returned %d@.reference %s@.decoded   %s"
             (pp_instr i) next (pp_rs rs') (pp_rs st.Asm.rs))
    [ Mem.thaw m; m ]

let property name (gen_instr : Asm.instruction Gen.t) =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |])
    (QCheck.Test.make ~name ~count:10_000
       (QCheck.make
          ~print:(fun (i, rs, _) -> pp_instr i ^ " on " ^ pp_rs rs)
          (Gen.triple gen_instr gen_regfile gen_mem))
       agrees)

let gen_access mk =
  Gen.(
    oneof addressings >>= fun a ->
    map3 (fun chunk args r -> mk chunk a args r) gen_chunk (gen_args (addressing_arity a)) gen_reg)

let gen_op =
  Gen.(
    oneof operators >>= fun op ->
    map2 (fun args r -> Asm.Pop (op, args, r)) (gen_args (operation_arity op)) gen_reg)

let gen_jcc =
  Gen.(
    oneof conditions >>= fun c ->
    map2 (fun args l -> Asm.Pjcc (c, args, l)) (gen_args (condition_arity c)) (oneofl [ 1; 2; 3 ]))

let suite =
  ( "asmdecode",
    [
      property "decoded loads agree with exec_instr in every addressing mode"
        (gen_access (fun c a args r -> Asm.Pload (c, a, args, r)));
      property "decoded stores agree with exec_instr in every addressing mode"
        (gen_access (fun c a args r -> Asm.Pstore (c, a, args, r)));
      property "decoded operators agree with exec_instr at every arity" gen_op;
      property "decoded conditional jumps agree with exec_instr on every condition" gen_jcc;
    ] )
