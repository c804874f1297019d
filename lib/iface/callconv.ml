(** Concrete simulation conventions (paper §5 and Appendix C).

    This module builds the executable conventions used to state compiler
    correctness:

    - [cc_c (R)]: a CKLR [R] promoted to a convention on the [C] interface
      ([R_C] in §4.4);
    - [cc_wt]: the typing invariant [wt] (Appendix B.2);
    - [cc_cl]: [CL : C ⇔ L] — marshaling of arguments into locations
      (Appendix C.1);
    - [cc_lm]: [LM : L ⇔ M] — location maps realized as machine registers
      and in-memory argument regions, with the argument region carved out
      of the source memory ([free_args]/[mix], Appendix C.2, Fig. 13);
    - [cc_ma]: [MA : M ⇔ A] — explicit PC/SP/RA registers (Appendix C.3).

    The composite [CA ≡ CL · LM · MA] is the structural content of the C
    calling convention (paper §5). This module is also the one place that
    says how a call at the [A] interface passes its arguments and how its
    callee must return ([ca_arguments], [ca_reply], [ca_breaches]): the
    A-level oracles, the chaos conformance checks, the synthesized
    partners and the boundary monitors all read it. *)

open Memory
open Memory.Mtypes
open Memory.Values
open Target
open Target.Machregs
open Target.Locations
open Core
open Li

(** Conventional return address used when the environment invokes a
    component at the machine level: a non-code value that cannot collide
    with any function block address. *)
let env_ra = Vlong 1L

(** {1 CKLRs on the C interface} *)

type 'w c_world = { cw : 'w; cw_next1 : int; cw_next2 : int }

(** [cc_cklr (module R)] is the simulation convention [R_C : C ⇔ C]
    (paper §4.4). The world additionally records the memory bounds at the
    time of the question so that the reply check can apply the canonical
    world evolution [grow] (the [^] modality of [R•_C]). *)
let cc_cklr (type w) (module R : Cklr.CKLR with type world = w) :
    (w c_world, c_query, c_query, c_reply, c_reply) Simconv.t =
  let grow (cw : w c_world) (m1 : Mem.t) (m2 : Mem.t) : w =
    R.grow cw.cw m1 m2
  in
  {
    Simconv.name = R.name ^ "@C";
    chk_query =
      (fun w q1 q2 ->
        R.match_val w.cw q1.cq_vf q2.cq_vf
        && signature_equal q1.cq_sg q2.cq_sg
        && List.length q1.cq_args = List.length q2.cq_args
        && List.for_all2 (R.match_val w.cw) q1.cq_args q2.cq_args
        && R.match_mem w.cw q1.cq_mem q2.cq_mem);
    chk_reply =
      (fun w r1 r2 ->
        let w' = grow w r1.cr_mem r2.cr_mem in
        R.acc w.cw w'
        && R.match_val w' r1.cr_res r2.cr_res
        && R.match_mem w' r1.cr_mem r2.cr_mem);
    fwd_query =
      (fun q1 ->
        let w, m2 = R.init q1.cq_mem in
        match
          ( R.map_val w q1.cq_vf,
            List.fold_right
              (fun v acc ->
                match (R.map_val w v, acc) with
                | Some v', Some vs -> Some (v' :: vs)
                | _ -> None)
              q1.cq_args (Some []) )
        with
        | Some vf2, Some args2 ->
          Some
            ( { cw = w; cw_next1 = Mem.nextblock q1.cq_mem; cw_next2 = Mem.nextblock m2 },
              { cq_vf = vf2; cq_sg = q1.cq_sg; cq_args = args2; cq_mem = m2 } )
        | _ -> None);
    fwd_reply =
      (fun w r1 ->
        let w' = grow w r1.cr_mem r1.cr_mem in
        match R.map_val w' r1.cr_res with
        | Some res -> Some { cr_res = res; cr_mem = r1.cr_mem }
        | None -> None);
    bwd_reply = (fun _w r2 -> Some r2);
    (* Injections cannot be decoded from the target side alone; only the
       identity-shaped fragment is invertible, which [infer_world]
       captures by re-marshaling. *)
    bwd_query = (fun _ -> None);
    infer_world =
      (fun q1 q2 ->
        let w, _ = R.init q1.cq_mem in
        let cw =
          { cw = w; cw_next1 = Mem.nextblock q1.cq_mem;
            cw_next2 = Mem.nextblock q2.cq_mem }
        in
        Some cw);
  }

(** {1 The typing invariant [wt] (Appendix B.2)} *)

let wt_c : (signature, c_query, c_reply) Invariant.t =
  {
    Invariant.inv_name = "wt";
    query_inv =
      (fun sg q ->
        signature_equal sg q.cq_sg && has_type_list q.cq_args sg.sig_args);
    reply_inv = (fun sg r -> has_rettype r.cr_res sg.sig_res);
    world_of = (fun q -> Some q.cq_sg);
  }

let cc_wt = Invariant.to_conv wt_c

(** {1 CL : C ⇔ L (Appendix C.1)}

    The world records the signature and the locset chosen at the question,
    so that the canonical after-call locset can preserve callee-save
    locations. *)

let cc_cl : (signature * Locset.t, c_query, l_query, c_reply, l_reply) Simconv.t =
  {
    Simconv.name = "CL";
    chk_query =
      (fun (sg, _) q1 q2 ->
        q1.cq_vf = q2.lq_vf
        && signature_equal sg q1.cq_sg
        && signature_equal sg q2.lq_sg
        && q1.cq_args = Conventions.extract_arguments sg q2.lq_ls
        && Mem.equal q1.cq_mem q2.lq_mem);
    chk_reply =
      (fun (sg, _) r1 r2 ->
        lessdef r1.cr_res (Conventions.extract_result sg r2.lr_ls)
        && Mem.equal r1.cr_mem r2.lr_mem);
    fwd_query =
      (fun q1 ->
        match Conventions.build_arguments q1.cq_sg q1.cq_args Locset.init with
        | None -> None
        | Some ls ->
          Some
            ( (q1.cq_sg, ls),
              { lq_vf = q1.cq_vf; lq_sg = q1.cq_sg; lq_ls = ls; lq_mem = q1.cq_mem }
            ));
    fwd_reply =
      (fun (sg, ls0) r1 ->
        (* Canonical environment answer: result in the result register,
           caller-save clobbered, callee-save preserved from the call. *)
        let ls' = Locset.undef_caller_save ls0 in
        let ls' = Conventions.set_result sg r1.cr_res ls' in
        Some { lr_ls = ls'; lr_mem = r1.cr_mem });
    bwd_reply =
      (fun (sg, _) r2 ->
        Some { cr_res = Conventions.extract_result sg r2.lr_ls; cr_mem = r2.lr_mem });
    bwd_query =
      (fun q2 ->
        Some
          { cq_vf = q2.lq_vf; cq_sg = q2.lq_sg;
            cq_args = Conventions.extract_arguments q2.lq_sg q2.lq_ls;
            cq_mem = q2.lq_mem });
    infer_world = (fun q1 q2 -> ignore q1; Some (q2.lq_sg, q2.lq_ls));
  }

(** {1 LM : L ⇔ M (Appendix C.2)} *)

let read_outgoing_slot m sp ofs ty =
  match sp with
  | Vptr (b, base) -> (
    match Mem.load (Memdata.chunk_of_type ty) m b (base + (8 * ofs)) with
    | Some v -> v
    | None -> Vundef)
  | _ -> Vundef

(** Equality of location maps on the footprint relevant to a signature:
    all machine registers and the outgoing argument slots of [sg]. *)
let locset_eq_on sg (ls1 : Locset.t) (ls2 : Locset.t) =
  Regfile.equal ls1.regs ls2.regs
  && List.for_all
       (fun l ->
         match l with
         | S (Outgoing, _, _) -> Locset.get l ls1 = Locset.get l ls2
         | _ -> true)
       (Conventions.loc_arguments sg)

let make_locset_sg sg (rs : Regfile.t) (m : Mem.t) (sp : value) : Locset.t =
  List.fold_left
    (fun ls l ->
      match l with
      | S (Outgoing, ofs, ty) -> Locset.set l (read_outgoing_slot m sp ofs ty) ls
      | _ -> ls)
    { Locset.init with regs = rs } (Conventions.loc_arguments sg)

(** [free_args sg m sp] removes all permissions on the argument region,
    producing the source-level memory [m̄] (Fig. 13: the source never sees
    the argument slots). *)
let free_args sg m sp =
  let n = Conventions.size_arguments sg in
  if n = 0 then Some m
  else
    match sp with
    | Vptr (b, base) -> Mem.drop_range m b base (base + (8 * n))
    | _ -> None

(** [mix sg sp m m̄'] copies the argument region of the memory [m] at the
    question back into the answer memory [m̄'], restoring permissions. *)
let mix sg sp (m : Mem.t) (mbar' : Mem.t) : Mem.t option =
  let n = Conventions.size_arguments sg in
  if n = 0 then Some mbar'
  else
    match sp with
    | Vptr (b, base) -> (
      match Mem.loadbytes m b base (8 * n) with
      | None -> None
      | Some bytes -> (
        match Mem.grant_perm mbar' b base (base + (8 * n)) Mem.Freeable with
        | None -> None
        | Some m1 -> (
          match Mem.storebytes m1 b base bytes with
          | None -> None
          | Some m2 ->
            (* Restore the permission level the region had in [m]. *)
            (match Mem.perm_at m b base with
            | Some p -> Mem.drop_perm m2 b base (base + (8 * n)) p
            | None -> Some m2))))
    | _ -> None

type lm_world = {
  lm_sg : signature;
  lm_rs : Regfile.t;
  lm_mem : Mem.t;  (** target memory at the question *)
  lm_sp : value;
}

let cc_lm : (lm_world, l_query, m_query, l_reply, m_reply) Simconv.t =
  {
    Simconv.name = "LM";
    chk_query =
      (fun w q1 q2 ->
        q1.lq_vf = q2.mq_vf
        && signature_equal w.lm_sg q1.lq_sg
        && w.lm_sp = q2.mq_sp
        && Regfile.equal w.lm_rs q2.mq_rs
        && locset_eq_on w.lm_sg q1.lq_ls
             (make_locset_sg w.lm_sg q2.mq_rs q2.mq_mem q2.mq_sp)
        && (match free_args w.lm_sg q2.mq_mem q2.mq_sp with
           | Some mbar ->
             (* The source memory must agree with the target memory with
                the argument region carved out, on the blocks both know. *)
             Mem.unchanged_on (fun _ _ -> true) q1.lq_mem mbar
           | None -> false));
    chk_reply =
      (fun w r1 r2 ->
        (* rs' ≡R ls' on all machine registers … *)
        Regfile.for_all2 lessdef r1.lr_ls.regs r2.mr_rs
        (* … callee-save registers preserved from the question … *)
        && Regfile.keeps_callee_save ~caller:w.lm_rs r2.mr_rs
        (* … and the argument region is restored in the answer memory. *)
        &&
        match mix w.lm_sg w.lm_sp w.lm_mem r1.lr_mem with
        | Some m' -> Mem.unchanged_on (fun _ _ -> true) m' r2.mr_mem
        | None -> false);
    fwd_query =
      (fun q1 ->
        let sg = q1.lq_sg in
        let n = Conventions.size_arguments sg in
        let rs = q1.lq_ls.regs in
        if n = 0 then
          let w = { lm_sg = sg; lm_rs = rs; lm_mem = q1.lq_mem; lm_sp = Vlong 0L } in
          Some
            ( w,
              {
                mq_vf = q1.lq_vf;
                mq_sp = Vlong 0L;
                mq_ra = env_ra;
                mq_rs = rs;
                mq_mem = q1.lq_mem;
              } )
        else
          (* Materialize the argument region in a fresh block. *)
          let m0, b = Mem.alloc q1.lq_mem 0 (8 * n) in
          let sp = Vptr (b, 0) in
          let store_arg m l =
            match (m, l) with
            | None, _ -> None
            | Some m, S (Outgoing, ofs, ty) ->
              Mem.store (Memdata.chunk_of_type ty) m b (8 * ofs)
                (Locset.get l q1.lq_ls)
            | Some m, _ -> Some m
          in
          match List.fold_left store_arg (Some m0) (Conventions.loc_arguments sg) with
          | None -> None
          | Some m ->
            let w = { lm_sg = sg; lm_rs = rs; lm_mem = m; lm_sp = sp } in
            Some
              ( w,
                { mq_vf = q1.lq_vf; mq_sp = sp; mq_ra = env_ra; mq_rs = rs; mq_mem = m }
              ));
    fwd_reply =
      (fun w r1 ->
        let rs' = Regfile.return_regs w.lm_rs r1.lr_ls.regs in
        match mix w.lm_sg w.lm_sp w.lm_mem r1.lr_mem with
        | Some m' -> Some { mr_rs = rs'; mr_mem = m' }
        | None -> None);
    bwd_reply =
      (fun w r2 ->
        match free_args w.lm_sg r2.mr_mem w.lm_sp with
        | Some mbar ->
          Some { lr_ls = { Locset.init with regs = r2.mr_rs }; lr_mem = mbar }
        | None -> None);
    (* The signature is not recoverable from an M question. *)
    bwd_query = (fun _ -> None);
    infer_world =
      (fun q1 q2 ->
        Some
          { lm_sg = q1.lq_sg; lm_rs = q2.mq_rs; lm_mem = q2.mq_mem;
            lm_sp = q2.mq_sp });
  }

(** {1 MA : M ⇔ A (Appendix C.3)} *)

type ma_world = { ma_sp : value; ma_ra : value; ma_rs : Regfile.t }

let cc_ma : (ma_world, m_query, a_query, m_reply, a_reply) Simconv.t =
  {
    Simconv.name = "MA";
    chk_query =
      (fun w q1 q2 ->
        w.ma_sp = q1.mq_sp && w.ma_ra = q1.mq_ra
        && Pregfile.get PC q2.aq_rs = q1.mq_vf
        && Pregfile.get SP q2.aq_rs = q1.mq_sp
        && Pregfile.get RA q2.aq_rs = q1.mq_ra
        && Regfile.equal (Pregfile.to_regfile q2.aq_rs) q1.mq_rs
        && Mem.equal q1.mq_mem q2.aq_mem);
    chk_reply =
      (fun w r1 r2 ->
        Pregfile.get SP r2.ar_rs = w.ma_sp
        && Pregfile.get PC r2.ar_rs = w.ma_ra
        && Regfile.for_all2 lessdef r1.mr_rs (Pregfile.to_regfile r2.ar_rs)
        && Mem.equal r1.mr_mem r2.ar_mem);
    fwd_query =
      (fun q1 ->
        let rs =
          Pregfile.of_regfile q1.mq_rs
          |> Pregfile.set PC q1.mq_vf |> Pregfile.set SP q1.mq_sp
          |> Pregfile.set RA q1.mq_ra
        in
        Some
          ( { ma_sp = q1.mq_sp; ma_ra = q1.mq_ra; ma_rs = q1.mq_rs },
            { aq_rs = rs; aq_mem = q1.mq_mem } ));
    fwd_reply =
      (fun w r1 ->
        let rs' =
          Pregfile.of_regfile r1.mr_rs
          |> Pregfile.set SP w.ma_sp |> Pregfile.set PC w.ma_ra
        in
        Some { ar_rs = rs'; ar_mem = r1.mr_mem });
    bwd_reply =
      (fun _w r2 ->
        Some { mr_rs = Pregfile.to_regfile r2.ar_rs; mr_mem = r2.ar_mem });
    bwd_query =
      (fun q2 ->
        Some
          { mq_vf = Pregfile.get PC q2.aq_rs;
            mq_sp = Pregfile.get SP q2.aq_rs;
            mq_ra = Pregfile.get RA q2.aq_rs;
            mq_rs = Pregfile.to_regfile q2.aq_rs;
            mq_mem = q2.aq_mem });
    infer_world =
      (fun q1 _q2 ->
        Some { ma_sp = q1.mq_sp; ma_ra = q1.mq_ra; ma_rs = q1.mq_rs });
  }

(** {1 A call at the [A] interface (eq. (7))}

    The C calling convention seen from one A-level call (paper §5's
    [CA], Fig. 13): the arguments sit in the argument registers and in
    the outgoing region at SP, and the callee answers with the result in
    the result register, returning to RA with SP and every callee-save
    register kept. *)

(** The arguments of an A-level call with signature [sg], read from the
    argument registers and the outgoing region at SP. *)
let ca_arguments sg (q : a_query) : value list =
  let rs = q.aq_rs in
  Conventions.extract_arguments sg
    (make_locset_sg sg (Pregfile.to_regfile rs) q.aq_mem (Pregfile.get SP rs))

(** The result an A-level reply gives a call with signature [sg]. *)
let ca_result sg (r : a_reply) : value =
  Pregfile.get (Mreg (Conventions.loc_result sg)) r.ar_rs

(** The reply of a callee that answers [res] to [q]: the result in the
    result register and [PC := RA], every other register and the memory
    as in the question. *)
let ca_reply ~sg ~res (q : a_query) : a_reply =
  let rs = q.aq_rs in
  {
    ar_rs =
      Pregfile.set (Mreg (Conventions.loc_result sg)) res rs
      |> Pregfile.set PC (Pregfile.get RA rs);
    ar_mem = q.aq_mem;
  }

(** How a reply breaks the convention. *)
type breach =
  | Not_to_ra of { pc : value; ra : value }  (** [PC' ≠ RA] *)
  | Sp_moved of { sp : value; sp' : value }
  | Callee_save_clobbered of { reg : mreg; before : value; after : value }
  | Ill_typed of { res : value; ty : typ option }
      (** the result is outside the signature's result type *)
  | Outside_injection of { res : value; nextblock : block }
      (** the result points into a block at or beyond the reply memory's
          [nextblock]: unallocated, so related to no source block *)

(** A breach as the chaos conformance checks report it. *)
let pp_breach fmt = function
  | Not_to_ra { pc; ra } ->
    Format.fprintf fmt "environment did not return to RA: pc' = %a, ra = %a"
      Values.pp pc Values.pp ra
  | Sp_moved { sp; sp' } ->
    Format.fprintf fmt "environment moved the stack pointer: %a -> %a" Values.pp
      sp Values.pp sp'
  | Callee_save_clobbered { reg; before; after } ->
    Format.fprintf fmt "environment clobbered callee-save %a: %a -> %a" pp_mreg
      reg Values.pp before Values.pp after
  | Ill_typed { res; ty } ->
    Format.fprintf fmt "ill-typed result %a for return type %a" Values.pp res
      (fun fmt -> function
        | Some t -> pp_typ fmt t
        | None -> Format.pp_print_string fmt "void")
      ty
  | Outside_injection { res; nextblock } ->
    Format.fprintf fmt "result pointer %a outside the injection (nextblock %d)"
      Values.pp res nextblock

(** The breaches of a result [res] of type [ty] answered with memory
    [mem], at any interface: its type, then its injection. *)
let result_breaches ~mem ty res =
  (if has_rettype res ty then [] else [ Ill_typed { res; ty } ])
  @
  match res with
  | Vptr (b, _) when b >= Mem.nextblock mem ->
    [ Outside_injection { res; nextblock = Mem.nextblock mem } ]
  | _ -> []

(* The register breaches of a reply [rs'] to a question [rs]: RA, SP,
   then each callee-save register. *)
let reg_breaches (rs : Pregfile.t) (rs' : Pregfile.t) =
  let kept r = Pregfile.get r rs = Pregfile.get r rs' in
  (if Pregfile.get PC rs' = Pregfile.get RA rs then []
   else [ Not_to_ra { pc = Pregfile.get PC rs'; ra = Pregfile.get RA rs } ])
  @ (if kept SP then []
     else [ Sp_moved { sp = Pregfile.get SP rs; sp' = Pregfile.get SP rs' } ])
  @ List.filter_map
      (fun m ->
        if kept (Mreg m) then None
        else
          Some
            (Callee_save_clobbered
               { reg = m; before = Pregfile.get (Mreg m) rs;
                 after = Pregfile.get (Mreg m) rs' }))
      callee_save_regs

(** Every breach of the reply [r] to a call with signature [sg] whose
    question had the register file [rs], in order: RA, SP, each
    callee-save register, the result's type, the result's injection.
    The argument region is not among them: it needs the question's
    memory, which a boundary monitor only borrows. *)
let ca_breaches ~sg (rs : Pregfile.t) (r : a_reply) =
  reg_breaches rs r.ar_rs
  @ result_breaches ~mem:r.ar_mem sg.sig_res (ca_result sg r)

(* The answer memory [m'] holds the question's argument region at SP with
   the question's bytes and permission (Fig. 13). *)
let ca_arguments_kept sg (q : a_query) m' =
  let n = 8 * Conventions.size_arguments sg in
  n = 0
  ||
  match Pregfile.get SP q.aq_rs with
  | Vptr (b, base) ->
    let m = q.aq_mem in
    let rec same ofs =
      ofs >= base + n
      || Mem.perm_at m b ofs = Mem.perm_at m' b ofs
         && Memdata.memval_equal (Mem.contents_at m b ofs) (Mem.contents_at m' b ofs)
         && same (ofs + 1)
    in
    Mem.valid_block m b && Mem.valid_block m' b && same base
  | _ -> false

(** {1 The composite [CA = CL · LM · MA : C ⇔ A] (paper §5)}

    Built from the generic composition, with two adjustments that make it
    usable as a {e checking} convention on actual executions:

    - the existential middle questions are witnessed by {e mixed
      decoding}: the signature comes from the source question (it is not
      recoverable from machine-level questions) while the register file,
      stack pointer and memory come from the target question — realizing
      the dual nondeterminism of the calling convention (Appendix A.4);
    - the memory clause is the {e identity-injection fragment} of
      [R* · CA]: the source memory must embed into the target memory
      (every source-accessible location has the same permission and
      contents at the same address in the target, which may additionally
      hold stack frames and other compilation artifacts). The full
      injection worlds of [R*] relate block structures that cannot be
      inferred from two running executions; the identity fragment is the
      canonical witness for components whose remaining memory state is
      shared (globals). *)

(* Source memory embeds identically into target memory. *)
let mem_embeds m1 m2 = Mem.unchanged_on (fun _ _ -> true) m1 m2

type ca_world = {
  ca_sg : signature;
  ca_q : a_query;  (** the target question *)
  ca_src_mem : Mem.t;  (** source memory at the question *)
}

(* Transplant the environment's memory writes — the contents diff between
   the source memories [before] and [after] — onto the target memory.
   Environments that allocate or change permissions are outside the
   identity fragment this convention checks. *)
let transplant_diff ~before ~after ~onto =
  Mem.fold_live_offsets after
    (fun b ofs acc ->
      match acc with
      | None -> None
      | Some m ->
        let c = Mem.contents_at after b ofs in
        if Memdata.memval_equal (Mem.contents_at before b ofs) c then Some m
        else Mem.storebytes m b ofs [ c ])
    (Some onto)

let cc_ca : (ca_world, c_query, a_query, c_reply, a_reply) Simconv.t =
  let infer (q1 : c_query) (q3 : a_query) : ca_world option =
    Some { ca_sg = q1.cq_sg; ca_q = q3; ca_src_mem = q1.cq_mem }
  in
  let chk_query (w : ca_world) (q1 : c_query) (q3 : a_query) =
    let rs = q3.aq_rs and rs0 = w.ca_q.aq_rs in
    Pregfile.get PC rs = q1.cq_vf
    && signature_equal w.ca_sg q1.cq_sg
    && Pregfile.get SP rs = Pregfile.get SP rs0
    && Pregfile.get RA rs = Pregfile.get RA rs0
    && lessdef_list q1.cq_args (ca_arguments w.ca_sg q3)
    (* Source memory embeds into the target memory with the argument
       region carved out (Fig. 13). *)
    && (match free_args w.ca_sg q3.aq_mem (Pregfile.get SP rs) with
       | Some mbar -> mem_embeds q1.cq_mem mbar
       | None -> false)
  in
  let chk_reply (w : ca_world) (r1 : c_reply) (r3 : a_reply) =
    reg_breaches w.ca_q.aq_rs r3.ar_rs = []
    && lessdef r1.cr_res (ca_result w.ca_sg r3)
    && ca_arguments_kept w.ca_sg w.ca_q r3.ar_mem
    (* The source answer memory embeds into the target answer memory. *)
    && mem_embeds r1.cr_mem r3.ar_mem
  in
  let generic = Simconv.compose cc_cl (Simconv.compose cc_lm cc_ma) in
  let fwd_query q1 =
    match generic.Simconv.fwd_query q1 with
    | None -> None
    | Some (_, q3) -> (
      match infer q1 q3 with Some w -> Some (w, q3) | None -> None)
  in
  {
    Simconv.name = "CA";
    chk_query;
    chk_reply;
    fwd_query;
    fwd_reply =
      (fun w r1 ->
        (* Canonical target answer: result placed, callee-saves restored
           from the question, caller-saves clobbered, PC := RA, SP
           restored; the environment's writes land on the question's
           memory, so its argument region is kept. *)
        let rs = w.ca_q.aq_rs in
        let rs' =
          Regfile.return_regs (Pregfile.to_regfile rs) Regfile.init
          |> Regfile.set (Conventions.loc_result w.ca_sg) r1.cr_res
          |> Pregfile.of_regfile
          |> Pregfile.set PC (Pregfile.get RA rs)
          |> Pregfile.set SP (Pregfile.get SP rs)
        in
        match
          transplant_diff ~before:w.ca_src_mem ~after:r1.cr_mem ~onto:w.ca_q.aq_mem
        with
        | Some m' -> Some { ar_rs = rs'; ar_mem = m' }
        | None -> None);
    bwd_reply =
      (fun w r3 -> Some { cr_res = ca_result w.ca_sg r3; cr_mem = r3.ar_mem });
    bwd_query = (fun _ -> None);
    infer_world = infer;
  }

(** [CM = CL · LM : C ⇔ M]. *)
let cc_cm = Simconv.compose cc_cl cc_lm
