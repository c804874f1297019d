(** Tests for the concrete simulation conventions [CL], [LM], [MA], the
    [wt] invariant and the CKLR conventions (paper §5, Appendix B–C). *)

open Memory
open Memory.Mtypes
open Memory.Values
open Target
open Target.Machregs
open Target.Locations
open Core
open Iface.Li
open Iface.Callconv

let check = Alcotest.(check bool)

let sg_iii = { sig_args = [ Tint; Tint; Tint ]; sig_res = Some Tint }

let sg_many =
  { sig_args = List.init 8 (fun _ -> Tint); sig_res = Some Tint }

let mem_with_globals () =
  let m = Mem.empty in
  let m, b = Mem.alloc m 0 16 in
  (m, b)

let c_query_for sg args =
  let m, b = mem_with_globals () in
  { cq_vf = Vptr (b, 0); cq_sg = sg; cq_args = args; cq_mem = m }

let cl_tests =
  [
    Alcotest.test_case "CL marshals register arguments" `Quick (fun () ->
        let q = c_query_for sg_iii [ Vint 1l; Vint 2l; Vint 3l ] in
        match cc_cl.Simconv.fwd_query q with
        | Some (w, lq) ->
          check "args extracted" true
            (Conventions.extract_arguments sg_iii lq.lq_ls
            = [ Vint 1l; Vint 2l; Vint 3l ]);
          check "relation holds" true (cc_cl.Simconv.chk_query w q lq);
          check "regs DI SI DX" true
            (Locset.get (R DI) lq.lq_ls = Vint 1l
            && Locset.get (R SI) lq.lq_ls = Vint 2l
            && Locset.get (R DX) lq.lq_ls = Vint 3l)
        | None -> Alcotest.fail "fwd_query failed");
    Alcotest.test_case "CL marshals stack arguments" `Quick (fun () ->
        let args = List.init 8 (fun i -> Vint (Int32.of_int i)) in
        let q = c_query_for sg_many args in
        match cc_cl.Simconv.fwd_query q with
        | Some (_, lq) ->
          check "7th arg in Outgoing slot 0" true
            (Locset.get (S (Outgoing, 0, Tint)) lq.lq_ls = Vint 6l);
          check "8th arg in Outgoing slot 1" true
            (Locset.get (S (Outgoing, 1, Tint)) lq.lq_ls = Vint 7l)
        | None -> Alcotest.fail "fwd_query failed");
    Alcotest.test_case "CL reply: result read from AX" `Quick (fun () ->
        let q = c_query_for sg_iii [ Vint 1l; Vint 2l; Vint 3l ] in
        let w, _ = Option.get (cc_cl.Simconv.fwd_query q) in
        let ls' = Locset.set (R AX) (Vint 99l) Locset.init in
        let r2 = { lr_ls = ls'; lr_mem = q.cq_mem } in
        (match cc_cl.Simconv.bwd_reply w r2 with
        | Some r1 -> check "99" true (r1.cr_res = Vint 99l)
        | None -> Alcotest.fail "bwd_reply failed");
        check "reply relation" true
          (cc_cl.Simconv.chk_reply w { cr_res = Vint 99l; cr_mem = q.cq_mem } r2));
    Alcotest.test_case "CL fwd_reply preserves callee-save from the call"
      `Quick (fun () ->
        let q = c_query_for sg_iii [ Vint 1l; Vint 2l; Vint 3l ] in
        let w, lq = Option.get (cc_cl.Simconv.fwd_query q) in
        let _, ls0 = w in
        ignore lq;
        let r2 =
          Option.get (cc_cl.Simconv.fwd_reply w { cr_res = Vint 5l; cr_mem = q.cq_mem })
        in
        check "result placed" true (Locset.get (R AX) r2.lr_ls = Vint 5l);
        List.iter
          (fun r ->
            if is_callee_save r then
              check "callee-save" true
                (Locset.get (R r) r2.lr_ls = Locset.get (R r) ls0))
          all_mregs);
  ]

let lm_tests =
  [
    Alcotest.test_case "LM with register-only signature" `Quick (fun () ->
        let q = c_query_for sg_iii [ Vint 1l; Vint 2l; Vint 3l ] in
        let _, lq = Option.get (cc_cl.Simconv.fwd_query q) in
        match cc_lm.Simconv.fwd_query lq with
        | Some (w, mq) ->
          check "regs carried" true
            (Regfile.get DI mq.mq_rs = Vint 1l
            && Regfile.get DX mq.mq_rs = Vint 3l);
          check "no stack block needed" true
            (Mem.nextblock mq.mq_mem = Mem.nextblock lq.lq_mem);
          check "relation" true (cc_lm.Simconv.chk_query w lq mq)
        | None -> Alcotest.fail "fwd failed");
    Alcotest.test_case "LM materializes the argument region" `Quick
      (fun () ->
        let args = List.init 8 (fun i -> Vint (Int32.of_int (10 + i))) in
        let q = c_query_for sg_many args in
        let _, lq = Option.get (cc_cl.Simconv.fwd_query q) in
        match cc_lm.Simconv.fwd_query lq with
        | Some (_, mq) -> (
          match mq.mq_sp with
          | Vptr (b, 0) ->
            check "stack arg 0 in memory" true
              (Mem.load Memdata.Mint32 mq.mq_mem b 0 = Some (Vint 16l));
            check "stack arg 1 in memory" true
              (Mem.load Memdata.Mint32 mq.mq_mem b 8 = Some (Vint 17l))
          | _ -> Alcotest.fail "expected stack pointer")
        | None -> Alcotest.fail "fwd failed");
    Alcotest.test_case "free_args removes permissions (Fig. 13)" `Quick
      (fun () ->
        let args = List.init 8 (fun i -> Vint (Int32.of_int i)) in
        let q = c_query_for sg_many args in
        let _, lq = Option.get (cc_cl.Simconv.fwd_query q) in
        let _, mq = Option.get (cc_lm.Simconv.fwd_query lq) in
        match free_args sg_many mq.mq_mem mq.mq_sp with
        | Some mbar -> (
          match mq.mq_sp with
          | Vptr (b, 0) ->
            check "no longer readable" true
              (Mem.load Memdata.Mint32 mbar b 0 = None);
            check "source cannot write args region" true
              (Mem.store Memdata.Mint32 mbar b 0 (Vint 0l) = None)
          | _ -> Alcotest.fail "expected sp")
        | None -> Alcotest.fail "free_args failed");
    Alcotest.test_case "mix restores the argument region" `Quick (fun () ->
        let args = List.init 8 (fun i -> Vint (Int32.of_int i)) in
        let q = c_query_for sg_many args in
        let _, lq = Option.get (cc_cl.Simconv.fwd_query q) in
        let w, mq = Option.get (cc_lm.Simconv.fwd_query lq) in
        let mbar = Option.get (free_args sg_many mq.mq_mem mq.mq_sp) in
        match mix w.lm_sg w.lm_sp w.lm_mem mbar with
        | Some m' -> (
          match mq.mq_sp with
          | Vptr (b, 0) ->
            check "restored" true
              (Mem.load Memdata.Mint32 m' b 0 = Some (Vint 6l))
          | _ -> Alcotest.fail "expected sp")
        | None -> Alcotest.fail "mix failed");
    Alcotest.test_case "LM reply checks callee-save preservation" `Quick
      (fun () ->
        let q = c_query_for sg_iii [ Vint 1l; Vint 2l; Vint 3l ] in
        let _, lq = Option.get (cc_cl.Simconv.fwd_query q) in
        let w, _ = Option.get (cc_lm.Simconv.fwd_query lq) in
        let ls' = Locset.set (R AX) (Vint 7l) Locset.init in
        let good =
          { mr_rs =
              List.fold_left
                (fun rs r ->
                  if is_callee_save r then
                    Regfile.set r (Regfile.get r w.lm_rs) rs
                  else rs)
                (Regfile.set AX (Vint 7l) Regfile.init)
                all_mregs;
            mr_mem = lq.lq_mem }
        in
        let bad = { good with mr_rs = Regfile.set BX (Vint 0l) good.mr_rs } in
        check "good accepted" true
          (cc_lm.Simconv.chk_reply w { lr_ls = ls'; lr_mem = lq.lq_mem } good);
        check "clobbered callee-save rejected" false
          (cc_lm.Simconv.chk_reply w { lr_ls = ls'; lr_mem = lq.lq_mem } bad));
  ]

let ma_tests =
  [
    Alcotest.test_case "MA installs PC/SP/RA" `Quick (fun () ->
        let q = c_query_for sg_iii [ Vint 1l; Vint 2l; Vint 3l ] in
        let _, lq = Option.get (cc_cl.Simconv.fwd_query q) in
        let _, mq = Option.get (cc_lm.Simconv.fwd_query lq) in
        match cc_ma.Simconv.fwd_query mq with
        | Some (w, aq) ->
          check "pc=vf" true (Pregfile.get PC aq.aq_rs = mq.mq_vf);
          check "sp" true (Pregfile.get SP aq.aq_rs = mq.mq_sp);
          check "ra" true (Pregfile.get RA aq.aq_rs = mq.mq_ra);
          check "mregs carried" true
            (Pregfile.get (Mreg DI) aq.aq_rs = Regfile.get DI mq.mq_rs);
          check "relation" true (cc_ma.Simconv.chk_query w mq aq)
        | None -> Alcotest.fail "fwd failed");
    Alcotest.test_case "MA reply: PC must return to RA, SP restored" `Quick
      (fun () ->
        let q = c_query_for sg_iii [ Vint 1l; Vint 2l; Vint 3l ] in
        let _, lq = Option.get (cc_cl.Simconv.fwd_query q) in
        let _, mq = Option.get (cc_lm.Simconv.fwd_query lq) in
        let w, _ = Option.get (cc_ma.Simconv.fwd_query mq) in
        let rs_good =
          Pregfile.init |> Pregfile.set PC w.ma_ra |> Pregfile.set SP w.ma_sp
          |> Pregfile.set (Mreg AX) (Vint 3l)
        in
        let mr = { mr_rs = Regfile.set AX (Vint 3l) Regfile.init; mr_mem = mq.mq_mem } in
        check "good" true
          (cc_ma.Simconv.chk_reply w mr { ar_rs = rs_good; ar_mem = mq.mq_mem });
        let rs_bad = Pregfile.set PC (Vlong 77L) rs_good in
        check "wrong pc rejected" false
          (cc_ma.Simconv.chk_reply w mr { ar_rs = rs_bad; ar_mem = mq.mq_mem }));
  ]

(* A call at the A interface through CA: seven integer arguments, the
   last passed in the outgoing region at SP. *)
let sg7 = { sig_args = List.init 7 (fun _ -> Tint); sig_res = Some Tint }
let args7 = List.init 7 (fun i -> Vint (Int32.of_int (20 + i)))

let ca_tests =
  [
    Alcotest.test_case "CA reply: the argument region is restored (Fig. 13)"
      `Quick (fun () ->
        let q = c_query_for sg7 args7 in
        let w, aq = Option.get (cc_ca.Simconv.fwd_query q) in
        let r1 = { cr_res = Vint 7l; cr_mem = q.cq_mem } in
        let r3 = Option.get (cc_ca.Simconv.fwd_reply w r1) in
        check "canonical reply accepted" true (cc_ca.Simconv.chk_reply w r1 r3);
        match Pregfile.get SP aq.aq_rs with
        | Vptr (b, ofs) ->
          let overwritten =
            Option.get (Mem.store Memdata.Mint32 r3.ar_mem b ofs (Vint 99l))
          in
          check "overwritten argument slot rejected" false
            (cc_ca.Simconv.chk_reply w r1 { r3 with ar_mem = overwritten });
          let dropped =
            Option.get (Mem.drop_perm r3.ar_mem b ofs (ofs + 8) Readable)
          in
          check "argument slot permission dropped rejected" false
            (cc_ca.Simconv.chk_reply w r1 { r3 with ar_mem = dropped })
        | _ -> Alcotest.fail "expected a stack pointer");
    Alcotest.test_case "ca_breaches: RA, SP, callee-saves, type, injection"
      `Quick (fun () ->
        let _, aq =
          Option.get
            (cc_ca.Simconv.fwd_query (c_query_for sg_iii [ Vint 1l; Vint 2l; Vint 3l ]))
        in
        let wild = Vptr (Mem.nextblock aq.aq_mem + 64, 0) in
        let r = ca_reply ~sg:sg_iii ~res:wild aq in
        check "a wild int is ill-typed and outside the injection" true
          (match ca_breaches ~sg:sg_iii aq.aq_rs r with
          | [ Ill_typed _; Outside_injection _ ] -> true
          | _ -> false);
        let r =
          { r with
            ar_rs =
              r.ar_rs |> Pregfile.set PC (Vlong 9L) |> Pregfile.set SP (Vlong 8L)
              |> Pregfile.set (Mreg BX) (Vint 5l) |> Pregfile.set (Mreg R15) (Vint 6l) }
        in
        check "every breach, in order" true
          (match ca_breaches ~sg:sg_iii aq.aq_rs r with
          | [ Not_to_ra _; Sp_moved _;
              Callee_save_clobbered { reg = BX; _ };
              Callee_save_clobbered { reg = R15; _ };
              Ill_typed _; Outside_injection _ ] -> true
          | _ -> false));
  ]

let wt_tests =
  [
    Alcotest.test_case "wt accepts well-typed queries" `Quick (fun () ->
        let q = c_query_for sg_iii [ Vint 1l; Vint 2l; Vint 3l ] in
        check "ok" true (wt_c.Invariant.query_inv sg_iii q));
    Alcotest.test_case "wt rejects ill-typed arguments" `Quick (fun () ->
        let q = c_query_for sg_iii [ Vint 1l; Vlong 2L; Vint 3l ] in
        check "bad" false (wt_c.Invariant.query_inv sg_iii q));
    Alcotest.test_case "wt reply typing" `Quick (fun () ->
        let m, _ = mem_with_globals () in
        check "int ok" true
          (wt_c.Invariant.reply_inv sg_iii { cr_res = Vint 0l; cr_mem = m });
        check "long bad" false
          (wt_c.Invariant.reply_inv sg_iii { cr_res = Vlong 0L; cr_mem = m }));
    Alcotest.test_case "wt promotion to a convention" `Quick (fun () ->
        let q = c_query_for sg_iii [ Vint 1l; Vint 2l; Vint 3l ] in
        match cc_wt.Simconv.fwd_query q with
        | Some (w, q') ->
          check "diagonal" true (q = q');
          check "chk" true (cc_wt.Simconv.chk_query w q q')
        | None -> Alcotest.fail "fwd failed");
  ]

let cklr_tests =
  [
    Alcotest.test_case "cc_cklr(ext) roundtrip" `Quick (fun () ->
        let cc = cc_cklr (module Cklr.Ext) in
        let q = c_query_for sg_iii [ Vint 1l; Vint 2l; Vint 3l ] in
        match cc.Simconv.fwd_query q with
        | Some (w, q2) ->
          check "chk_query" true (cc.Simconv.chk_query w q q2);
          let r = { cr_res = Vint 9l; cr_mem = q.cq_mem } in
          check "chk_reply" true (cc.Simconv.chk_reply w r r)
        | None -> Alcotest.fail "fwd failed");
    Alcotest.test_case "cc_cklr(inj) accepts lockstep growth" `Quick
      (fun () ->
        let cc = cc_cklr (module Cklr.Inj) in
        let q = c_query_for sg_iii [ Vint 1l; Vint 2l; Vint 3l ] in
        let w, q2 = Option.get (cc.Simconv.fwd_query q) in
        (* The call allocates a block on both sides. *)
        let m1', _ = Mem.alloc q.cq_mem 0 8 in
        let m2', _ = Mem.alloc q2.cq_mem 0 8 in
        check "reply ok" true
          (cc.Simconv.chk_reply w
             { cr_res = Vint 1l; cr_mem = m1' }
             { cr_res = Vint 1l; cr_mem = m2' }));
    Alcotest.test_case "cc_cklr(injp) rejects clobbering protected region"
      `Quick (fun () ->
        let cc = cc_cklr (module Cklr.Injp) in
        let q = c_query_for sg_iii [ Vint 1l; Vint 2l; Vint 3l ] in
        let w, q2 = Option.get (cc.Simconv.fwd_query q) in
        (* Target-side-only block write: out of reach, must be rejected
           when checking reply accessibility (Fig. 9). *)
        let m2', nb = Mem.alloc q2.cq_mem 0 8 in
        let m2'' = Option.get (Mem.store Memdata.Mint32 m2' nb 0 (Vint 1l)) in
        let m1', _ = Mem.alloc q.cq_mem 0 8 in
        ignore m2'';
        (* Lockstep growth with equal contents is fine... *)
        check "lockstep ok" true
          (cc.Simconv.chk_reply w
             { cr_res = Vint 0l; cr_mem = m1' }
             { cr_res = Vint 0l; cr_mem = m2' });
        (* ...but modifying a pre-existing source-unmapped region is not.
           Build a world whose source block is unmapped, then touch it. *)
        let m0 = Mem.empty in
        let m0, a = Mem.alloc m0 0 8 in
        let f = Meminj.empty in
        let w0 = Meminj.injp_world f m0 m0 in
        let m0' = Option.get (Mem.store Memdata.Mint32 m0 a 0 (Vint 5l)) in
        check "unmapped write rejected" false
          (Meminj.injp_acc w0 (Meminj.injp_world f m0' m0)));
  ]

let suite =
  ("callconv", cl_tests @ lm_tests @ ma_tests @ ca_tests @ wt_tests @ cklr_tests)
