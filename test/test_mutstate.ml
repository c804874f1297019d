(** Lockstep tests for the owned memories and the mutable
    execution-state cores.

    Every interpreter of the tower ([semantics]) writes a memory it owns
    between interaction points, and from RTL down also a flat mutable
    register file or locset. Each keeps a reference on the persistent
    model ([semantics_naive]). These tests pin the contracts the owned
    and mutable runs must honor:
    - lockstep: on generated programs and the examples/c corpus, the
      owned and persistent interpreters produce identical rendered
      C-level outcomes at every level from Clight to Mach (Asm
      threaded-vs-naive is covered by test_allocdiff), and on
      examples/c every level's two runs, Asm's included, answer with
      equal memories, neither of them still owned;
    - copy-on-observe: the snapshots the LTS hands out at its
      interaction points (init, at_external) are never aliased to the
      live state a later step writes — the caller's query register
      file and memory, the globally shared [Pregfile.init], and an
      oracle's view of an external call, memory included, must all stay
      bit-identical across the rest of the run, at every level, and no
      question memory is still owned;
    - stuck states: a threaded Asm run that goes wrong in the middle of
      a superstep stops with the PC, register file and memory the naive
      reference stops with, and has no further step;
    - allocation: on examples/c, an LTL or Linear run allocates at most
      2.5 times the minor words of an RTL run of the same query (a
      deterministic count, so a core that goes back to rebuilding its
      locset at every write or call fails here). *)

open Support
open Memory.Values

let check = Alcotest.(check bool)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parses src =
  match Cfrontend.Cparser.parse_program src with
  | _ -> true
  | exception Cfrontend.Cparser.Parse_error _ -> false

let fuel = 2_000_000

(* A level's [semantics] or [semantics_naive], at interface [q]/[r]. *)
type ('s, 'p, 'q, 'r) sem =
  symbols:Ident.t list -> 'p -> ('s, 'q, 'r, 'q, 'r) Core.Smallstep.lts

(* What to make of a level's semantics and program, at C, L or M. *)
type 'a at_level = {
  at_c : 's 'p. ('s, 'p, Iface.Li.c_query, Iface.Li.c_reply) sem -> 'p -> 'a;
  at_l : 's 'p. ('s, 'p, Iface.Li.l_query, Iface.Li.l_reply) sem -> 'p -> 'a;
  at_m : 's 'p. ('s, 'p, Iface.Li.m_query, Iface.Li.m_reply) sem -> 'p -> 'a;
}

(* The eight levels from Clight to Mach, each with [r] applied to its
   owned [semantics] and to its persistent [semantics_naive]. *)
let eight_levels (r : 'a at_level) (arts : Driver.Compiler.artifacts) =
  let module Cl = Cfrontend.Clight in
  let clight mode sem ~symbols = sem ?mode:(Some mode) ~symbols in
  let clight1 sem = r.at_c (clight `Mem_params sem) arts.clight1
  and clight2 sem = r.at_c (clight `Temp_params sem) arts.clight2 in
  [
    ("Clight", clight1 Cl.semantics, clight1 Cl.semantics_naive);
    ("Clight after SimplLocals", clight2 Cl.semantics, clight2 Cl.semantics_naive);
    ( "Csharpminor",
      r.at_c Cfrontend.Csharpminor.semantics arts.csharpminor,
      r.at_c Cfrontend.Csharpminor.semantics_naive arts.csharpminor );
    ( "Cminor",
      r.at_c Middle.Cminor.semantics arts.cminor,
      r.at_c Middle.Cminor.semantics_naive arts.cminor );
    ( "CminorSel",
      r.at_c Middle.Cminorsel.semantics arts.cminorsel,
      r.at_c Middle.Cminorsel.semantics_naive arts.cminorsel );
    ( "RTL",
      r.at_c Middle.Rtl.semantics arts.rtl,
      r.at_c Middle.Rtl.semantics_naive arts.rtl );
    ( "LTL",
      r.at_l Backend.Ltl.semantics arts.ltl_tunneled,
      r.at_l Backend.Ltl.semantics_naive arts.ltl_tunneled );
    ( "Linear",
      r.at_l Backend.Linear.semantics arts.linear_clean,
      r.at_l Backend.Linear.semantics_naive arts.linear_clean );
    ( "Mach",
      r.at_m Backend.Mach.semantics arts.mach,
      r.at_m Backend.Mach.semantics_naive arts.mach );
  ]

(* Compile [src] once; run [main] under the owned and the persistent
   interpreter of each level from Clight to Mach, rendering each C-level
   outcome. *)
let run_levels src =
  let p = Cfrontend.Cparser.parse_program src in
  let symbols = Iface.Ast.prog_defs_names p in
  let arts = Errors.get (Driver.Compiler.compile p) in
  let q = Option.get (Driver.Runners.main_query ~symbols ~defs:p ()) in
  let render o = Format.asprintf "%a" Driver.Runners.pp_c_outcome o in
  let module R = Driver.Runners in
  eight_levels
    {
      at_c = (fun sem p -> Ok (render (R.run_c_level (sem ~symbols p) ~fuel q)));
      at_l = (fun sem p -> Result.map render (R.run_l_level (sem ~symbols p) ~fuel q));
      at_m = (fun sem p -> Result.map render (R.run_m_level (sem ~symbols p) ~fuel q));
    }
    arts

let mutable_matches_naive =
  QCheck.Test.make
    ~name:"mutable and persistent interpreters agree at every level" ~count:15
    Testlib.Test_gen.arb_program (fun src ->
      QCheck.assume (parses src);
      List.for_all
        (fun (level, mut, naive) ->
          if mut = naive then true
          else
            QCheck.Test.fail_reportf
              "%s: mutable and persistent interpreters disagree@.--- program \
               ---@.%s"
              level src)
        (run_levels src))

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ mutable_matches_naive ]

(* --- Snapshot isolation --------------------------------------------- *)

let mem_dump m =
  Memory.Mem.fold_live_offsets m
    (fun b ofs acc -> (b, ofs, Memory.Mem.contents_at m b ofs) :: acc)
    []

let example_files () =
  Sys.readdir "../examples/c" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare

let pp_pregs rs = Format.asprintf "%a" Iface.Li.Pregfile.pp rs
let pp_mregs rs = Format.asprintf "%a" Target.Machregs.Regfile.pp rs

let compile_for src =
  let p = Cfrontend.Cparser.parse_program src in
  let symbols = Iface.Ast.prog_defs_names p in
  let arts = Errors.get (Driver.Compiler.compile p) in
  let q = Option.get (Driver.Runners.main_query ~symbols ~defs:p ()) in
  (symbols, arts, q)

let a_query q =
  match Driver.Runners.cc_ca.Core.Simconv.fwd_query q with
  | Some (_, aq) -> aq
  | None -> Alcotest.fail "CA cannot marshal the query"

let l_query q =
  match Iface.Callconv.cc_cl.Core.Simconv.fwd_query q with
  | Some (_, lq) -> lq
  | None -> Alcotest.fail "CL cannot marshal the query"

let m_query q =
  match Driver.Runners.cc_cm.Core.Simconv.fwd_query q with
  | Some (_, mq) -> mq
  | None -> Alcotest.fail "CM cannot marshal the query"

(* [l]'s answer to [q], with no environment. *)
let answer what l q =
  match Core.Smallstep.run ~fuel l ~oracle:(fun _ -> None) q with
  | Core.Smallstep.Final (_, r) -> r
  | o ->
    Alcotest.failf "%s: %s run did not finish: %a" what l.Core.Smallstep.name
      (Core.Smallstep.pp_outcome (fun _ _ -> ())) o

(* The eight levels on [main]'s query [q], each at its own interface:
   for [semantics] and for [semantics_naive], the memory of the query
   it runs on and a run that returns the memory of its answer. *)
let answer_mems what ~symbols arts q =
  let open Iface.Li in
  let lq = l_query q and mq = m_query q in
  let run sem p q = answer what (sem ~symbols p) q in
  eight_levels
    {
      at_c = (fun sem p -> (q.cq_mem, fun () -> (run sem p q).cr_mem));
      at_l = (fun sem p -> (lq.lq_mem, fun () -> (run sem p lq).lr_mem));
      at_m = (fun sem p -> (mq.mq_mem, fun () -> (run sem p mq).mr_mem));
    }
    arts

(* Minor words of one run of a level, with observability off. *)
let run_words ~symbols q (l : Driver.Pipeline.level) =
  Obs.enabled := false;
  let w0 = Gc.minor_words () in
  ignore (Driver.Pipeline.run_level ~symbols ~fuel q l);
  Gc.minor_words () -. w0

(* [arts_p] with [main]'s body updated. *)
let with_main_code arts_p update =
  {
    arts_p with
    Iface.Ast.prog_defs =
      List.map
        (fun (id, d) ->
          match d with
          | Iface.Ast.Gfun (Iface.Ast.Internal f) when Ident.name id = "main" ->
            (id, Iface.Ast.Gfun (Iface.Ast.Internal (update f)))
          | _ -> (id, d))
        arts_p.Iface.Ast.prog_defs;
  }

(* Labels 1 and 2 each occur twice. [goto 2] and the taken branch to 1
   reach 7 through the first occurrences; the second ones lead to 9. *)
let duplicate_label_tests =
  let open Middle.Op in
  let ax = Target.Machregs.AX in
  let expect name run =
    Alcotest.test_case
      (name ^ ": a branch to a duplicated label takes the first") `Quick
      (fun () ->
        let symbols, arts, q = compile_for "int main(void) { return 0; }" in
        let answer sem =
          match run sem ~symbols arts q with
          | Ok (Core.Smallstep.Final (_, r)) -> r.Iface.Li.cr_res
          | o ->
            Alcotest.failf "no answer: %s"
              (match o with
              | Ok o -> Format.asprintf "%a" Driver.Runners.pp_c_outcome o
              | Error e -> e)
        in
        List.iter
          (fun (core, sem) ->
            check core true (answer sem = Memory.Values.Vint 7l))
          [ ("mutable", `Mutable); ("naive", `Naive) ])
  in
  [
    expect "Linear" (fun sem ~symbols arts q ->
        let module Lin = Backend.Linear in
        let p =
          with_main_code arts.Driver.Compiler.linear_clean (fun f ->
              {
                f with
                Lin.fn_code =
                  [ Lin.Lop (Ointconst 0l, [], ax); Lin.Lgoto 2;
                    Lin.Llabel 1; Lin.Lop (Ointconst 7l, [], ax); Lin.Lreturn;
                    Lin.Llabel 2;
                    Lin.Lcond (Ccompimm (Memory.Mtypes.Ceq, 0l), [ ax ], 1);
                    Lin.Llabel 2; Lin.Llabel 1; Lin.Lop (Ointconst 9l, [], ax);
                    Lin.Lreturn ];
              })
        in
        let sem = match sem with `Mutable -> Lin.semantics | `Naive -> Lin.semantics_naive in
        Driver.Runners.run_l_level (sem ~symbols p) ~fuel q);
    expect "Mach" (fun sem ~symbols arts q ->
        let module M = Backend.Mach in
        let p =
          with_main_code arts.Driver.Compiler.mach (fun f ->
              {
                f with
                M.fn_code =
                  [| M.Mop (Ointconst 0l, [], ax); M.Mgoto 2;
                     M.Mlabel 1; M.Mop (Ointconst 7l, [], ax); M.Mreturn;
                     M.Mlabel 2;
                     M.Mcond (Ccompimm (Memory.Mtypes.Ceq, 0l), [ ax ], 1);
                     M.Mlabel 2; M.Mlabel 1; M.Mop (Ointconst 9l, [], ax);
                     M.Mreturn |];
              })
        in
        let sem = match sem with `Mutable -> M.semantics | `Naive -> M.semantics_naive in
        Driver.Runners.run_m_level (sem ~symbols p) ~fuel q);
  ]

let unit_tests =
  duplicate_label_tests @ [
    Alcotest.test_case
      "LTL and Linear allocate at most 2.5x RTL's words per run on examples/c"
      `Quick (fun () ->
        List.iter
          (fun file ->
            let p =
              Cfrontend.Cparser.parse_program
                (read_file (Filename.concat "../examples/c" file))
            in
            let symbols = Iface.Ast.prog_defs_names p in
            let q = Option.get (Driver.Differential.main_query_of p) in
            let levels = Result.get_ok (Driver.Compiler.compile_levels p) in
            let words name =
              run_words ~symbols q
                (List.find (fun (l : Driver.Pipeline.level) -> l.level = name) levels)
            in
            let rtl = words "rtl_opt" in
            List.iter
              (fun name ->
                let w = words name in
                if w > 2.5 *. rtl then
                  Alcotest.failf "%s: %s allocates %.0f words, %.2fx rtl_opt's %.0f"
                    file name w (w /. rtl) rtl)
              [ "ltl"; "ltl_tunneled"; "linear"; "linear_clean" ])
          (example_files ()));
    Alcotest.test_case
      "mutable and persistent interpreters agree on examples/c" `Quick
      (fun () ->
        let dir = "../examples/c" in
        let files = example_files () in
        check "corpus present" true (files <> []);
        List.iter
          (fun file ->
            let src = read_file (Filename.concat dir file) in
            List.iter
              (fun (level, mut, naive) ->
                check
                  (Printf.sprintf "%s: %s level agrees" file level)
                  true (mut = naive);
                check
                  (Printf.sprintf "%s: %s run completed" file level)
                  true (Result.is_ok mut))
              (run_levels src))
          files);
    Alcotest.test_case
      "init snapshot: a run never writes the caller's register file or memory"
      `Quick (fun () ->
        (* [gcd] writes a global, so a run that wrote its query's memory
           in place would show in the memory's dump. *)
        let src =
          "int calls;\n\
           int gcd(int a, int b) { calls = calls + 1; while (b != 0) { int t = \
           a; a = b; b = t % b; } return a; }\n\
           int main(void) { return gcd(252, 105); }"
        in
        let symbols, arts, q = compile_for src in
        let aq = a_query q in
        let before = pp_pregs aq.Iface.Li.aq_rs and dump = mem_dump aq.Iface.Li.aq_mem in
        ignore (answer "gcd" (Backend.Asm.semantics ~symbols arts.Driver.Compiler.asm) aq);
        check "query register file unscathed" true (pp_pregs aq.Iface.Li.aq_rs = before);
        check "Asm query memory unscathed" true (mem_dump aq.Iface.Li.aq_mem = dump);
        check "global Pregfile.init unscathed" true
          (Array.for_all (fun v -> v = Vundef) Iface.Li.Pregfile.init);
        let mq = m_query q in
        let before = pp_mregs mq.Iface.Li.mq_rs in
        ignore (answer "gcd" (Backend.Mach.semantics ~symbols arts.mach) mq);
        check "Mach query register file unscathed" true
          (pp_mregs mq.Iface.Li.mq_rs = before);
        (* The L level: the CL query's locset shares [Regfile.init]
           (main takes no argument), which must stay all-[Vundef]. *)
        let lq = l_query q in
        let regs = lq.Iface.Li.lq_ls.Target.Locations.Locset.regs in
        let before = pp_mregs regs in
        ignore (answer "gcd" (Backend.Ltl.semantics ~symbols arts.ltl_tunneled) lq);
        check "LTL query registers unscathed" true (pp_mregs regs = before);
        ignore (answer "gcd" (Backend.Linear.semantics ~symbols arts.linear_clean) lq);
        check "Linear query registers unscathed" true (pp_mregs regs = before);
        check "global Regfile.init unscathed" true
          (Array.for_all (fun v -> v = Vundef) Target.Machregs.Regfile.init);
        (* Every level's query memory. The differential runs all the
           levels on one query, so a write in place would reach the
           next level. *)
        List.iter
          (fun (level, (m, run), _) ->
            let dump = mem_dump m and next = Memory.Mem.nextblock m in
            ignore (run ());
            check (level ^ " query memory unscathed") true
              (mem_dump m = dump && Memory.Mem.nextblock m = next))
          (answer_mems "gcd" ~symbols arts q));
    Alcotest.test_case
      "at_external snapshot is not aliased by later mutation" `Quick
      (fun () ->
        (* Two external calls with internal computation between and after
           them, which writes [g]: if [at_external] handed the oracle the
           live register file, locset or memory, the steps after the
           first reply would scribble over the oracle's snapshot. Every
           level runs it. *)
        let src =
          "int g = 3;\n\
           int ext(int x);\n\
           int twice(int x) { return x + x; }\n\
           int main(void) { int a = ext(g); g = twice(a); return ext(g) + g; }"
        in
        let symbols, arts, q = compile_for src in
        let result =
          Target.Conventions.loc_result
            { Memory.Mtypes.sig_args = [ Memory.Mtypes.Tint ];
              sig_res = Some Memory.Mtypes.Tint }
        in
        (* Every question's memory is frozen. The first question's memory
           is kept with its dump, and [show] renders its registers. *)
        let first = ref None in
        let asked level m show =
          check (level ^ ": the question's memory is frozen") false (Memory.Mem.owned m);
          if Option.is_none !first then first := Some (m, mem_dump m, show, show ())
        in
        let ran level outcome =
          (match outcome with
          | Ok (Core.Smallstep.Final _) -> ()
          | Ok o ->
            Alcotest.failf "%s run did not finish: %a" level Driver.Runners.pp_c_outcome o
          | Error e -> Alcotest.failf "%s: marshal error: %s" level e);
          match !first with
          | None -> Alcotest.failf "%s: no external call reached the oracle" level
          | Some (m, dump, show, shown) ->
            first := None;
            check (level ^ ": external-call memory unchanged after the run") true
              (mem_dump m = dump);
            check (level ^ ": external-call registers unchanged after the run") true
              (show () = shown)
        in
        let at_c level l =
          let oracle (cq : Iface.Li.c_query) =
            asked level cq.Iface.Li.cq_mem (fun () -> "");
            Some { Iface.Li.cr_res = Vint 7l; cr_mem = cq.Iface.Li.cq_mem }
          in
          ran level (Ok (Driver.Runners.run_c_level l ~fuel ~oracle q))
        in
        let pp_ls ls = Format.asprintf "%a" Target.Locations.Locset.pp ls in
        let at_l level l =
          let oracle (lq : Iface.Li.l_query) =
            let ls = lq.Iface.Li.lq_ls in
            asked level lq.Iface.Li.lq_mem (fun () -> pp_ls ls);
            Iface.Callconv.cc_cl.Core.Simconv.fwd_reply
              (lq.Iface.Li.lq_sg, ls)
              { Iface.Li.cr_res = Vint 7l; cr_mem = lq.Iface.Li.lq_mem }
          in
          ran level (Driver.Runners.run_l_level l ~fuel ~oracle q)
        in
        let m_oracle (mq : Iface.Li.m_query) =
          let rs = mq.Iface.Li.mq_rs in
          asked "Mach" mq.Iface.Li.mq_mem (fun () -> pp_mregs rs);
          Some
            { Iface.Li.mr_rs = Target.Machregs.Regfile.set result (Vint 7l) rs;
              mr_mem = mq.Iface.Li.mq_mem }
        in
        let a_oracle (aq : Iface.Li.a_query) =
          let rs = aq.Iface.Li.aq_rs in
          asked "Asm" aq.Iface.Li.aq_mem (fun () -> pp_pregs rs);
          let rs' =
            Iface.Li.Pregfile.set Iface.Li.PC
              (Iface.Li.Pregfile.get Iface.Li.RA rs)
              (Iface.Li.Pregfile.set (Iface.Li.Mreg result) (Vint 7l) rs)
          in
          Some { Iface.Li.ar_rs = rs'; ar_mem = aq.Iface.Li.aq_mem }
        in
        let open Driver.Compiler in
        at_c "Clight" (Cfrontend.Clight.semantics ~symbols arts.clight1);
        at_c "Clight after SimplLocals"
          (Cfrontend.Clight.semantics ~mode:`Temp_params ~symbols arts.clight2);
        at_c "Csharpminor" (Cfrontend.Csharpminor.semantics ~symbols arts.csharpminor);
        at_c "Cminor" (Middle.Cminor.semantics ~symbols arts.cminor);
        at_c "CminorSel" (Middle.Cminorsel.semantics ~symbols arts.cminorsel);
        at_c "RTL" (Middle.Rtl.semantics ~symbols arts.rtl);
        at_l "LTL" (Backend.Ltl.semantics ~symbols arts.ltl_tunneled);
        at_l "Linear" (Backend.Linear.semantics ~symbols arts.linear_clean);
        ran "Mach"
          (Driver.Runners.run_m_level (Backend.Mach.semantics ~symbols arts.mach) ~fuel
             ~oracle:m_oracle q);
        ran "Asm"
          (Driver.Runners.run_a_level (Backend.Asm.semantics ~symbols arts.asm) ~fuel
             ~oracle:a_oracle q));
    Alcotest.test_case
      "threaded and naive Asm answer with equal memories on examples/c, as do \
       the other levels' two runs"
      `Quick (fun () ->
        List.iter
          (fun file ->
            let symbols, arts, q =
              compile_for (read_file (Filename.concat "../examples/c" file))
            in
            let aq = a_query q in
            let reply sem = answer file (sem ~symbols arts.Driver.Compiler.asm) aq in
            let t = reply Backend.Asm.semantics and n = reply Backend.Asm.semantics_naive in
            check (file ^ ": reply register files agree") true
              (Iface.Li.Pregfile.equal t.Iface.Li.ar_rs n.Iface.Li.ar_rs);
            List.iter
              (fun (level, owned, naive) ->
                check
                  (Printf.sprintf "%s: %s reply memories agree" file level)
                  true (Memory.Mem.equal owned naive);
                check
                  (Printf.sprintf "%s: %s reply memories are frozen" file level)
                  false (Memory.Mem.owned owned || Memory.Mem.owned naive))
              (("Asm", t.Iface.Li.ar_mem, n.Iface.Li.ar_mem)
              :: List.map
                   (fun (level, (_, run), (_, run_naive)) -> (level, run (), run_naive ()))
                   (answer_mems file ~symbols arts q)))
          (example_files ()));
    Alcotest.test_case
      "owned memory: stores write in place, the query's memory stays intact"
      `Quick (fun () ->
        let src =
          "int a[64];\n\
           int main(void) { for (int k = 0; k < 10; k++) for (int i = 0; i < \
           64; i++) a[i] = a[i] + i; return a[63]; }"
        in
        let symbols, arts, q = compile_for src in
        let aq = a_query q in
        let run sem =
          match
            Core.Smallstep.run ~fuel
              (sem ~symbols arts.Driver.Compiler.asm)
              ~oracle:(fun _ -> None) aq
          with
          | Core.Smallstep.Final (_, ar) -> ar.Iface.Li.ar_mem
          | _ -> Alcotest.fail "asm run did not finish"
        in
        let threaded = run Backend.Asm.semantics in
        let naive = run Backend.Asm.semantics_naive in
        let in_place, copied = Memory.Mem.write_stats threaded in
        check "stores update owned chunks in place" true
          (copied > 0 && in_place > 4 * copied);
        check "the answer's memory is frozen" false (Memory.Mem.owned threaded);
        check "the naive run never owns its memory" true
          (Memory.Mem.write_stats naive = (0, 0));
        check "both runs leave the same memory" true
          (Memory.Mem.equal threaded naive);
        check "the query's memory is unchanged" true
          (Memory.Mem.equal aq.Iface.Li.aq_mem (a_query q).Iface.Li.aq_mem));
  ]

(* --- Stuck states mid-superstep -------------------------------------- *)

(* Step [l] from [aq] until it has no transition: the state it sticks
   in, and the number of transitions it took. *)
let run_until_stuck l aq =
  let rec go s n =
    if n > fuel then Alcotest.fail "no stuck state within the fuel"
    else
      match l.Core.Smallstep.step s with
      | [] -> (s, n)
      | [ (_, s') ] -> go s' (n + 1)
      | _ -> Alcotest.fail "Asm step is not deterministic"
  in
  check "the query is in the domain" true (l.Core.Smallstep.dom aq);
  go (l.Core.Smallstep.init aq) 0

let regs (s : Backend.Asm.state) = s.Backend.Asm.rs
let mem (s : Backend.Asm.state) = s.Backend.Asm.m
let pc_of s = Iface.Li.Pregfile.get Iface.Li.PC (regs s)

(* The threaded and the naive Asm semantics go wrong in the same state —
   same PC, register file and memory, neither final nor at an external
   call — although the threaded one got stuck inside a superstep; and
   stepping the threaded stuck state again finds no transition and
   writes nothing. [pc], when given, is where both must stop. *)
let sticks_alike ?pc ~symbols prog aq =
  let l = Backend.Asm.semantics ~symbols prog in
  let ln = Backend.Asm.semantics_naive ~symbols prog in
  let t, steps_t = run_until_stuck l aq in
  let n, steps_n = run_until_stuck ln aq in
  check "the threaded run fused instructions" true (steps_t < steps_n);
  check "neither run is final" true
    (Option.is_none (l.Core.Smallstep.final t)
    && Option.is_none (ln.Core.Smallstep.final n));
  check "neither run is at an external call" true
    (Option.is_none (l.Core.Smallstep.at_external t)
    && Option.is_none (ln.Core.Smallstep.at_external n));
  check "same PC" true (pc_of t = pc_of n);
  Option.iter (fun pc -> check "PC at the stuck instruction" true (pc_of t = pc)) pc;
  check "same register file" true (Iface.Li.Pregfile.equal (regs t) (regs n));
  check "same memory" true (Memory.Mem.equal (mem t) (mem n));
  let rs = Iface.Li.Pregfile.copy (regs t) in
  check "the stuck state has no step" true (l.Core.Smallstep.step t = []);
  check "stepping it wrote no register" true (Iface.Li.Pregfile.equal (regs t) rs);
  check "stepping it wrote no memory" true (Memory.Mem.equal (mem t) (mem n))

(* C programs whose [main] goes wrong after straight-line code. *)
let stuck_c =
  [
    ( "division by a zero global",
      "int z;\nint main(void) { int a = 7; int b = a * z + 3; return 100 / (b \
       - 3); }" );
    ( "load through a null global pointer",
      "int *p;\nint main(void) { int a = 7; return *p + a; }" );
    ( "store through a null global pointer",
      "int *p;\nint main(void) { int a = 7; *p = a; return a; }" );
    ( "out-of-bounds load after a loop",
      "int a[40];\n\
       int main(void) { int s = 0; for (int i = 0; i < 100; i++) s = s + a[i] \
       + i; return s; }" );
  ]

(* Hand-built Asm for the failure paths C cannot reach: [main] as its
   only function, and the PC it must stop at, given [main]'s block. *)
let stuck_asm =
  let open Backend.Asm in
  let ax = Iface.Li.Mreg Target.Machregs.AX
  and bx = Iface.Li.Mreg Target.Machregs.BX in
  let at pos b = Vptr (b, pos) in
  [
    ( "taken branch to a missing label",
      [ Pallocframe (16, 0, 8); Pop (Middle.Op.Ointconst 1l, [], ax);
        Pop (Middle.Op.Ointconst 2l, [], bx);
        Pop (Middle.Op.Oadd, [ ax; bx ], ax);
        Pjcc (Middle.Op.Ccompimm (Memory.Mtypes.Ceq, 3l), [ ax ], 99);
        Pfreeframe (16, 0, 8); Pret ],
      at 4 );
    ( "falling off the end of the code",
      [ Pallocframe (16, 0, 8); Pop (Middle.Op.Ointconst 1l, [], ax);
        Pop (Middle.Op.Oaddimm 2l, [ ax ], ax) ],
      at 3 );
    ( "ret to a non-code return address",
      [ Pop (Middle.Op.Ointconst 1l, [], ax);
        Pop (Middle.Op.Oaddimm 2l, [ ax ], ax);
        Pop (Middle.Op.Ointconst 5l, [], Iface.Li.RA); Pret ],
      fun _ -> Vint 5l );
    ( "freeframe with a non-pointer SP",
      [ Pallocframe (16, 0, 8); Pop (Middle.Op.Ointconst 1l, [], ax);
        Pop (Middle.Op.Ointconst 0l, [], Iface.Li.SP); Pfreeframe (16, 0, 8);
        Pret ],
      at 3 );
  ]

let asm_main (code : Backend.Asm.instruction list) : Backend.Asm.program =
  let main = Ident.intern "main" in
  {
    Iface.Ast.prog_defs =
      [ ( main,
          Iface.Ast.Gfun
            (Iface.Ast.Internal
               { Backend.Asm.fn_sig = Memory.Mtypes.signature_main;
                 fn_code = Array.of_list code }) ) ];
    prog_main = main;
  }

let stuck_tests =
  List.map
    (fun (name, src) ->
      Alcotest.test_case ("Asm stuck mid-superstep: " ^ name) `Quick
        (fun () ->
          let symbols, arts, q = compile_for src in
          sticks_alike ~symbols arts.Driver.Compiler.asm (a_query q)))
    stuck_c
  @ List.map
      (fun (name, code, stop) ->
        Alcotest.test_case ("Asm stuck mid-superstep: " ^ name)
          `Quick (fun () ->
            let prog = asm_main code in
            let symbols = Iface.Ast.prog_defs_names prog in
            let q = Option.get (Driver.Runners.main_query ~symbols ~defs:prog ()) in
            match q.Iface.Li.cq_vf with
            | Vptr (b, 0) -> sticks_alike ~pc:(stop b) ~symbols prog (a_query q)
            | _ -> Alcotest.fail "main is not code"))
      stuck_asm

let suite = ("mutstate", qcheck_tests @ unit_tests @ stuck_tests)
