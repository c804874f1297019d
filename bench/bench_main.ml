(** Benchmark and evaluation harness.

    Regenerates the content of every table and figure of the paper's
    evaluation (see DESIGN.md §6 and EXPERIMENTS.md):

    - Table 1: notation summary (generated from the framework);
    - Table 2: language interfaces (from the [Iface] metadata);
    - Table 3: passes, conventions, SLOC, and per-pass compile time;
    - Table 4: taxonomy of semantic models, each demonstrated executable;
    - Table 5: component SLOC breakdown;
    - Fig. 1: the mult/sqr separate-compilation example;
    - Fig. 4: memory-model operation micro-benchmarks;
    - Fig. 5: horizontal composition vs syntactic linking overhead;
    - Fig. 9: injp accessibility checking;
    - Figs. 10/11: the Thm 3.8 derivation (step counts);
    - Fig. 13: argument-region protection.

    Timings are measured with Bechamel (OLS estimate of ns/run). The
    paper's Tables 3/5 report SLOC overhead against CompCert v3.6; our
    substrate is a fresh implementation, so we report our own absolute
    SLOC per pass/component — the reproduced {e shape} is the pass ↦
    convention assignment and the component breakdown. *)

open Support
open Memory.Values
open Iface

(* ------------------------------------------------------------------ *)
(* Bechamel helpers                                                    *)
(* ------------------------------------------------------------------ *)

(* Sampling quota per Bechamel estimate, set from [main]'s [runs]:
   0.02s x runs, so the historical default (runs = 20) keeps the 0.4s
   quota while `--runs 5` is a four-times-faster CI smoke. *)
let sample_quota_s = ref 0.4

let estimate_once name quota_s (f : unit -> unit) : float =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota_s) () in
  let tbl = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock tbl in
  match Hashtbl.fold (fun _ v _ -> Some v) results None with
  | Some o -> (
    match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> Float.nan)
  | None -> Float.nan

(* One OLS estimate absorbs whatever else the machine ran during its
   quota, so on a shared box consecutive estimates of the same workload
   spread by tens of percent. The best of three independent estimates
   (same total sampling budget) is the least-contended measurement —
   the reproducible quantity a regression gate can compare across
   commits. *)
let estimate_ns name (f : unit -> unit) : float =
  let q = !sample_quota_s /. 3. in
  let es =
    List.filter (fun e -> not (Float.is_nan e))
      [ estimate_once name q f; estimate_once name q f; estimate_once name q f ]
  in
  match es with [] -> Float.nan | e :: rest -> List.fold_left Float.min e rest

let pp_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let section title =
  Format.printf "@.==================================================================@.";
  Format.printf "%s@." title;
  Format.printf "==================================================================@."

let table rows = print_string (Pp_util.render_table rows)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let workload_src =
  {|
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int arr[16] = {3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3};
void sort(int *a, int n) {
  for (int i = 0; i < n; i++)
    for (int j = 0; j + 1 < n - i; j++)
      if (a[j] > a[j+1]) { int t = a[j]; a[j] = a[j+1]; a[j+1] = t; }
}
int checksum(int *a, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s = s * 31 + a[i];
  return s;
}
int wide(int a,int b,int c,int d,int e,int f,int g,int h) {
  return a+b+c+d+e+f+g+h;
}
/* small leaf: inlinable */
int sq(int x) { return x * x; }
/* accumulator loop in tail position: tail-call shape */
int iter(int n, int acc) { if (n == 0) return acc; return iter(n - 1, acc + sq(n)); }
int main(void) {
  sort(arr, 16);
  return checksum(arr, 16) + fib(12) + wide(1,2,3,4,5,6,7,8) + iter(50, 0);
}
|}

(* Forced on first use, not at module initialization: the bench body
   is linked into occo (for `occo bench`), and other subcommands must
   not pay for — or crash on — the workload compile at startup. *)
let workload_l = lazy (Cfrontend.Cparser.parse_program workload_src)
let workload () = Lazy.force workload_l
let workload_symbols_l = lazy (Ast.prog_defs_names (workload ()))
let workload_symbols () = Lazy.force workload_symbols_l
let workload_arts_l = lazy (Errors.get (Driver.Compiler.compile (workload ())))
let workload_arts () = Lazy.force workload_arts_l

let workload_query_l =
  lazy
    (Option.get
       (Driver.Runners.main_query ~symbols:(workload_symbols ())
          ~defs:(workload ()) ()))

let workload_query () = Lazy.force workload_query_l

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: summary of notations (as realized in this library)";
  table
    [
      [ "Notation"; "Realization"; "Module" ];
      [ "R in R(S1,S2)"; "executable relation"; "Core.Simconv" ];
      [ "Kripke relation (Def 2.5)"; "world-indexed checker"; "Core.Cklr" ];
      [ "CompCert KLR (sec 4.4)"; "module type CKLR"; "Core.Cklr" ];
      [ "language interface (Def 2.1)"; "query/reply types"; "Iface.Li" ];
      [ "R : A1 <=> A2 (Def 2.6)"; "Simconv.t record"; "Core.Simconv" ];
      [ "L : A ->> B (Def 3.1)"; "Smallstep.lts record"; "Core.Smallstep" ];
      [ "L1 (+) L2 (Def 3.2)"; "Hcomp.compose"; "Core.Hcomp" ];
      [ "L1 <=_{R->>S} L2 (Def 3.3)"; "co-execution checking"; "Core.Coexec" ];
    ]

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: language interfaces used in CompCertO";
  table
    [
      [ "Name"; "Question"; "Answer"; "Used by" ];
      [ "C"; "vf[sg](args)@m"; "v'@m'"; "Clight ... RTL" ];
      [ "L"; "vf[sg](locset)@m"; "locset'@m'"; "LTL, Linear" ];
      [ "M"; "vf(sp,ra,regs)@m"; "regs'@m'"; "Mach" ];
      [ "A"; "regs@m (incl. PC SP RA)"; "regs'@m'"; "Asm" ];
      [ "1"; "(none)"; "(none)"; "closed processes" ];
      [ "W"; "*"; "exit status"; "whole programs" ];
    ]

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

(* Per-pass compile time on the workload, sourced from the shared
   metrics registry: run the instrumented front end and pipeline a few
   times and read back the duration and allocation histograms the
   driver itself records ([cfrontend.parse*] and [pass.*]) — the bench
   no longer times passes on its own. *)
let pass_hist_runs = ref 20

let warm_pass_histograms () =
  Obs.with_enabled (fun () ->
      for _ = 1 to !pass_hist_runs do
        match Driver.Compiler.parse_diag workload_src with
        | Ok p -> ignore (Driver.Compiler.compile p)
        | Error d -> failwith (Diagnostics.to_string d)
      done)

let pass_time_ns name =
  Option.map
    (fun (s : Obs.Metrics.stats) -> s.Obs.Metrics.mean *. 1e3)
    (Obs.Metrics.histogram_stats ("pass." ^ name))

let table3 () =
  section
    "Table 3: passes of CompCertO (conventions as in the paper; SLOC of our \
     implementation; per-pass compile time on the workload)";
  warm_pass_histograms ();
  table
    ([ "Pass"; "Outgoing ->> Incoming"; "SLOC"; "Compile time" ]
    :: List.map
         (fun (p : Convalg.Derive.pass_info) ->
           let t =
             match pass_time_ns p.Convalg.Derive.pass_name with
             | Some ns -> pp_ns ns
             | None -> "-"
           in
           [
             (p.Convalg.Derive.pass_name
             ^ if p.Convalg.Derive.optional then " (+)" else "");
             Printf.sprintf "%s ->> %s"
               (Convalg.Cterm.to_string p.Convalg.Derive.outgoing)
               (Convalg.Cterm.to_string p.Convalg.Derive.incoming);
             string_of_int (Sloccount.Sloc.measure_pass p.Convalg.Derive.pass_name);
             t;
           ])
         (Driver.Pipeline.passes Driver.Compiler.all_optims));
  Format.printf
    "(+) = optional optimization, as in the paper. Conventions per pass@.match Table 3 of the paper exactly; see Driver.Pipeline.full.@."

(* ------------------------------------------------------------------ *)
(* Table 4                                                             *)
(* ------------------------------------------------------------------ *)

let table4 () =
  section "Table 4: taxonomy of CompCert extensions (semantic models)";
  table
    [
      [ "Variant"; "Semantic model"; "Demonstrated here by" ];
      [ "(Sep)CompCert"; "chi: 1->>C |- 1->>W"; "Core.Closed (run below)" ];
      [ "CompCertX"; "chi: 1->>CxA |- 1->>CxA"; "(contextual; not built)" ];
      [ "Comp. CompCert"; "C ->> C"; "Clight/RTL semantics" ];
      [ "CompCertM"; "CxA ->> CxA"; "(RUSC; not built)" ];
      [ "CompCertO"; "A ->> A for A in L"; "all 9 language semantics" ];
    ];
  (* Demonstrate the three model shapes on the workload. *)
  let src = Cfrontend.Clight.semantics ~symbols:(workload_symbols ()) (workload ()) in
  let closed =
    Core.Closed.close src ~entry:(workload_query ())
      ~decode:(fun r -> match r.Li.cr_res with Vint n -> Some n | _ -> None)
  in
  (match Core.Smallstep.run ~fuel:10_000_000 closed ~oracle:(fun _ -> None) () with
  | Core.Smallstep.Final (_, code) ->
    Format.printf "closed 1->>W run of the workload: exit status %ld@." code
  | _ -> Format.printf "closed run: unexpected outcome@.");
  (match Driver.Runners.run_c_level src ~fuel:10_000_000 (workload_query ()) with
  | Core.Smallstep.Final (_, r) ->
    Format.printf "open C->>C run of the workload: answer %a@." pp r.Li.cr_res
  | _ -> Format.printf "open C run: unexpected outcome@.");
  match
    Driver.Runners.run_a_level
      (Backend.Asm.semantics ~symbols:(workload_symbols ())
         (workload_arts ()).Driver.Compiler.asm)
      ~fuel:10_000_000 (workload_query ())
  with
  | Ok (Core.Smallstep.Final (_, r)) ->
    Format.printf "open A->>A run of the workload: answer %a@." pp r.Li.cr_res
  | _ -> Format.printf "open A run: unexpected outcome@."

(* ------------------------------------------------------------------ *)
(* Table 5                                                             *)
(* ------------------------------------------------------------------ *)

let table5 () =
  section "Table 5: significant lines of code per component (this repository)";
  let rows = Sloccount.Sloc.measure_table5 () in
  table
    ([ "Component"; "SLOC" ]
    :: List.map (fun (n, c) -> [ n; string_of_int c ]) rows);
  Format.printf "Total (whole repository, .ml files): %d SLOC@."
    (Sloccount.Sloc.measure_total ())

(* ------------------------------------------------------------------ *)
(* Fig. 1                                                              *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "Fig. 1: mult/sqr compiled separately, composed and linked";
  let unit_a = "int mult(int n, int p) { return n * p; }" in
  let unit_b = "int mult(int n, int p); int sqr(int n) { return mult(n, n); }" in
  let pa = Cfrontend.Cparser.parse_program unit_a in
  let pb = Cfrontend.Cparser.parse_program unit_b in
  match
    Driver.Linking.separate_compilation_experiment ~fuel:100_000 [ pa; pb ]
      ~query:(fun symbols ->
        match
          Ast.link_list ~internal_sig:Cfrontend.Csyntax.fn_sig [ pa; pb ]
        with
        | Error _ -> None
        | Ok linked -> (
          let ge = Genv.globalenv ~symbols linked in
          match
            ( Genv.find_symbol ge (Ident.intern "sqr"),
              Genv.init_mem ~symbols linked )
          with
          | Some b, Some m ->
            Some
              { Li.cq_vf = Vptr (b, 0);
                cq_sg =
                  { Memory.Mtypes.sig_args = [ Memory.Mtypes.Tint ];
                    sig_res = Some Memory.Mtypes.Tint };
                cq_args = [ Vint 3l ]; cq_mem = m }
          | _ -> None))
  with
  | Ok e ->
    Format.printf "Clight(A.c) (+) Clight(B.c) on sqr(3): %a@."
      Driver.Runners.pp_c_outcome e.Driver.Linking.exp_composed;
    Format.printf "Asm(A.s + B.s)              on sqr(3): %a@."
      Driver.Runners.pp_c_outcome e.Driver.Linking.exp_linked;
    Format.printf "Cor. 3.9 instance: %s@."
      (if e.Driver.Linking.exp_agree then "HOLDS" else "VIOLATED")
  | Error e -> Format.printf "error: %s@." e

(* ------------------------------------------------------------------ *)
(* Fig. 4: memory model micro-benchmarks                               *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "Fig. 4: memory model operations (micro-benchmarks)";
  let m0 = Memory.Mem.empty in
  let m1, b = Memory.Mem.alloc m0 0 64 in
  let m2 = Option.get (Memory.Mem.store Memory.Memdata.Mint64 m1 b 0 (Vlong 7L)) in
  table
    [
      [ "Operation"; "Estimated time" ];
      [ "alloc (64 bytes)";
        pp_ns (estimate_ns "alloc" (fun () -> ignore (Memory.Mem.alloc m2 0 64))) ];
      [ "store int64";
        pp_ns
          (estimate_ns "store" (fun () ->
               ignore (Memory.Mem.store Memory.Memdata.Mint64 m2 b 8 (Vlong 1L))))
      ];
      [ "load int64";
        pp_ns
          (estimate_ns "load" (fun () ->
               ignore (Memory.Mem.load Memory.Memdata.Mint64 m2 b 0))) ];
      [ "free (64 bytes)";
        pp_ns (estimate_ns "free" (fun () -> ignore (Memory.Mem.free m2 b 0 64)))
      ];
      [ "mem_inject check (2 blocks)";
        pp_ns
          (estimate_ns "inject" (fun () ->
               let f = Memory.Meminj.id_below (Memory.Mem.nextblock m2) in
               ignore (Memory.Meminj.mem_inject f m2 m2))) ];
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 5: horizontal composition vs linked execution                  *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "Fig. 5: horizontal composition (+) vs syntactic linking";
  let unit_a =
    "int helper(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }"
  in
  let unit_b =
    "int helper(int n); int driver(int k) { int s = 0; for (int i = 0; i < k; i++) s += helper(20); return s; }"
  in
  let pa = Cfrontend.Cparser.parse_program unit_a in
  let pb = Cfrontend.Cparser.parse_program unit_b in
  let asm_a = Errors.get (Driver.Compiler.compile_c_to_asm unit_a) in
  let asm_b = Errors.get (Driver.Compiler.compile_c_to_asm unit_b) in
  let symbols =
    Driver.Linking.shared_symbols [ Ast.prog_defs_names pa; Ast.prog_defs_names pb ]
  in
  let linked = Errors.get (Backend.Asm.link asm_a asm_b) in
  let q =
    let ge = Genv.globalenv ~symbols linked in
    let m =
      Option.get
        (Genv.init_mem ~symbols
           (Errors.get
              (Ast.link_list ~internal_sig:Cfrontend.Csyntax.fn_sig [ pa; pb ])))
    in
    { Li.cq_vf = Genv.symbol_address ge (Ident.intern "driver") 0;
      cq_sg =
        { Memory.Mtypes.sig_args = [ Memory.Mtypes.Tint ];
          sig_res = Some Memory.Mtypes.Tint };
      cq_args = [ Vint 50l ]; cq_mem = m }
  in
  let la = Backend.Asm.semantics ~symbols asm_a in
  let lb = Backend.Asm.semantics ~symbols asm_b in
  let composed = Core.Hcomp.compose la lb in
  let l_linked = Backend.Asm.semantics ~symbols linked in
  let t_comp =
    estimate_ns "hcomp" (fun () ->
        ignore (Driver.Runners.run_a_level composed ~fuel:10_000_000 q))
  in
  let t_link =
    estimate_ns "linked" (fun () ->
        ignore (Driver.Runners.run_a_level l_linked ~fuel:10_000_000 q))
  in
  table
    [
      [ "Semantics"; "Run time (driver(50), 50 cross-module calls)" ];
      [ "Asm(A) (+) Asm(B)"; pp_ns t_comp ];
      [ "Asm(A + B)"; pp_ns t_link ];
    ];
  Format.printf
    "Both yield the same answers (Thm 3.5); the composite pays the push/pop@.bookkeeping of Fig. 5 per cross-component call.@."

(* ------------------------------------------------------------------ *)
(* Fig. 9: injp accessibility                                          *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  section "Fig. 9: injp world accessibility (protection checking)";
  let m1 = Memory.Mem.empty in
  let m1, a = Memory.Mem.alloc m1 0 32 in
  let m1, bprot = Memory.Mem.alloc m1 0 32 in
  let f = Memory.Meminj.add a a 0 Memory.Meminj.empty in
  let w = Memory.Meminj.injp_world f m1 m1 in
  let ok_growth =
    let m1', na = Memory.Mem.alloc m1 0 8 in
    let f' = Memory.Meminj.add na na 0 f in
    Memory.Meminj.injp_acc w (Memory.Meminj.injp_world f' m1' m1')
  in
  let bad_clobber =
    let m1' =
      Option.get (Memory.Mem.store Memory.Memdata.Mint32 m1 bprot 0 (Vint 1l))
    in
    Memory.Meminj.injp_acc w (Memory.Meminj.injp_world f m1' m1)
  in
  Format.printf "lockstep allocation accepted:            %b (expected true)@."
    ok_growth;
  Format.printf "write to unmapped (protected) region:    %b (expected false)@."
    bad_clobber;
  Format.printf "injp_acc check time: %s@."
    (pp_ns (estimate_ns "injp_acc" (fun () -> ignore (Memory.Meminj.injp_acc w w))))

(* ------------------------------------------------------------------ *)
(* Figs. 10/11: the Thm 3.8 derivation                                 *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  section "Figs. 10-11: deriving the uniform convention C (Thm 3.8)";
  let passes = Driver.Pipeline.passes Driver.Compiler.all_optims in
  let out, inc = Convalg.Derive.thm_3_8 passes in
  Format.printf "outgoing side: %d rewriting steps, reached C: %b@."
    (List.length out.Convalg.Derive.trace.Convalg.Derive.steps)
    out.Convalg.Derive.ok;
  Format.printf "incoming side: %d rewriting steps, reached C: %b@."
    (List.length inc.Convalg.Derive.trace.Convalg.Derive.steps)
    inc.Convalg.Derive.ok;
  Format.printf "C = %a@." Convalg.Cterm.pp Convalg.Cterm.uniform_c;
  Format.printf
    "(run `occo derive` or examples/convention_derivation.exe for the full trace)@.";
  Format.printf "derivation time: %s@."
    (pp_ns (estimate_ns "derive" (fun () -> ignore (Convalg.Derive.thm_3_8 passes))))

(* ------------------------------------------------------------------ *)
(* Fig. 13: argument-region protection in LM                           *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  section "Fig. 13: LM separates the argument region from the source memory";
  let sg_many =
    { Memory.Mtypes.sig_args = List.init 8 (fun _ -> Memory.Mtypes.Tint);
      sig_res = Some Memory.Mtypes.Tint }
  in
  let m = Memory.Mem.empty in
  let m, fb = Memory.Mem.alloc m 0 1 in
  let q =
    { Li.cq_vf = Vptr (fb, 0); cq_sg = sg_many;
      cq_args = List.init 8 (fun i -> Vint (Int32.of_int i)); cq_mem = m }
  in
  match Iface.Callconv.cc_cl.Core.Simconv.fwd_query q with
  | None -> Format.printf "CL marshaling failed@."
  | Some (_, lq) -> (
    match Iface.Callconv.cc_lm.Core.Simconv.fwd_query lq with
    | None -> Format.printf "LM marshaling failed@."
    | Some (w, mq) -> (
      match Iface.Callconv.free_args sg_many mq.Li.mq_mem mq.Li.mq_sp with
      | None -> Format.printf "free_args failed@."
      | Some mbar -> (
        match mq.Li.mq_sp with
        | Vptr (b, _) -> (
          Format.printf
            "argument region readable at M level:         %b (expected true)@."
            (Memory.Mem.load Memory.Memdata.Mint32 mq.Li.mq_mem b 0 <> None);
          Format.printf
            "argument region readable at L level (m-bar): %b (expected false)@."
            (Memory.Mem.load Memory.Memdata.Mint32 mbar b 0 <> None);
          Format.printf
            "source store into the args region blocked:   %b (expected true)@."
            (Memory.Mem.store Memory.Memdata.Mint32 mbar b 0 (Vint 0l) = None);
          match
            Iface.Callconv.mix w.Iface.Callconv.lm_sg w.Iface.Callconv.lm_sp
              w.Iface.Callconv.lm_mem mbar
          with
          | Some m' ->
            Format.printf
              "mix restores the region (first stack arg):   %s (expected 6)@."
              (match Memory.Mem.load Memory.Memdata.Mint32 m' b 0 with
              | Some (Vint n) -> Int32.to_string n
              | _ -> "?")
          | None -> Format.printf "mix failed@.")
        | _ -> Format.printf "no stack pointer@.")))

(* ------------------------------------------------------------------ *)
(* Compilation and execution benchmarks                                *)
(* ------------------------------------------------------------------ *)

let bench_pipeline () =
  section "Whole-pipeline benchmarks (workload: sort+fib+checksum)";
  let t_compile =
    estimate_ns "compile" (fun () -> ignore (Driver.Compiler.compile (workload ())))
  in
  let t_compile_o0 =
    estimate_ns "compile-O0" (fun () ->
        ignore (Driver.Compiler.compile ~options:Driver.Compiler.no_optims (workload ())))
  in
  let src = Cfrontend.Clight.semantics ~symbols:(workload_symbols ()) (workload ()) in
  let asm =
    Backend.Asm.semantics ~symbols:(workload_symbols ()) (workload_arts ()).Driver.Compiler.asm
  in
  let t_src =
    estimate_ns "interp-clight" (fun () ->
        ignore (Driver.Runners.run_c_level src ~fuel:10_000_000 (workload_query ())))
  in
  let t_asm =
    estimate_ns "interp-asm" (fun () ->
        ignore (Driver.Runners.run_a_level asm ~fuel:10_000_000 (workload_query ())))
  in
  (* Feed the whole-pipeline numbers into the shared registry so they
     land in BENCH_pipeline.json next to the per-pass histograms. Gauges
     use microseconds, like the pass histograms ([*_us]). *)
  (* Decode-cache effectiveness of the direct-threaded interpreter: the
     repeated interp-asm runs above hit the per-function decode cache
     after the first, so the rate should sit near 1.0. Exported as a
     dimensionless gauge so CI can assert the cache is actually wired
     in, not silently bypassed. *)
  let dc_lookups, dc_misses = Backend.Asm.decode_cache_stats () in
  let dc_hit_rate =
    if dc_lookups = 0 then 0.
    else float_of_int (dc_lookups - dc_misses) /. float_of_int dc_lookups
  in
  Obs.with_enabled (fun () ->
      Obs.Metrics.set_gauge "bench.compile_us" (t_compile /. 1e3);
      Obs.Metrics.set_gauge "bench.compile_O0_us" (t_compile_o0 /. 1e3);
      Obs.Metrics.set_gauge "bench.interp_clight_us" (t_src /. 1e3);
      Obs.Metrics.set_gauge "bench.interp_asm_us" (t_asm /. 1e3);
      Obs.Metrics.set_gauge "asm.decode_cache.hit_rate" dc_hit_rate);
  table
    [
      [ "Measurement"; "Time" ];
      [ "full compilation (18 passes)"; pp_ns t_compile ];
      [ "compilation without optional passes"; pp_ns t_compile_o0 ];
      [ "Clight interpretation of the workload"; pp_ns t_src ];
      [ "Asm interpretation (through convention C)"; pp_ns t_asm ];
      [
        "Asm decode-cache hit rate";
        Printf.sprintf "%.1f%% (%d lookups)" (100. *. dc_hit_rate) dc_lookups;
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Ablation: the effect of each optional optimization                  *)
(* ------------------------------------------------------------------ *)

let asm_size (p : Backend.Asm.program) =
  List.fold_left
    (fun acc (_, d) ->
      match d with
      | Ast.Gfun (Ast.Internal f) -> acc + Array.length f.Backend.Asm.fn_code
      | _ -> acc)
    0 p.Ast.prog_defs

(* Count the dynamic steps of an Asm run. *)
let asm_steps (p : Backend.Asm.program) q =
  let l = Backend.Asm.semantics ~symbols:(workload_symbols ()) p in
  match Driver.Runners.cc_ca.Core.Simconv.fwd_query q with
  | Some (_, aq) when l.Core.Smallstep.dom aq ->
    let rec go n s =
      if n > 10_000_000 then n
      else
        match l.Core.Smallstep.final s with
        | Some _ -> n
        | None -> (
          match l.Core.Smallstep.step s with
          | (_, s') :: _ -> go (n + 1) s'
          | [] -> n)
    in
    go 0 (l.Core.Smallstep.init aq)
  | _ -> -1

let ablation () =
  section
    "Ablation: optional passes of Table 3 (code size and dynamic steps on \
     the workload)";
  let variants =
    let base = Driver.Compiler.all_optims in
    let optional =
      List.filter (fun p -> p.Convalg.Derive.optional) (Driver.Pipeline.passes base)
    in
    (("all optimizations", base)
    :: List.map
         (fun (p : Convalg.Derive.pass_info) ->
           ("no " ^ p.pass_name, Driver.Pipeline.without (( = ) p) base))
         optional)
    @ [ ("none (-O0)", Driver.Compiler.no_optims) ]
  in
  let rows =
    List.map
      (fun (name, options) ->
        match Driver.Compiler.compile ~options (workload ()) with
        | Ok arts ->
          let size = asm_size arts.Driver.Compiler.asm in
          let steps = asm_steps arts.Driver.Compiler.asm (workload_query ()) in
          [ name; string_of_int size; string_of_int steps ]
        | Error e -> [ name; "error: " ^ e; "-" ])
      variants
  in
  table ([ "Variant"; "Asm instructions"; "Dynamic steps" ] :: rows);
  Format.printf
    "All variants compute the same answer (checked by the no-optim rows of@.the test suite); the conventions of Thm 3.8 are insensitive to the@.optional passes (paper section 3.4, tested in test_convalg).@."

(* ------------------------------------------------------------------ *)
(* The compile service's cache: cold vs warm throughput                *)
(* ------------------------------------------------------------------ *)

(* Warm rounds over the service cache, set from [main]'s [runs]
   (runs * 5 / 2, so the default keeps the historical 50). *)
let serve_warm_rounds = ref 50

(* Distinct small programs so each cold request is a genuine miss (the
   cache is content-addressed: same source would hit). *)
let serve_source i =
  Printf.sprintf
    "int f%d(int a, int b) { int i; int acc; acc = %d; for (i = 0; i < b; \
     i = i + 1) { acc = acc + a * i; } return acc; }\n\
     int main(void) { return f%d(%d, 7); }\n"
    i i i (i + 3)

let bench_serve () =
  section "Compile service: content-addressed cache, cold vs warm";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "occo-bench-cache-%d" (Unix.getpid ()))
  in
  let cache = Service.Cache.open_store dir in
  let n = 8 in
  let sources = List.init n serve_source in
  let compile_all () =
    List.iter
      (fun source ->
        match
          Service.Engine.compile_cached cache ~source ~optimize:true ()
        with
        | Ok _ -> ()
        | Error d ->
          Format.printf "bench serve: compile failed: %a@."
            Support.Diagnostics.pp d)
      sources
  in
  (* Cold: every request runs the full pipeline (and pays the atomic
     fsync'd cache writes). One-shot by nature — a repeat would hit. *)
  let t0 = Obs.now_us () in
  compile_all ();
  let cold_us = Obs.now_us () -. t0 in
  (* Warm: the same requests served from verified summary entries — the
     daemon's no-fork fast path. Sustained over many rounds. *)
  let rounds = !serve_warm_rounds in
  let t1 = Obs.now_us () in
  for _ = 1 to rounds do
    compile_all ()
  done;
  let warm_us = Obs.now_us () -. t1 in
  let cold_req_us = cold_us /. float_of_int n in
  let warm_req_us = warm_us /. float_of_int (n * rounds) in
  let cold_jps = 1e6 /. cold_req_us and warm_jps = 1e6 /. warm_req_us in
  Obs.with_enabled (fun () ->
      (* Time-like keys ride the normal bench-diff gate; the jobs/sec
         gauges are throughput (an increase is good) and get a
         permissive --key override in CI. *)
      Obs.Metrics.set_gauge "serve.cold_req_us" cold_req_us;
      Obs.Metrics.set_gauge "serve.warm_req_us" warm_req_us;
      Obs.Metrics.set_gauge "serve.jobs_per_s_cold" cold_jps;
      Obs.Metrics.set_gauge "serve.jobs_per_s_warm" warm_jps);
  table
    [
      [ "Path"; "per request"; "jobs/sec" ];
      [ "cold (full pipeline + cache write)"; pp_ns (cold_req_us *. 1e3);
        Printf.sprintf "%.0f" cold_jps ];
      [ "warm (verified summary hit)"; pp_ns (warm_req_us *. 1e3);
        Printf.sprintf "%.0f" warm_jps ];
    ];
  Format.printf "warm/cold speedup: %.1fx (gate: >= 5x)@."
    (cold_req_us /. warm_req_us);
  (* Scrub the throwaway store. *)
  let rm_all d =
    Array.iter
      (fun f ->
        try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (try Sys.readdir d with Sys_error _ -> [||])
  in
  rm_all (Filename.concat dir "quarantine");
  rm_all dir;
  (try Unix.rmdir (Filename.concat dir "quarantine") with Unix.Unix_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Machine-readable output                                             *)
(* ------------------------------------------------------------------ *)

(* The perf trajectory across PRs: a snapshot of the shared metrics
   registry (per-pass duration histograms recorded by the driver, plus
   the bench.* gauges above), stamped with run provenance under "meta"
   — which `occo bench-diff` ignores. Schema documented in
   EXPERIMENTS.md. *)

let run_meta () =
  let line_of cmd =
    try
      let ic = Unix.open_process_in cmd in
      let l = try input_line ic with End_of_file -> "" in
      (match Unix.close_process_in ic with _ -> ());
      if l = "" then None else Some l
    with _ -> None
  in
  let git_rev =
    Option.value ~default:"unknown"
      (line_of "git rev-parse --short HEAD 2>/dev/null")
  in
  let timestamp =
    let t = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
      (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
      t.Unix.tm_sec
  in
  let hostname = try Unix.gethostname () with _ -> "unknown" in
  Obs.Json.Obj
    [
      ("git_rev", Obs.Json.Str git_rev);
      ("timestamp_utc", Obs.Json.Str timestamp);
      ("hostname", Obs.Json.Str hostname);
      ("ocaml_version", Obs.Json.Str Sys.ocaml_version);
    ]

let emit_bench_json () =
  let path = "BENCH_pipeline.json" in
  let j =
    match Obs.Metrics.dump_json () with
    | Obs.Json.Obj kvs -> Obs.Json.Obj (("meta", run_meta ()) :: kvs)
    | j -> j
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote %s@." path

(** Run the whole harness. [runs] is the sampling depth: the number of
    instrumented pipeline runs feeding the per-pass histograms, and —
    scaled proportionally — the Bechamel quota per estimate and the
    service-cache warm rounds. The default (20) reproduces the
    historical sampling exactly; a small [runs] is a fast CI smoke, a
    large one a higher-confidence dev-box run. *)
let main ?(runs = 20) () : int =
  let runs = max 1 runs in
  pass_hist_runs := runs;
  sample_quota_s := 0.02 *. float_of_int runs;
  serve_warm_rounds := max 1 (runs * 5 / 2);
  Format.printf "CompCertO-in-OCaml evaluation harness (%d sampling runs)@."
    runs;
  table1 ();
  table2 ();
  table3 ();
  table4 ();
  table5 ();
  fig1 ();
  fig4 ();
  fig5 ();
  fig9 ();
  fig10 ();
  fig13 ();
  bench_pipeline ();
  ablation ();
  bench_serve ();
  emit_bench_json ();
  Format.printf "@.Done.@.";
  0
