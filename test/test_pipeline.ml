(** End-to-end differential tests of the full compiler (the empirical
    counterpart of Theorem 3.8): for each program, every level of the
    pipeline — activated through the marshaled conventions [CL],
    [CL·LM], [CA] — must refine the Clight behavior. *)

open Testlib.Testutil

let basic =
  [
    diff_case "constant" "int main(void) { return 41 + 1; }" 42l;
    diff_case "call" "int f(int x) { return x * 2; } int main(void) { return f(21); }" 42l;
    diff_case "fib"
      "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } int main(void) { return fib(12); }"
      144l;
    diff_case "mutual recursion"
      "int odd(int n); int even(int n) { if (n == 0) return 1; return odd(n-1); } int odd(int n) { if (n == 0) return 0; return even(n-1); } int main(void) { return even(9) * 10 + odd(9); }"
      1l;
    diff_case "loops and accumulation"
      "int main(void) { int s = 0; for (int i = 1; i <= 100; i++) s += i; return s; }"
      5050l;
    diff_case "nested control"
      "int main(void) { int s = 0; for (int i = 0; i < 10; i++) { if (i % 3 == 0) continue; int j = 0; while (j < i) { s++; j++; } } return s; }"
      27l;
  ]

(* Calling-convention programs as (name, source, answer), run through
   the default pipeline here and through the spill-everything allocator
   in [spill_everything] below. *)
let calling_convention_programs =
  [
    ( "eight int args (stack passing)",
      "int f(int a,int b,int c,int d,int e,int g,int h,int i) { return a+2*b+3*c+4*d+5*e+6*g+7*h+8*i; } int main(void) { return f(1,2,3,4,5,6,7,8); }",
      204l );
    ( "ten int args",
      "int f(int a,int b,int c,int d,int e,int g,int h,int i,int j,int k) { return a+b+c+d+e+g+h+i+j+k; } int main(void) { return f(1,2,3,4,5,6,7,8,9,10); }",
      55l );
    ( "mixed int and float args",
      "int f(int a, double x, int b, double y) { return a + b + (int)(x + y); } int main(void) { return f(1, 2.5, 3, 4.5); }",
      11l );
    ( "many float args (uses float arg registers)",
      "int f(double a,double b,double c,double d,double e) { return (int)(a+b+c+d+e); } int main(void) { return f(1.0,2.0,3.0,4.0,5.0); }",
      15l );
    ( "stack args both directions",
      "int g(int a,int b,int c,int d,int e,int f0,int h,int i) { return h * 10 + i; } int callg(void) { return g(0,0,0,0,0,0,3,7); } int main(void) { return callg(); }",
      37l );
    ( "callee-save pressure",
      "int id(int x) { return x; } int main(void) { int a = id(1); int b = id(2); int c = id(3); int d = id(4); int e = id(5); int f = id(6); return a + 10*b + 100*c + 1000*d + 10000*e + 100000*f; }",
      654321l );
    ( "register pressure with spilling",
      "int main(void) { int a=1,b=2,c=3,d=4,e=5,f=6,g=7,h=8,i=9,j=10,k=11,l=12,m=13,n=14,o=15,p=16; return a+b+c+d+e+f+g+h+i+j+k+l+m+n+o+p + a*p + b*o + c*n; }",
      224l );
    ( "tail-call shape",
      "int iter(int n, int acc) { if (n == 0) return acc; return iter(n - 1, acc + n); } int main(void) { return iter(1000, 0); }",
      500500l );
  ]

let cases ?options ?(prefix = "") =
  List.map (fun (name, src, answer) ->
      diff_case ?options (prefix ^ name) src answer)

let calling_convention = cases calling_convention_programs

let memory_programs =
  [
    diff_case "local array in memory"
      "int main(void) { int a[8]; for (int i = 0; i < 8; i++) a[i] = i * i; int s = 0; for (int i = 0; i < 8; i++) s += a[i]; return s; }"
      140l;
    diff_case "pass array to function"
      "int sum(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; } int main(void) { int a[5]; for (int i = 0; i < 5; i++) a[i] = i + 1; return sum(a, 5); }"
      15l;
    diff_case "write through pointer parameter"
      "void fill(int *p, int n, int v) { for (int i = 0; i < n; i++) p[i] = v; } int main(void) { int a[4]; fill(a, 4, 9); return a[0] + a[3]; }"
      18l;
    diff_case "global state across calls"
      "int counter = 0; void tick(void) { counter++; } int main(void) { for (int i = 0; i < 7; i++) tick(); return counter; }"
      7l;
    diff_case "swap via pointers"
      "void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; } int main(void) { int x = 3, y = 4; swap(&x, &y); return x * 10 + y; }"
      43l;
    diff_case "byte-size data"
      "char buf[4]; int main(void) { buf[0] = 1; buf[1] = 2; buf[2] = 3; buf[3] = 4; return buf[0] + 256 * buf[3]; }"
      1025l;
    diff_case "strings of shorts"
      "short s[3]; int main(void) { s[0] = 1000; s[1] = -1000; s[2] = 30000; return s[0] + s[1] + s[2]; }"
      30000l;
    diff_case "aliasing through pointers"
      "int main(void) { int x = 1; int *p = &x; int *q = p; *q = 5; return *p; }"
      5l;
    diff_case "address arithmetic"
      "int a[10]; int main(void) { int *p = a; for (int i = 0; i < 10; i++) *(p + i) = i; return a[7]; }"
      7l;
  ]

let arithmetic =
  [
    diff_case "signed overflow wraps"
      "int main(void) { int x = 2147483647; return x + 1 == -2147483647 - 1; }" 1l;
    diff_case "64-bit arithmetic"
      "int main(void) { long a = 123456789L; long b = 987654321L; return (int)((a * b) % 1000L); }"
      269l;
    diff_case "mixed width"
      "int main(void) { int i = -1; long l = i; return l < 0; }" 1l;
    diff_case "unsigned wraparound"
      "int main(void) { unsigned u = 0; u = u - 1; return u > 1000000u; }" 1l;
    diff_case "float to int and back"
      "int main(void) { double d = 0.0; for (int i = 0; i < 10; i++) d = d + 0.5; return (int) d; }"
      5l;
    diff_case "single precision rounding"
      "int main(void) { float f = 16777216.0f; float g = f + 1.0f; return f == g; }" 1l;
    diff_case "integer division rounding"
      "int main(void) { return (-7) / 2 * 10 + (-7) % 2; }" (-31l);
    diff_case "comparisons on longs"
      "int main(void) { long a = 1L << 40; long b = 1L << 41; return (a < b) + (b < a) * 2; }" 1l;
  ]

(* Run key workloads with optimizations disabled as well: the optional
   passes (Table 3's †) must not be needed for correctness. *)
let no_optim =
  [
    diff_case ~options:Driver.Compiler.no_optims "no-optim fib"
      "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } int main(void) { return fib(10); }"
      55l;
    diff_case ~options:Driver.Compiler.no_optims "no-optim stack args"
      "int f(int a,int b,int c,int d,int e,int g,int h,int i) { return h*10+i; } int main(void) { return f(0,0,0,0,0,0,4,2); }"
      42l;
    diff_case ~options:Driver.Compiler.no_optims "no-optim arrays"
      "int main(void) { int a[4]; a[0]=1; a[1]=2; a[2]=3; a[3]=4; return a[0]+a[1]*a[2]+a[3]; }"
      11l;
  ]

(* Optimization-sensitive shapes: constant folding, CSE, dead code — the
   optimized pipeline must still refine the source. *)
let optim_shapes =
  [
    diff_case "constant folding fodder"
      "int main(void) { int x = 3 * 4 + 5; int y = x * 0; return x + y + (10 / 2); }" 22l;
    diff_case "common subexpressions"
      "int main(void) { int a = 7, b = 9; int x = a * b + 1; int y = a * b + 2; return x + y; }" 129l;
    diff_case "dead stores"
      "int main(void) { int x = 1; x = 2; x = 3; int dead = 100; dead = dead * 2; return x; }" 3l;
    diff_case "branch folding"
      "int main(void) { if (1 == 1) return 5; return 6; }" 5l;
    diff_case "inlinable leaf"
      "int sq(int x) { return x * x; } int main(void) { return sq(3) + sq(4); }" 25l;
    diff_case "loop-carried CSE hazard"
      "int g = 0; int bump(void) { g = g + 1; return g; } int main(void) { int a = bump(); int b = bump(); return a * 10 + b; }" 12l;
  ]

(* Stack-argument passing in every argument class. *)
let stack_arg_programs =
  [
    ( "float args spill to the stack",
      "double f(double a, double b, double c, double d, double e, double g) { return a + 2.0*b + 3.0*c + 4.0*d + 5.0*e + 6.0*g; } int main(void) { return (int) f(1.0, 2.0, 3.0, 4.0, 5.0, 6.0); }",
      91l );
    ( "long args spill to the stack",
      "long f(long a, long b, long c, long d, long e, long g, long h, long i) { return h * 100L + i; } int main(void) { return (int) f(1L,2L,3L,4L,5L,6L,7L,8L); }",
      708l );
    ( "mixed int/float args exhaust both register classes",
      "int f(int a, double x, int b, double y, int c, double z, int d, double w, int e, double v, int g, double u) { return a+b+c+d+e+g + (int)(x+y+z+w+v+u); } int main(void) { return f(1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6, 6.5); }",
      45l );
    ( "single-precision args spill to the stack",
      "float f(float a, float b, float c, float d, float e, float g) { return a + g; } int main(void) { return (int) f(1.0f,2.0f,3.0f,4.0f,5.0f,40.0f); }",
      41l );
    ( "pointer args on the stack",
      "int f(int a,int b,int c,int d,int e,int g,int *p,int *q) { return *p + *q; } int x = 30; int y = 12; int main(void) { return f(0,0,0,0,0,0,&x,&y); }",
      42l );
    (* The float scratch registers are not argument registers: moving a
       spilled argument to its [Outgoing] slot through a scratch must not
       overwrite an argument already placed in a float register. *)
    ( "ten computed double args",
      "double f(double a, double b, double c, double d, double e, double g, double h, double i, double j, double l) { return a + b * 2.0 + c * 3.0 + d * 4.0 + e * 5.0 + g * 6.0 + h * 7.0 + i * 8.0 + j * 9.0 + l * 10.0; }\n\
       double k(double a, double b, double c, double d, double e, double g, double h, double i, double j, double l) { return f(a * 1.5, b * 1.5, c * 1.5, d * 1.5, e * 1.5, g * 1.5, h * 1.5, i * 1.5, j * 1.5, l * 1.5); }\n\
       int main(void) { return (int) k(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0); }",
      577l );
  ]

let stack_arg_classes = cases stack_arg_programs

(* The spill-everything allocator as the Allocation stage's fast path
   and fallback alike: the fallback must compile every program on its
   own, not only the few a rejected linear scan hands it. *)
let spill_everything =
  let options =
    with_allocators ~fast:Passes.Allocation.spill_everything
      ~fallback:Passes.Allocation.spill_everything Driver.Compiler.all_optims
  in
  let dir = "../examples/c" in
  Alcotest.test_case "spill-everything allocator: examples/c at every level"
    `Quick (fun () ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".c")
      |> List.iter (fun file ->
             let path = Filename.concat dir file in
             let src = In_channel.with_open_bin path In_channel.input_all in
             match differential ~options src with
             | Ok _ -> ()
             | Error e -> Alcotest.failf "%s: %s" file e))
  :: cases ~options ~prefix:"spill-everything allocator: "
       (calling_convention_programs @ stack_arg_programs)

(* Regressions found by the random differential fuzzer. *)
let regressions =
  [
    (* Local stack slots must survive calls: the caller's spill slots and
       outgoing areas belong to its activation and are restored when it
       resumes (LTL/Linear [merge_slots]); an early version rebuilt the
       locset from registers only, losing every spilled value across
       calls. *)
    diff_case "spilled values survive nested calls"
      "int f0(int p0, int p1, int p2, int p3, int p4, int p5, int p6) { return p0 + p3 / (p6 | 1); }\n\
       int f1(int a, int b) { int r = f0(1, 2, 3, f0(a, b, 1, 2, 3, 4, 5), 5, 6, f0(b, a, 9, 9, 9, 9, 9)); return r + a + b; }\n\
       int main(void) { return f1(10, 20); }"
      31l;
    diff_case "spill slot live across two calls"
      "int id(int x);\nint use(int x) { return id(x); }\nint id(int x) { return x; }\n\
       int main(void) { int a = use(1); int b = use(2); int c = use(3); int d = use(4); int e = use(5); int f = use(6); int h = use(7); int i = use(8); int j = use(9); int k = use(10); int l = use(11); int m = use(12); return a+b+c+d+e+f+h+i+j+k+l+m; }"
      78l;
  ]

(* The inputs of the allocation gates below: examples/c and 40
   generated draws (seed 1, drawn as [occo fuzz] draws them), parsed. *)
let gate_programs () =
  let examples =
    Sys.readdir "../examples/c" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (fun f ->
           In_channel.with_open_bin (Filename.concat "../examples/c" f)
             In_channel.input_all)
  in
  let draws =
    List.init 40 (fun i ->
        let st = Random.State.make [| 1; 104729 * (i + 1) |] in
        QCheck.Gen.generate1 ~rand:st (QCheck.gen Testlib.Test_gen.arb_program))
  in
  List.map Cfrontend.Cparser.parse_program (examples @ draws)

(* The minor words of the second of two calls of [f], with observability
   off: the first interns every name, so only the second is counted. *)
let second_call_words f =
  let saved = !Obs.enabled in
  Obs.enabled := false;
  f ();
  let w0 = Gc.minor_words () in
  f ();
  let words = Gc.minor_words () -. w0 in
  Obs.enabled := saved;
  words

(* The compile path's allocation, pinned: minor words are a function of
   the code alone, so the ceiling is the measured value and any change
   that allocates more on the compile path fails here. The programs are
   compiled at O2. *)
let compile_words_ceiling = 2_564_271.

(* The interpreters' allocation, pinned per differential level: each
   kept level's [Pipeline.run_level] on [main] of every program, as the
   differential runs it. Each ceiling is the measured value. *)
let level_words_ceilings =
  [
    ("clight1", 2_239_589.);
    ("clight2", 1_830_860.);
    ("csharpminor", 1_497_822.);
    ("cminor", 1_535_633.);
    ("cminorsel", 2_291_603.);
    ("rtl_gen", 2_273_017.);
    ("rtl_opt", 2_203_962.);
    ("ltl", 3_170_154.);
    ("ltl_tunneled", 2_473_516.);
    ("linear", 3_740_630.);
    ("linear_clean", 2_612_788.);
    ("mach", 2_028_132.);
    ("asm", 575_947.);
  ]

(* Each pass's allocation, pinned on the same inputs: the minor words
   of each stage of [Pipeline.full] over all the programs, with
   observability off, once every name is interned. The Allocation
   stage includes its liveness solve and its validator, AllocCheck.
   Each ceiling is the measured value. *)
let pass_words_ceilings =
  [
    ("SimplLocals", 50_405.);
    ("Cshmgen", 202_176.);
    ("Cminorgen", 109_439.);
    ("Selection", 80_672.);
    ("RTLgen", 171_435.);
    ("Tailcall", 27_649.);
    ("Inlining", 32_341.);
    ("Renumber", 85_795.);
    ("Constprop", 103_625.);
    ("CSE", 135_283.);
    ("Deadcode", 56_808.);
    ("Allocation", 1_058_538.);
    ("Tunneling", 60_530.);
    ("Linearize", 116_565.);
    ("CleanupLabels", 21_517.);
    ("Debugvar", 6_632.);
    ("Stacking", 139_096.);
    ("Asmgen", 96_965.);
  ]

(* The minor words of each stage of [Pipeline.full] compiling
   [programs], by pass name in pipeline order. *)
let pass_words programs =
  let module P = Driver.Pipeline in
  let stages = List.filter_map (function P.Pass s -> Some s | P.Keep _ -> None) P.full in
  let words = Array.make (List.length stages) 0. in
  let rec walk i (cur : P.program) = function
    | [] -> ()
    | P.Stage s :: rest -> (
      match cur with
      | P.Program (ir, x) -> (
        match P.same ir s.src with
        | None -> Alcotest.failf "%s: expects another language" s.name
        | Some P.Refl -> (
          let w0 = Gc.minor_words () in
          let r = s.run x in
          words.(i) <- words.(i) +. (Gc.minor_words () -. w0);
          match r with
          | Ok y -> walk (i + 1) (P.Program (s.tgt, y)) rest
          | Error d -> Alcotest.failf "%a" Support.Diagnostics.pp d)))
  in
  let saved = !Obs.enabled in
  Obs.enabled := false;
  Fun.protect
    ~finally:(fun () -> Obs.enabled := saved)
    (fun () -> List.iter (fun p -> walk 0 (P.Program (P.Clight1, p)) stages) programs);
  List.mapi
    (fun i s -> ((P.info s).Convalg.Derive.pass_name, words.(i)))
    stages

let words_gates =
  [
    Alcotest.test_case "compile_levels minor words stay at the pinned ceiling"
      `Quick (fun () ->
        let programs = gate_programs () in
        let words =
          second_call_words (fun () ->
              List.iter (fun p -> ignore (Driver.Compiler.compile_levels p)) programs)
        in
        if words > compile_words_ceiling then
          Alcotest.failf "compile_levels allocated %.0f minor words (ceiling %.0f)"
            words compile_words_ceiling);
    Alcotest.test_case "each pass stays at its pinned minor words" `Quick (fun () ->
        let programs = gate_programs () in
        List.iter (fun p -> ignore (Driver.Compiler.compile_levels p)) programs;
        let measured =
          List.map
            (fun (name, w) -> (name, w, List.assoc name pass_words_ceilings))
            (pass_words programs)
        in
        if List.exists (fun (_, w, c) -> w > c) measured then
          Alcotest.failf "@[<v>%a@]"
            (Format.pp_print_list (fun fmt (name, w, c) ->
                 Format.fprintf fmt "%-14s %.0f minor words (ceiling %.0f)%s" name w c
                   (if w > c then " OVER" else "")))
            measured);
    Alcotest.test_case "each level's runs stay at its pinned minor words"
      `Quick (fun () ->
        let runs =
          List.filter_map
            (fun p ->
              Option.map
                (fun q ->
                  ( Iface.Ast.prog_defs_names p,
                    q,
                    Result.get_ok (Driver.Compiler.compile_levels p) ))
                (Driver.Differential.main_query_of p))
            (gate_programs ())
        in
        let words name =
          let runs =
            List.map
              (fun (symbols, q, levels) ->
                (symbols, q, List.find (fun (l : Driver.Pipeline.level) -> l.level = name) levels))
              runs
          in
          second_call_words (fun () ->
              List.iter
                (fun (symbols, q, l) ->
                  ignore
                    (Driver.Pipeline.run_level ~symbols ~fuel:Driver.Differential.fuel q l))
                runs)
        in
        let measured = List.map (fun (name, c) -> (name, words name, c)) level_words_ceilings in
        let over = List.filter (fun (_, w, c) -> w > c) measured in
        if over <> [] then
          Alcotest.failf "@[<v>%a@]"
            (Format.pp_print_list (fun fmt (name, w, c) ->
                 Format.fprintf fmt "%-12s %.0f minor words (ceiling %.0f)%s" name w c
                   (if w > c then " OVER" else "")))
            measured);
  ]

let suite =
  ( "pipeline",
    basic @ calling_convention @ memory_programs @ arithmetic @ no_optim
    @ optim_shapes @ stack_arg_classes @ spill_everything @ regressions
    @ words_gates )
