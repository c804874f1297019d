(** Tests for the C frontend: lexer, parser/elaborator, and the Clight
    interpreter. *)

open Support
open Memory.Values
open Iface
open Iface.Li
open Cfrontend

let check = Alcotest.(check bool)

(** Run [main] of a source string in the Clight interpreter. *)
let run_main ?(fuel = 1_000_000) src : (int32, string) result =
  let p = Cparser.parse_program src in
  let symbols = Ast.prog_defs_names p in
  let l = Clight.semantics ~symbols p in
  let ge = Genv.globalenv ~symbols p in
  match (Genv.find_symbol ge (Ident.intern "main"), Genv.init_mem ~symbols p) with
  | Some b, Some m -> (
    let q =
      { cq_vf = Vptr (b, 0); cq_sg = Memory.Mtypes.signature_main;
        cq_args = []; cq_mem = m }
    in
    match Core.Smallstep.run ~fuel l ~oracle:(fun _ -> None) q with
    | Core.Smallstep.Final (_, { cr_res = Vint n; _ }) -> Ok n
    | o ->
      Error
        (Pp_util.to_string (Core.Smallstep.pp_outcome (fun _ _ -> ())) o))
  | _ -> Error "no main"

let expect name src result =
  Alcotest.test_case name `Quick (fun () ->
      match run_main src with
      | Ok n -> Alcotest.(check int32) name result n
      | Error e -> Alcotest.failf "%s: %s" name e)

let expect_wrong name src =
  Alcotest.test_case name `Quick (fun () ->
      match run_main src with
      | Ok n -> Alcotest.failf "%s: expected UB, got %ld" name n
      | Error _ -> ())

let expect_parse_error name src =
  Alcotest.test_case name `Quick (fun () ->
      match Cparser.parse_program src with
      | exception Cparser.Parse_error _ -> ()
      | exception Clexer.Lex_error _ -> ()
      | _ -> Alcotest.failf "%s: expected a parse error" name)

(* Every token of [src], up to end of file. *)
let tokens src =
  let lx = Clexer.tokenize src in
  let rec go acc =
    match Clexer.peek lx with
    | Clexer.EOF -> List.rev acc
    | t ->
      Clexer.advance lx;
      go (t :: acc)
  in
  go []

let lexer_tests =
  [
    Alcotest.test_case "integer literals" `Quick (fun () ->
        (* Each constant carries the first type of its suffix's list that
           holds it (C99 6.4.4.1); a leading 0 is octal. *)
        match tokens "42 0x2A 7L 3u 'A' 010 0xFFFFFFFF 3000000000 5000000000u" with
        | [ INT_LIT (42L, `I); INT_LIT (42L, `I); INT_LIT (7L, `L);
            INT_LIT (3L, `U); INT_LIT (65L, `I); INT_LIT (8L, `I);
            INT_LIT (0xFFFFFFFFL, `U); INT_LIT (3000000000L, `L);
            INT_LIT (5000000000L, `UL) ] ->
          ()
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "comments are skipped" `Quick (fun () ->
        let lx = Clexer.tokenize "/* multi \n line */ x // rest\n y" in
        check "first" true (Clexer.peek lx = Clexer.IDENT "x");
        Clexer.advance lx;
        check "second" true (Clexer.peek lx = Clexer.IDENT "y");
        Alcotest.(check int) "line" 3 (Clexer.line lx));
    Alcotest.test_case "float literals" `Quick (fun () ->
        check "all four" true
          (tokens "1.5 2e3 4.0f .5"
          = [ Clexer.FLOAT_LIT (1.5, `D); Clexer.FLOAT_LIT (2000., `D);
              Clexer.FLOAT_LIT (4.0, `F); Clexer.FLOAT_LIT (0.5, `D) ]));
    Alcotest.test_case "multi-char operators" `Quick (fun () ->
        (* The longest punctuator wins; a keyword is not an identifier. *)
        check "tokens" true
          (tokens "<<= << <= < ->-- -=- sizeof sizeofx"
          = Clexer.
              [ PUNCT ShlEq; PUNCT Shl; PUNCT Le; PUNCT Lt; PUNCT Arrow;
                PUNCT MinusMinus; PUNCT MinusEq; PUNCT Minus; KW Ksizeof;
                IDENT "sizeofx" ]));
  ]

let expr_tests =
  [
    expect "precedence * over +" "int main(void) { return 2 + 3 * 4; }" 14l;
    expect "parens" "int main(void) { return (2 + 3) * 4; }" 20l;
    expect "unary minus" "int main(void) { return -5 + 3; }" (-2l);
    expect "bitwise" "int main(void) { return (0xF0 | 0x0F) & 0x3C; }" 0x3Cl;
    expect "shift" "int main(void) { return 1 << 10; }" 1024l;
    expect "signed shr" "int main(void) { return -8 >> 1; }" (-4l);
    expect "unsigned div" "int main(void) { unsigned x = 4000000000u; return x / 1000000000u; }" 4l;
    expect "comparison chains to int" "int main(void) { return (3 < 5) + (5 < 3); }" 1l;
    expect "logical and shortcut" "int main(void) { int x = 0; (x != 0) && (1 / x > 0); return 7; }" 7l;
    expect "logical or shortcut" "int main(void) { int x = 0; (x == 0) || (1 / x > 0); return 8; }" 8l;
    expect "ternary" "int main(void) { return 1 ? 10 : 20; }" 10l;
    expect "nested ternary" "int main(void) { int a = 2; return a == 1 ? 10 : a == 2 ? 20 : 30; }" 20l;
    expect "modulo" "int main(void) { return 17 % 5; }" 2l;
    expect "negative modulo" "int main(void) { return -17 % 5; }" (-2l);
    expect "char arithmetic" "int main(void) { char c = 'A'; return c + 1; }" 66l;
    expect "char overflow wraps via store" "int main(void) { char c = 300; return c; }" 44l;
    expect "short truncation" "int main(void) { short s = 70000; return s; }" 4464l;
    expect "long arithmetic" "int main(void) { long x = 1L << 40; return (int)(x >> 38); }" 4l;
    expect "cast double to int" "int main(void) { double d = 3.99; return (int) d; }" 3l;
    expect "double arithmetic" "int main(void) { double d = 1.5 * 4.0; return (int) d; }" 6l;
    expect "float (single) arithmetic" "int main(void) { float f = 2.5f; return (int)(f * 2.0f); }" 5l;
    expect "sizeof int" "int main(void) { return (int) sizeof(int); }" 4l;
    expect "sizeof array" "int arr[10]; int main(void) { return (int) sizeof(arr); }" 40l;
    expect "sizeof pointer" "int main(void) { return (int) sizeof(int*); }" 8l;
    expect "compound assignment" "int main(void) { int x = 5; x *= 3; x -= 1; return x; }" 14l;
    expect "increment" "int main(void) { int x = 5; x++; x++; return x; }" 7l;
    expect "unsigned comparison" "int main(void) { unsigned a = 0; return (a - 1u) > a; }" 1l;
    (* Integer constants (C99 6.4.4.1): a leading 0 is octal, and a
       constant has the first type of its suffix's list that holds it. *)
    expect "octal constant" "int main(void) { return 010; }" 8l;
    expect "hex constant is unsigned int" "int main(void) { return -1 < 0xFFFFFFFF; }" 0l;
    expect "sizeof unsigned int constant" "int main(void) { return (int) sizeof(0xFFFFFFFF); }" 4l;
    expect "u constant is unsigned long" "int main(void) { return 5000000000u / 1000000000u; }" 5l;
  ]

(** {1 Precedence and associativity}

    An expression tree prints once fully parenthesized and once with
    only the parentheses C's precedence needs; both must elaborate to the
    same Clight. The trees use the eight left-associative binary levels,
    unary [- ! ~] and casts over int variables, constants and calls
    (whose temporaries fix the evaluation order of the operands). *)

type tree =
  | Leaf of string
  | Unary of string * tree
  | Cast of string * tree
  | Bin of int * string * tree * tree  (** level 1 ([|]) to 8 ([* / %]) *)

let levels =
  [| [ "|" ]; [ "^" ]; [ "&" ]; [ "=="; "!=" ]; [ "<"; ">"; "<="; ">=" ];
     [ "<<"; ">>" ]; [ "+"; "-" ]; [ "*"; "/"; "%" ] |]

let rec full = function
  | Leaf s -> s
  | Unary (op, t) -> Printf.sprintf "(%s %s)" op (full t)
  | Cast (ty, t) -> Printf.sprintf "((%s) %s)" ty (full t)
  | Bin (_, op, l, r) -> Printf.sprintf "(%s %s %s)" (full l) op (full r)

(* Parenthesize [t] only where its precedence is below [min]: a left
   operand may sit at its operator's level, a right one must bind
   tighter, and a unary operand must be unary or primary (level 9). *)
let rec minimal min t =
  let level, s =
    match t with
    | Leaf s -> (10, s)
    | Unary (op, t) -> (9, op ^ " " ^ minimal 9 t)
    | Cast (ty, t) -> (9, Printf.sprintf "(%s) %s" ty (minimal 9 t))
    | Bin (k, op, l, r) -> (k, Printf.sprintf "%s %s %s" (minimal k l) op (minimal (k + 1) r))
  in
  if level < min then "(" ^ s ^ ")" else s

let gen_tree =
  let open QCheck.Gen in
  let leaf =
    map
      (fun s -> Leaf s)
      (oneof
         [ map string_of_int (int_bound 100); oneofl [ "a"; "b"; "c" ];
           map (Printf.sprintf "g(%s)") (oneofl [ "a"; "b"; "c" ]) ])
  in
  sized_size (int_bound 24)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [ (1, leaf);
               ( 6,
                 map3
                   (fun k (l, r) i ->
                     let ops = levels.(k) in
                     Bin (k + 1, List.nth ops (i mod List.length ops), l, r))
                   (int_bound 7)
                   (pair (self (n / 2)) (self (n / 2)))
                   nat );
               (1, map2 (fun op t -> Unary (op, t)) (oneofl [ "-"; "!"; "~" ]) (self (n - 1)));
               ( 1,
                 map2
                   (fun ty t -> Cast (ty, t))
                   (oneofl [ "int"; "unsigned"; "long"; "char"; "unsigned long" ])
                   (self (n - 1)) ) ])

(* The Clight of [return e;]. *)
let clight_of e =
  let src =
    Printf.sprintf "int g(int x) { return x; }\nint f(int a, int b, int c) { return %s; }" e
  in
  Format.asprintf "%a" Cprint.pp_program (Cparser.parse_program src)

let precedence_tests =
  [
    Alcotest.test_case "minimal printing drops parentheses" `Quick (fun () ->
        let a = Leaf "a" and b = Leaf "b" and c = Leaf "c" in
        List.iter
          (fun (t, s) -> Alcotest.(check string) s s (minimal 0 t))
          [
            (Bin (7, "+", a, Bin (8, "*", b, c)), "a + b * c");
            (Bin (8, "*", Bin (7, "+", a, b), c), "(a + b) * c");
            (Bin (7, "-", Bin (7, "-", a, b), c), "a - b - c");
            (Bin (7, "-", a, Bin (7, "-", b, c)), "a - (b - c)");
            (Unary ("-", Unary ("-", a)), "- - a");
            (Cast ("char", Bin (1, "|", a, b)), "(char) (a | b)");
          ]);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |])
      (QCheck.Test.make ~name:"minimal parentheses elaborate like full ones"
         ~count:500
         (QCheck.make ~print:full gen_tree)
         (fun t -> clight_of (minimal 0 t) = clight_of (full t)));
  ]

let stmt_tests =
  [
    expect "while loop" "int main(void) { int i = 0, s = 0; while (i < 10) { s += i; i++; } return s; }" 45l;
    expect "for with break" "int main(void) { int s = 0; for (int i = 0; i < 100; i++) { if (i == 5) break; s += i; } return s; }" 10l;
    expect "for with continue" "int main(void) { int s = 0; for (int i = 0; i < 10; i++) { if (i % 2) continue; s += i; } return s; }" 20l;
    expect "nested loops" "int main(void) { int s = 0; for (int i = 0; i < 4; i++) for (int j = 0; j < 4; j++) if (i == j) s++; return s; }" 4l;
    expect "multi declarator" "int main(void) { int a = 1, b = 2, c = 3; return a + b + c; }" 6l;
    expect "shadowing by inner scope" "int main(void) { int x = 1; { int y = 10; x = x + y; } return x; }" 11l;
    expect "void return" "void nop(void) { return; } int main(void) { nop(); return 3; }" 3l;
    expect "early return" "int f(int x) { if (x > 0) return 1; return 0; } int main(void) { return f(5) + f(-5); }" 1l;
  ]

let data_tests =
  [
    expect "global init" "int g = 41; int main(void) { return g + 1; }" 42l;
    expect "global mutation" "int g; int main(void) { g = 7; g += 3; return g; }" 10l;
    expect "global array walk"
      "int a[5] = {5, 4, 3, 2, 1}; int main(void) { int s = 0; for (int i = 0; i < 5; i++) s = s * 10 + a[i]; return s; }"
      54321l;
    expect "partial array init" "int a[4] = {9}; int main(void) { return a[0] + a[1] + a[2] + a[3]; }" 9l;
    expect "local array + pointer"
      "int main(void) { int a[3]; int *p = a; p[0] = 1; *(p+1) = 2; a[2] = 3; return a[0]+a[1]+a[2]; }"
      6l;
    expect "address-of local"
      "void set(int *p) { *p = 9; } int main(void) { int x = 0; set(&x); return x; }"
      9l;
    expect "pointer to pointer"
      "int main(void) { int x = 5; int *p = &x; int **q = &p; **q = 8; return x; }"
      8l;
    expect "pointer difference"
      "int a[8]; int main(void) { int *p = &a[6]; int *q = &a[2]; return (int)(p - q); }"
      4l;
    expect "const global" "const int k = 13; int main(void) { return k; }" 13l;
    expect "long global" "long g = 1000000000000L; int main(void) { return (int)(g / 1000000000L); }" 1000l;
    expect "double global" "double d = 2.5; int main(void) { return (int)(d * 4.0); }" 10l;
    expect "2d array"
      "int m[2][3] = {{1,2,3},{4,5,6}}; int main(void) { int s = 0; for (int i=0;i<2;i++) for (int j=0;j<3;j++) s += m[i][j]; return s; }"
      21l;
    expect "function pointer"
      "int add1(int x) { return x + 1; } int main(void) { int (*f)(int); f = add1; return f(41); }"
      42l;
    expect "addrof global in initializer"
      "int x = 3; int *p = &x; int main(void) { return *p; }" 3l;
  ]

let ub_tests =
  [
    expect_wrong "division by zero" "int main(void) { int z = 0; return 1 / z; }";
    expect_wrong "signed div overflow" "int main(void) { int a = -2147483647 - 1; int b = -1; return a / b; }";
    expect_wrong "null dereference" "int main(void) { int *p = 0; return *p; }";
    expect_wrong "out-of-bounds read" "int a[2]; int main(void) { int i = 5; return a[i]; }";
    expect_wrong "uninitialized read used in branch" "int main(void) { int x; if (x) return 1; return 0; }";
    expect_wrong "oversized shift" "int main(void) { int n = 40; return 1 << n; }";
  ]

(* Temporaries are numbered per function and SimplLocals names its
   parameter copies after the parameter, so no compile depends on what
   an earlier one in the same process interned. *)
let determinism_tests =
  [
    Alcotest.test_case "one source prints the same Clight on every compile"
      `Quick (fun () ->
        let src =
          "int g(int x) { return x + 1; }\n\
           int h(int p) { int *q = &p; return *q + g(p) * g(p + 1); }\n\
           int main(void) { return h(2); }"
        in
        let clight () =
          Format.asprintf "%a" Cprint.pp_program
            (Errors.get (Driver.Compiler.compile_source src)).Driver.Compiler.clight2
        in
        let first = clight () in
        Alcotest.(check string) "second compile" first (clight ()));
  ]

let parse_error_tests =
  [
    expect_parse_error "missing semicolon" "int main(void) { return 1 }";
    expect_parse_error "unknown identifier" "int main(void) { return nope; }";
    expect_parse_error "unbalanced paren" "int main(void) { return (1 + 2; }";
    expect_parse_error "call arity" "int f(int x) { return x; } int main(void) { return f(1, 2); }";
    expect_parse_error "assign to rvalue" "int main(void) { 3 = 4; return 0; }";
    expect_parse_error "bad character" "int main(void) { return 1 @ 2; }";
  ]

let suite =
  ( "frontend",
    lexer_tests @ expr_tests @ precedence_tests @ stmt_tests @ data_tests
    @ ub_tests @ determinism_tests @ parse_error_tests )
