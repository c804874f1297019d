(** Unit tests for individual compiler passes: structural properties of
    the transformed code, beyond the end-to-end differential checks. *)

open Support
module R = Middle.Rtl
module L = Backend.Ltl
module Lin = Backend.Linear
module M = Backend.Mach
module A = Backend.Asm
module Op = Middle.Op

let check = Alcotest.(check bool)

let compile src = Errors.get (Driver.Compiler.compile (Cfrontend.Cparser.parse_program src))

let internal_functions (p : ('f, 'v) Iface.Ast.program) : (Ident.t * 'f) list =
  List.filter_map
    (fun (id, d) ->
      match d with
      | Iface.Ast.Gfun (Iface.Ast.Internal f) -> Some (id, f)
      | _ -> None)
    p.Iface.Ast.prog_defs

let find_fn p name = List.assoc (Ident.intern name) (internal_functions p)

(* --- SimplLocals ----------------------------------------------------- *)

let simpllocals_tests =
  [
    Alcotest.test_case "scalars are lifted out of memory" `Quick (fun () ->
        let arts = compile "int f(int x) { int y = x + 1; return y; }" in
        let f = find_fn arts.clight2 "f" in
        check "no memory vars left" true (f.Cfrontend.Csyntax.fn_vars = []));
    Alcotest.test_case "addressed variables stay in memory" `Quick (fun () ->
        let arts = compile "int f(void) { int y = 0; int *p = &y; *p = 3; return y; }" in
        let f = find_fn arts.clight2 "f" in
        check "y still a memory var" true
          (List.exists
             (fun (id, _) -> Ident.name id = "y")
             f.Cfrontend.Csyntax.fn_vars));
    Alcotest.test_case "arrays stay in memory" `Quick (fun () ->
        let arts = compile "int f(void) { int a[2]; a[0] = 1; a[1] = 2; return a[0]; }" in
        let f = find_fn arts.clight2 "f" in
        check "array kept" true (List.length f.Cfrontend.Csyntax.fn_vars = 1));
    Alcotest.test_case "addressed parameter gets a copy-in" `Quick (fun () ->
        let arts = compile "int f(int x) { int *p = &x; return *p; }" in
        let f = find_fn arts.clight2 "f" in
        check "x is a memory var" true
          (List.exists (fun (id, _) -> Ident.name id = "x") f.Cfrontend.Csyntax.fn_vars);
        check "parameter renamed" true
          (List.for_all (fun (id, _) -> Ident.name id <> "x") f.Cfrontend.Csyntax.fn_params));
  ]

(* --- Cminorgen ------------------------------------------------------- *)

let cminorgen_tests =
  [
    Alcotest.test_case "locals collapse into one stack block" `Quick (fun () ->
        let arts =
          compile "int f(void) { int a[2]; int b[3]; a[0]=1; b[0]=2; return a[0]+b[0]; }"
        in
        let f = find_fn arts.cminor "f" in
        (* 8 (a, padded) + 16 (b padded to 8-mult: 12->16) *)
        check "stackspace covers both" true (f.Middle.Cminor.fn_stackspace >= 20));
    Alcotest.test_case "no locals => no stack space" `Quick (fun () ->
        let arts = compile "int f(int x) { return x + 1; }" in
        let f = find_fn arts.cminor "f" in
        Alcotest.(check int) "zero" 0 f.Middle.Cminor.fn_stackspace);
  ]

(* --- Selection ------------------------------------------------------- *)

let rec sel_expr_ops (e : Middle.Cminorsel.expr) : Op.operation list =
  match e with
  | Middle.Cminorsel.Evar _ -> []
  | Middle.Cminorsel.Eop (op, args) -> op :: List.concat_map sel_expr_ops args
  | Middle.Cminorsel.Eload (_, _, args) -> List.concat_map sel_expr_ops args

let rec sel_stmt_ops (s : Middle.Cminorsel.stmt) : Op.operation list =
  match s with
  | Middle.Cminorsel.Sassign (_, e) -> sel_expr_ops e
  | Middle.Cminorsel.Sstore (_, _, args, e) ->
    List.concat_map sel_expr_ops args @ sel_expr_ops e
  | Middle.Cminorsel.Sseq (a, b) -> sel_stmt_ops a @ sel_stmt_ops b
  | Middle.Cminorsel.Sifthenelse (Middle.Cminorsel.CEcond (_, args), a, b) ->
    List.concat_map sel_expr_ops args @ sel_stmt_ops a @ sel_stmt_ops b
  | Middle.Cminorsel.Sloop a | Middle.Cminorsel.Sblock a -> sel_stmt_ops a
  | Middle.Cminorsel.Sreturn (Some e) -> sel_expr_ops e
  | Middle.Cminorsel.Scall (_, _, e, args) ->
    sel_expr_ops e @ List.concat_map sel_expr_ops args
  | _ -> []

let selection_tests =
  [
    Alcotest.test_case "constants become immediates" `Quick (fun () ->
        let arts = compile "int f(int x) { return x + 5; }" in
        let f = find_fn arts.cminorsel "f" in
        let ops = sel_stmt_ops f.Middle.Cminorsel.fn_body in
        check "Oaddimm selected" true
          (List.exists (function Op.Oaddimm 5l -> true | _ -> false) ops));
    Alcotest.test_case "global loads use Aglobal addressing" `Quick (fun () ->
        let arts = compile "int g; int f(void) { return g; }" in
        let f = find_fn arts.cminorsel "f" in
        let rec has_aglobal (s : Middle.Cminorsel.stmt) =
          match s with
          | Middle.Cminorsel.Sreturn (Some (Middle.Cminorsel.Eload (_, Op.Aglobal _, _))) -> true
          | Middle.Cminorsel.Sseq (a, b) -> has_aglobal a || has_aglobal b
          | _ -> false
        in
        check "Aglobal" true (has_aglobal f.Middle.Cminorsel.fn_body));
    Alcotest.test_case "comparisons fold into conditions" `Quick (fun () ->
        let arts = compile "int f(int x) { if (x < 3) return 1; return 0; }" in
        let f = find_fn arts.cminorsel "f" in
        let rec cond_of (s : Middle.Cminorsel.stmt) =
          match s with
          | Middle.Cminorsel.Sifthenelse (Middle.Cminorsel.CEcond (c, _), _, _) -> Some c
          | Middle.Cminorsel.Sseq (a, b) -> (
            match cond_of a with Some c -> Some c | None -> cond_of b)
          | Middle.Cminorsel.Sblock a | Middle.Cminorsel.Sloop a -> cond_of a
          | _ -> None
        in
        check "Ccompimm(<,3)" true
          (cond_of f.Middle.Cminorsel.fn_body
          = Some (Op.Ccompimm (Memory.Mtypes.Clt, 3l))));
  ]

(* --- RTL optimizations ----------------------------------------------- *)

let count_instrs pred (f : R.coq_function) =
  R.Regmap.fold (fun _ i acc -> if pred i then acc + 1 else acc) f.R.fn_code 0

let rtl_opt_tests =
  [
    Alcotest.test_case "constprop folds constants" `Quick (fun () ->
        let arts = compile "int f(void) { int x = 3; int y = 4; return x * y; }" in
        let f = find_fn arts.rtl "f" in
        check "result computed statically" true
          (count_instrs
             (function R.Iop (Op.Ointconst 12l, _, _, _) -> true | _ -> false)
             f
          > 0));
    Alcotest.test_case "constprop folds known branches" `Quick (fun () ->
        let arts = compile "int f(void) { if (1 < 2) return 7; return 8; }" in
        let f = find_fn arts.rtl "f" in
        Alcotest.(check int) "no conditions left" 0
          (count_instrs (function R.Icond _ -> true | _ -> false) f));
    Alcotest.test_case "tailcall recognized" `Quick (fun () ->
        let arts =
          compile
            "int g(int x);\nint f(int x) { return g(x + 1); }\nint g(int x) { return x; }"
        in
        let f = find_fn arts.rtl "f" in
        check "Itailcall present" true
          (count_instrs (function R.Itailcall _ -> true | _ -> false) f > 0));
    Alcotest.test_case "no tailcall when stack data is live" `Quick (fun () ->
        let arts =
          compile
            "int g(int *p);\nint f(void) { int a[2]; a[0] = 1; return g(a); }\nint g(int *p) { return p[0]; }"
        in
        let f = find_fn arts.rtl "f" in
        Alcotest.(check int) "no Itailcall" 0
          (count_instrs (function R.Itailcall _ -> true | _ -> false) f));
    Alcotest.test_case "inlining splices leaf callees" `Quick (fun () ->
        let arts =
          compile "int sq(int x) { return x * x; } int f(int y) { return sq(y) + 1; }"
        in
        let f = find_fn arts.rtl "f" in
        Alcotest.(check int) "no calls left" 0
          (count_instrs
             (function R.Icall _ | R.Itailcall _ -> true | _ -> false)
             f));
    Alcotest.test_case "deadcode removes unused ops" `Quick (fun () ->
        let src = "int f(int x) { int dead = x * 1234; return x; }" in
        let with_dc = compile src in
        let without_dc =
          Errors.get
            (Driver.Compiler.compile
               ~options:
                 (Driver.Pipeline.without
                    (fun p -> p.Convalg.Derive.pass_name = "Deadcode")
                    Driver.Compiler.all_optims)
               (Cfrontend.Cparser.parse_program src))
        in
        let ops p = count_instrs (function R.Iop (Op.Omulimm _, _, _, _) -> true | _ -> false) (find_fn p.Driver.Compiler.rtl "f") in
        check "multiplication eliminated" true (ops with_dc < ops without_dc || ops with_dc = 0));
    Alcotest.test_case "CSE reuses repeated expressions" `Quick (fun () ->
        let arts =
          compile
            "int f(int a, int b) { int x = a * b + a * b; return x; }"
        in
        let f = find_fn arts.rtl "f" in
        check "at most one multiply" true
          (count_instrs (function R.Iop (Op.Omul, _, _, _) -> true | _ -> false) f
          <= 1);
        check "a move was introduced or op folded" true
          (count_instrs (function R.Iop (Op.Omove, _, _, _) -> true | _ -> false) f
          >= 0));
    Alcotest.test_case "renumber produces dense reachable ids" `Quick
      (fun () ->
        let arts = compile "int f(int x) { while (x > 0) x = x - 1; return x; }" in
        let f = find_fn arts.rtl "f" in
        let n = R.Regmap.cardinal f.R.fn_code in
        let max_id = R.max_node f in
        check "ids within 1..n" true (max_id <= n + 1));
  ]

(* --- Backend passes -------------------------------------------------- *)

let backend_tests =
  [
    Alcotest.test_case "tunneling shortcuts Lnop chains" `Quick (fun () ->
        let arts = compile "int f(int x) { while (x > 0) { x = x - 1; } return x; }" in
        let f = find_fn arts.ltl_tunneled "f" in
        (* After tunneling, no branch targets an Lnop that merely forwards. *)
        let target_is_forwarding n =
          match L.Nodemap.find_opt n f.L.fn_code with
          | Some (L.Lnop _) -> true
          | _ -> false
        in
        let ok = ref true in
        L.Nodemap.iter
          (fun _ i ->
            match i with
            | L.Lcond (_, _, n1, n2) ->
              if target_is_forwarding n1 || target_is_forwarding n2 then ok := false
            | L.Lcall (_, _, n) -> if target_is_forwarding n then ok := false
            | _ -> ())
          f.L.fn_code;
        check "no forwarded branch targets" true !ok);
    Alcotest.test_case "cleanup removes unreferenced labels" `Quick (fun () ->
        let arts = compile "int f(int x) { if (x) return 1; return 2; }" in
        let f = find_fn arts.linear_clean "f" in
        let referenced =
          List.concat_map
            (function Lin.Lgoto l | Lin.Lcond (_, _, l) -> [ l ] | _ -> [])
            f.Lin.fn_code
        in
        List.iter
          (function
            | Lin.Llabel l ->
              check "label referenced" true (List.mem l referenced)
            | _ -> ())
          f.Lin.fn_code);
    Alcotest.test_case "stacking lays out disjoint regions" `Quick (fun () ->
        let arts =
          compile
            "int g(int a,int b,int c,int d,int e,int f0,int h,int i);\n\
             int f(int x) { int a[4]; a[0]=x; return g(a[0],1,2,3,4,5,6,7); }\n\
             int g(int a,int b,int c,int d,int e,int f0,int h,int i) { return a+h+i; }"
        in
        let f = find_fn arts.mach "f" in
        let fl = f.M.fn_layout in
        check "outgoing below link" true (8 * fl.M.fl_outgoing <= fl.M.fl_ofs_link);
        check "link below ra" true (fl.M.fl_ofs_link < fl.M.fl_ofs_ra);
        check "ra below locals" true (fl.M.fl_ofs_ra < fl.M.fl_locals);
        check "locals below stackdata" true (fl.M.fl_locals <= fl.M.fl_stackdata);
        check "stackdata within frame" true
          (fl.M.fl_stackdata + 16 <= fl.M.fl_size);
        check "saved regs in range" true
          (List.for_all
             (fun (_, ofs) -> ofs >= fl.M.fl_ofs_ra + 8 && ofs < fl.M.fl_locals)
             fl.M.fl_saved));
    Alcotest.test_case "asmgen starts with Pallocframe, ends with Pret" `Quick
      (fun () ->
        let arts = compile "int f(int x) { return x; }" in
        let f = find_fn arts.asm "f" in
        check "prologue" true
          (match f.A.fn_code.(0) with A.Pallocframe _ -> true | _ -> false);
        check "has a ret" true
          (Array.exists (function A.Pret -> true | _ -> false) f.A.fn_code));
    Alcotest.test_case "callee-saves are saved iff used" `Quick (fun () ->
        let leaf = compile "int f(int x) { return x + 1; }" in
        let fl = (find_fn leaf.mach "f").M.fn_layout in
        Alcotest.(check int) "leaf saves nothing" 0 (List.length fl.M.fl_saved);
        let caller =
          compile
            "int id(int x);\nint step(int x) { return id(x); }\nint id(int x) { return x; }\nint f(int x) { int a = step(x); int b = step(a); return a + b; }"
        in
        let fl2 = (find_fn caller.mach "f").M.fn_layout in
        check "caller saves something" true (List.length fl2.M.fl_saved > 0));
  ]

(* --- Parallel moves -------------------------------------------------- *)

let parmove_tests =
  let open Target.Machregs in
  let open Target.Locations in
  let eval_moves moves init =
    (* Execute a move list sequentially over a locset. *)
    List.fold_left
      (fun ls (src, dst) -> Locset.set dst (Locset.get src ls) ls)
      init moves
  in
  let regs = [ AX; BX; CX; DX; DI; R8 ] in
  let gen_perm =
    QCheck.map
      (fun shuffle ->
        (* a permutation of regs derived from the random list *)
        let idx = List.mapi (fun i x -> (x, i)) shuffle in
        let sorted = List.sort compare idx in
        List.map (fun (_, i) -> List.nth regs (i mod List.length regs)) sorted)
      (QCheck.list_of_size (QCheck.Gen.return (List.length regs)) QCheck.int)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"parallel moves implement permutations" ~count:200
         gen_perm
         (fun dsts ->
           (* moves: regs.(i) -> dsts.(i); duplicate destinations make the
              moves ill-formed, so require a permutation. *)
           QCheck.assume
             (List.sort compare dsts = List.sort compare_mreg regs);
           let moves =
             List.map2
               (fun s d -> (R s, R d, Memory.Mtypes.Tint))
               regs dsts
           in
           let compiled = Passes.Allocation.compile_parallel_move ~temp_slot:0 moves in
           (* initial locset: distinct values in each source *)
           let init =
             List.fold_left
               (fun ls (r, v) -> Locset.set (R r) (Memory.Values.Vint v) ls)
               Locset.init
               (List.mapi (fun i r -> (r, Int32.of_int (100 + i))) regs)
           in
           let final = eval_moves compiled init in
           (* each destination must hold its source's original value *)
           List.for_all2
             (fun s d ->
               Locset.get (R d) final = Locset.get (R s) init)
             regs dsts));
  ]

let suite0 =
  ( "passes",
    simpllocals_tests @ cminorgen_tests @ selection_tests @ rtl_opt_tests
    @ backend_tests @ parmove_tests )

(* --- Allocation validation (translation validation) ------------------- *)

let alloc_check_tests =
  let compile_rtl_ltl src =
    let arts = compile src in
    (arts.Driver.Compiler.rtl, arts.Driver.Compiler.ltl)
  in
  let mutate_ltl_fn name f (p : Backend.Ltl.program) =
    { p with
      Iface.Ast.prog_defs =
        List.map
          (fun (id, d) ->
            match d with
            | Iface.Ast.Gfun (Iface.Ast.Internal fn) when Ident.name id = name ->
              (id, Iface.Ast.Gfun (Iface.Ast.Internal (f fn)))
            | _ -> (id, d))
          p.Iface.Ast.prog_defs }
  in
  [
    Alcotest.test_case "validator accepts the allocator's output" `Quick
      (fun () ->
        let rtl, ltl =
          compile_rtl_ltl
            "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } int main(void) { return fib(10); }"
        in
        match Passes.Alloc_check.validate_program rtl ltl with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "validator rejects a corrupted operand" `Quick
      (fun () ->
        let rtl, ltl = compile_rtl_ltl "int f(int x, int y) { return x + y; } int main(void) { return f(1,2); }" in
        (* Swap an operation's destination register. *)
        let corrupt fn =
          { fn with
            Backend.Ltl.fn_code =
              Backend.Ltl.Nodemap.map
                (function
                  | Backend.Ltl.Lop (Middle.Op.Oadd, args, _, n) ->
                    Backend.Ltl.Lop (Middle.Op.Oadd, args, Target.Machregs.R15, n)
                  | i -> i)
                fn.Backend.Ltl.fn_code }
        in
        match
          Passes.Alloc_check.validate_program rtl (mutate_ltl_fn "f" corrupt ltl)
        with
        | Ok () -> Alcotest.fail "corruption not detected"
        | Error _ -> ());
    Alcotest.test_case "validator rejects a dropped move" `Quick (fun () ->
        let rtl, ltl =
          compile_rtl_ltl "int f(int x) { int y = x; return y + x; } int main(void) { return f(7); }"
        in
        (* Turn the first move into a nop. *)
        let corrupt fn =
          let changed = ref false in
          { fn with
            Backend.Ltl.fn_code =
              Backend.Ltl.Nodemap.map
                (function
                  | Backend.Ltl.Lop (Middle.Op.Omove, _, _, n) when not !changed ->
                    changed := true;
                    Backend.Ltl.Lnop n
                  | i -> i)
                fn.Backend.Ltl.fn_code }
        in
        match
          Passes.Alloc_check.validate_program rtl (mutate_ltl_fn "f" corrupt ltl)
        with
        | Ok () -> Alcotest.fail "dropped move not detected"
        | Error _ -> ());
    Alcotest.test_case "validator rejects misplaced call arguments" `Quick
      (fun () ->
        let rtl, ltl =
          compile_rtl_ltl
            "int g(int a, int b) { return a - b; } int f(void) { return g(3, 4); } int main(void) { return f(); }"
        in
        (* Swap DI and SI destinations in the argument moves of f. *)
        let corrupt fn =
          { fn with
            Backend.Ltl.fn_code =
              Backend.Ltl.Nodemap.map
                (function
                  | Backend.Ltl.Lop (Middle.Op.Omove, args, Target.Machregs.DI, n) ->
                    Backend.Ltl.Lop (Middle.Op.Omove, args, Target.Machregs.SI, n)
                  | Backend.Ltl.Lop (Middle.Op.Omove, args, Target.Machregs.SI, n) ->
                    Backend.Ltl.Lop (Middle.Op.Omove, args, Target.Machregs.DI, n)
                  | i -> i)
                fn.Backend.Ltl.fn_code }
        in
        match
          Passes.Alloc_check.validate_program rtl (mutate_ltl_fn "f" corrupt ltl)
        with
        | Ok () -> Alcotest.fail "swapped arguments not detected"
        | Error _ -> ());
  ]

let suite = (fst suite0, snd suite0 @ alloc_check_tests)
