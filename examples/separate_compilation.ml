(** Separate compilation — the paper's running example (Fig. 1,
    Example 2.2, Corollary 3.9).

    Two translation units, [A.c] defining [mult] and [B.c] defining
    [sqr] which calls [mult], are compiled {e separately} and linked at
    the Asm level. Three semantics are compared:

    - the horizontal composition [Clight(A.c) ⊕ Clight(B.c)] — the
      source-level behavior, with the cross-module call resolved by the
      push/pop rules of Fig. 5;
    - the horizontal composition [Asm(A.s) ⊕ Asm(B.s)] of the separately
      compiled units;
    - the syntactically linked program [Asm(A.s + B.s)] (Thm. 3.5).

    The plays observed at the interface match the paper's example:
    [sqr(3) · mult(3,3) · 9 · 9]. *)

open Support
open Memory.Mtypes
open Memory.Values
open Iface
open Iface.Li

let unit_a = "int mult(int n, int p) { return n * p; }"

let unit_b =
  "int mult(int n, int p);\nint sqr(int n) { return mult(n, n); }"

let fuel = 100_000

let () =
  Format.printf "=== Separate compilation (Fig. 1 / Cor. 3.9) ===@.@.";
  Format.printf "A.c: %s@.B.c: %s@.@." unit_a unit_b;
  let pa = Cfrontend.Cparser.parse_program unit_a in
  let pb = Cfrontend.Cparser.parse_program unit_b in
  let symbols =
    Driver.Linking.shared_symbols [ Ast.prog_defs_names pa; Ast.prog_defs_names pb ]
  in
  let linked_src =
    Errors.get (Ast.link_list ~internal_sig:Cfrontend.Csyntax.fn_sig [ pa; pb ])
  in
  let ge = Genv.globalenv ~symbols linked_src in
  let m0 = Option.get (Genv.init_mem ~symbols linked_src) in
  let sg = { sig_args = [ Tint ]; sig_res = Some Tint } in
  let q =
    { cq_vf = Genv.symbol_address ge (Ident.intern "sqr") 0;
      cq_sg = sg; cq_args = [ Vint 3l ]; cq_mem = m0 }
  in
  Format.printf "Query: %a@.@." pp_c_query q;

  (* Source-level horizontal composition: the cross-module call from sqr
     to mult is resolved by ⊕'s push/pop rules; we instrument the
     composition to print the play. *)
  let la = Cfrontend.Clight.semantics ~symbols pa in
  let lb = Cfrontend.Clight.semantics ~symbols pb in
  let composed = Core.Hcomp.compose la lb in
  (* Observe the play by intercepting the composite's initial question and
     the inner component boundaries: we re-run component B alone with an
     oracle standing for A, printing the interaction. *)
  Format.printf "The play at the C interface (cf. paper eq. (2)):@.";
  Format.printf "  sqr(3)";
  let oracle (qa : c_query) =
    Format.printf " . %a" pp_c_query qa;
    match Core.Smallstep.run ~fuel la ~oracle:(fun _ -> None) qa with
    | Core.Smallstep.Final (_, r) ->
      Format.printf " . %a" pp r.cr_res;
      Some r
    | _ -> None
  in
  (match Core.Smallstep.run ~fuel lb ~oracle q with
  | Core.Smallstep.Final (_, r) -> Format.printf " . %a@.@." pp r.cr_res
  | _ -> Format.printf " (stuck)@.");

  (* Now the three semantics. *)
  let show name outcome =
    Format.printf "%-28s %a@." name Driver.Runners.pp_c_outcome outcome
  in
  let src_out = Driver.Runners.run_c_level composed ~fuel q in
  show "Clight(A.c) (+) Clight(B.c):" src_out;

  let asm_a = Errors.get (Driver.Compiler.compile_c_to_asm unit_a) in
  let asm_b = Errors.get (Driver.Compiler.compile_c_to_asm unit_b) in
  let aa = Backend.Asm.semantics ~symbols asm_a in
  let ab = Backend.Asm.semantics ~symbols asm_b in
  let linked_asm = Errors.get (Backend.Asm.link asm_a asm_b) in
  (* Each Asm semantics must agree with the source composition: the same
     answer both ways round. *)
  let agrees name lts =
    match Driver.Runners.run_a_level lts ~fuel q with
    | Ok o ->
      show name o;
      Driver.Runners.outcome_refines src_out o
      && Driver.Runners.outcome_refines o src_out
    | Error e ->
      Format.printf "error: %s@." e;
      false
  in
  let hcomp_ok = agrees "Asm(A.s) (+) Asm(B.s):" (Core.Hcomp.compose aa ab) in
  let linked_ok =
    agrees "Asm(A.s + B.s):" (Backend.Asm.semantics ~symbols linked_asm)
  in
  if hcomp_ok && linked_ok then
    Format.printf
      "@.All three agree: Cor. 3.9 (separate compilation) and Thm. 3.5@.(linking implements horizontal composition) on this instance.@."
  else Format.printf "@.The three semantics DISAGREE on this instance.@."
