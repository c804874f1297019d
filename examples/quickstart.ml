(** Quickstart: compile a C component and watch the correctness theorem at
    work.

    This example:
    1. parses and compiles a small C program through all 17 passes;
    2. runs it at the source level (Clight, language interface [C]);
    3. marshals the same query through the calling convention
       [CA = CL · LM · MA] (paper §5) and runs the compiled Asm;
    4. checks that the answers are related — one concrete instance of
       Theorem 3.8. *)

open Support
open Memory.Values
open Iface

let source =
  {|
/* Greatest common divisor, iteratively. */
int gcd(int a, int b) {
  while (b != 0) {
    int t = a % b;
    a = b;
    b = t;
  }
  return a;
}

int main(void) {
  return gcd(252, 105) * 1000 + gcd(17, 5);
}
|}

let () =
  Format.printf "=== CompCertO quickstart ===@.@.";
  Format.printf "Source program:%s@." source;

  (* 1. Compile. *)
  let program = Cfrontend.Cparser.parse_program source in
  let symbols = Ast.prog_defs_names program in
  let arts = Errors.get (Driver.Compiler.compile program) in
  Format.printf "Compiled through %d passes; Asm code for gcd:@.@."
    (List.length (Driver.Pipeline.passes Driver.Compiler.all_optims));
  (match Ast.find_def arts.asm (Ident.intern "gcd") with
  | Some (Ast.Gfun (Ast.Internal f)) ->
    Format.printf "%a@." Backend.Asm.pp_function f
  | _ -> ());

  (* 2. Run the source semantics: Clight(p) : C ↠ C. *)
  let q = Option.get (Driver.Runners.main_query ~symbols ~defs:program ()) in
  let src_sem = Cfrontend.Clight.semantics ~symbols program in
  let src_out = Driver.Runners.run_c_level src_sem ~fuel:1_000_000 q in
  Format.printf "Clight(p) on main():  %a@." Driver.Runners.pp_c_outcome src_out;

  (* 3. Marshal the query through CA = CL · LM · MA and run Asm(p'). *)
  let tgt_sem = Backend.Asm.semantics ~symbols arts.asm in
  (match Driver.Runners.run_a_level tgt_sem ~fuel:1_000_000 q with
  | Ok tgt_out ->
    Format.printf "Asm(p')  on main():   %a@." Driver.Runners.pp_c_outcome tgt_out;
    (* 4. The refinement check of Thm. 3.8 (answers related under C). *)
    Format.printf "@.Thm 3.8 instance (Clight(p) ≤C↠C Asm(p')): %s@."
      (if Driver.Runners.outcome_refines src_out tgt_out then "HOLDS"
       else "VIOLATED");
    (match (src_out, tgt_out) with
    | Core.Smallstep.Final (_, r1), Core.Smallstep.Final (_, r2) ->
      Format.printf "  source answer: %a, target answer: %a@." pp r1.Li.cr_res
        pp r2.Li.cr_res
    | _ -> ())
  | Error e -> Format.printf "marshaling error: %s@." e)
