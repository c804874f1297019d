(** The simulation convention algebra at work: print the machine-checked
    derivation of Theorem 3.8 (paper §5, Figs. 10–11).

    Starting from the per-pass conventions of Table 3, the derivation
    engine inserts the parametricity pseudo-passes (Thm. 4.3/5.6) and
    rewrites the composite — every step justified by a lemma of the
    algebra — into the uniform convention

        C  =  R* . wt . CL . LM . MA . vainj

    independently for the outgoing and incoming sides. *)

let () =
  let passes = Driver.Pipeline.passes Driver.Compiler.all_optims in
  Format.printf "=== Deriving Thm 3.8's uniform convention (Figs. 10-11) ===@.@.";
  Format.printf "Per-pass conventions (Table 3):@.";
  List.iter
    (fun (p : Convalg.Derive.pass_info) ->
      Format.printf "  %-14s %-12s -> %-12s   %a ->> %a@."
        (p.pass_name ^ if p.optional then "*" else "")
        p.pass_source p.pass_target Convalg.Cterm.pp p.outgoing
        Convalg.Cterm.pp p.incoming)
    passes;
  Format.printf "@.";
  let out, inc = Convalg.Derive.thm_3_8 passes in
  Format.printf "%a@.@.%a@.@." Convalg.Derive.pp_side out Convalg.Derive.pp_side
    inc;
  Format.printf "Uniform convention: C = %a : C <=> A@." Convalg.Cterm.pp
    Convalg.Cterm.uniform_c
