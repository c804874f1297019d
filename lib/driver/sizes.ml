(** Program-shape measurement for every IR of the pipeline.

    Each measure returns [(functions, size)] where [functions] counts
    internal function definitions and [size] counts statements (for the
    structured front-end/middle-end IRs: one per leaf or branching
    statement, sequencing is free) or instructions (for the CFG and
    linear back-end IRs). Through [Pipeline.shape] they feed the
    per-pass spans, making size deltas per pass visible in a trace. *)

open Iface
module C = Cfrontend.Csyntax

type shape = { functions : int; size : int }

let measure (size_fn : 'f -> int) (p : ('f, 'v) Ast.program) : shape =
  List.fold_left
    (fun acc (_, d) ->
      match d with
      | Ast.Gfun (Ast.Internal f) ->
        { functions = acc.functions + 1; size = acc.size + size_fn f }
      | _ -> acc)
    { functions = 0; size = 0 }
    p.Ast.prog_defs

(* Statement counts: sequencing constructs are glue, not statements. *)

let rec clight_stmt (s : C.stmt) =
  match s with
  | C.Sskip -> 0
  | C.Ssequence (a, b) -> clight_stmt a + clight_stmt b
  | C.Sifthenelse (_, a, b) -> 1 + clight_stmt a + clight_stmt b
  | C.Sloop (a, b) -> 1 + clight_stmt a + clight_stmt b
  | C.Sassign _ | C.Sset _ | C.Scall _ | C.Sbreak | C.Scontinue | C.Sreturn _ -> 1

let rec cshm_stmt (s : Cfrontend.Csharpminor.stmt) =
  let open Cfrontend.Csharpminor in
  match s with
  | Sskip -> 0
  | Sseq (a, b) -> cshm_stmt a + cshm_stmt b
  | Sifthenelse (_, a, b) -> 1 + cshm_stmt a + cshm_stmt b
  | Sloop a | Sblock a -> 1 + cshm_stmt a
  | Sset _ | Sstore _ | Scall _ | Sexit _ | Sreturn _ -> 1

let rec cminor_stmt (s : Middle.Cminor.stmt) =
  let open Middle.Cminor in
  match s with
  | Sskip -> 0
  | Sseq (a, b) -> cminor_stmt a + cminor_stmt b
  | Sifthenelse (_, a, b) -> 1 + cminor_stmt a + cminor_stmt b
  | Sloop a | Sblock a -> 1 + cminor_stmt a
  | Sassign _ | Sstore _ | Scall _ | Stailcall _ | Sexit _ | Sreturn _ -> 1

let rec cminorsel_stmt (s : Middle.Cminorsel.stmt) =
  let open Middle.Cminorsel in
  match s with
  | Sskip -> 0
  | Sseq (a, b) -> cminorsel_stmt a + cminorsel_stmt b
  | Sifthenelse (_, a, b) -> 1 + cminorsel_stmt a + cminorsel_stmt b
  | Sloop a | Sblock a -> 1 + cminorsel_stmt a
  | Sassign _ | Sstore _ | Scall _ | Stailcall _ | Sexit _ | Sreturn _ -> 1

(* The measures, one per pipeline level. *)

let clight (p : C.program) = measure (fun f -> clight_stmt f.C.fn_body) p

let csharpminor (p : Cfrontend.Csharpminor.program) =
  measure (fun f -> cshm_stmt f.Cfrontend.Csharpminor.fn_body) p

let cminor (p : Middle.Cminor.program) =
  measure (fun f -> cminor_stmt f.Middle.Cminor.fn_body) p

let cminorsel (p : Middle.Cminorsel.program) =
  measure (fun f -> cminorsel_stmt f.Middle.Cminorsel.fn_body) p

let rtl (p : Middle.Rtl.program) =
  measure (fun f -> Middle.Rtl.Regmap.cardinal f.Middle.Rtl.fn_code) p

let ltl (p : Backend.Ltl.program) =
  measure (fun f -> Backend.Ltl.Nodemap.cardinal f.Backend.Ltl.fn_code) p

let linear (p : Backend.Linear.program) =
  measure (fun f -> List.length f.Backend.Linear.fn_code) p

let mach (p : Backend.Mach.program) =
  measure (fun f -> Array.length f.Backend.Mach.fn_code) p

let asm (p : Backend.Asm.program) =
  measure (fun f -> Array.length f.Backend.Asm.fn_code) p
