(** The differential harness: compile a source string and run it at
    every level of the pipeline through the simulation conventions'
    marshaling, checking that each level refines the Clight reference.
    Used by the test suites, the fuzzer, and the [occo fuzz] command. *)

open Iface
open Iface.Li

let fuel = 3_000_000

(** One level's result: either the outcome of running it, or the error
    (marshaling or otherwise) that prevented the run. A level error no
    longer aborts the collection — the remaining levels still run, and
    their results are reported alongside the per-level errors. *)
type level_result = {
  level : string;
  outcome : (Runners.c_outcome, string) result;
}

let pp_level_result fmt r =
  match r.outcome with
  | Ok o -> Format.fprintf fmt "%-12s %a" r.level Runners.pp_c_outcome o
  | Error e -> Format.fprintf fmt "%-12s level error: %s" r.level e

(** Compile a program and run every level it keeps on the given C
    query. *)
let run_all_levels ?options (p : Cfrontend.Csyntax.program) (q : c_query) :
    (level_result list, string) result =
  let symbols = Ast.prog_defs_names p in
  match Compiler.compile_levels ?options p with
  | Error f -> Error ("compile: " ^ Support.Diagnostics.to_string f.Compiler.fail_diag)
  | Ok levels ->
    Ok
      (List.map
         (fun (l : Pipeline.level) ->
           { level = l.level; outcome = Pipeline.run_level ~symbols ~fuel q l })
         levels)

(** Check that every level's outcome refines the Clight reference. A
    level that errored is a failure of that level, reported with its
    message; it does not mask the other levels' results. *)
let check_all_refine (results : level_result list) : (unit, string) result =
  match results with
  | [] -> Error "no results"
  | { outcome = Error e; level } :: _ ->
    Error (Format.asprintf "reference level %s errored: %s" level e)
  | ({ outcome = Ok ref_outcome; _ } as reference) :: rest ->
    let rec go = function
      | [] -> Ok ()
      | { level; outcome = Error e } :: _ ->
        Error (Format.asprintf "%s: level error: %s" level e)
      | ({ level; outcome = Ok o } as r) :: rest ->
        if Runners.outcome_refines ref_outcome o then go rest
        else
          Error
            (Format.asprintf "@[<v>%s does not refine the source:@,%a@,%a@]"
               level pp_level_result reference pp_level_result r)
    in
    go rest

let main_query_of (p : Cfrontend.Csyntax.program) : c_query option =
  let symbols = Ast.prog_defs_names p in
  Runners.main_query ~symbols ~defs:p ()

(** The main differential check: compile [src] and require every level to
    refine the Clight behavior of [main]. *)
let differential ?options (src : string) : (level_result list, string) result =
  let p = Cfrontend.Cparser.parse_program src in
  match main_query_of p with
  | None -> Error "cannot build main query"
  | Some q -> (
    match run_all_levels ?options p q with
    | Error e -> Error e
    | Ok results -> (
      match check_all_refine results with
      | Ok () -> Ok results
      | Error e -> Error e))

