(** Batch compilation jobs for the supervised executor.

    [occo batch DIR] turns every C file in a directory into one
    {!Harness.Supervisor.job}. The job body runs in a forked worker, so
    a pass that segfaults, diverges or eats the heap on one input
    cannot take the batch down; its payload — a small JSON summary of
    the compiled artifacts — is what crosses back over the pipe.

    Graceful degradation reuses the partial-artifact machinery of
    {!Compiler.compile_diag}: when a job's retries at the full
    optimization level are exhausted, its fallback recompiles at [-O0]
    (the optimizations are exactly the passes most likely to blow a
    budget),
    and if even that fails, the diagnostic carries how far the pipeline
    got ([Compiler.partial_progress]) so the report still says which
    artifacts exist. *)

module Diag = Support.Diagnostics
module Sup = Harness.Supervisor
module Json = Obs.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** The payload of a successful compile job. *)
let summary ~path ~optimized (arts : Compiler.artifacts) : Json.t =
  let asm = Sizes.asm arts.Compiler.asm in
  let rtl = Sizes.rtl arts.Compiler.rtl in
  Json.Obj
    [
      ("file", Json.Str (Filename.basename path));
      ("optimized", Json.Bool optimized);
      ("functions", Json.num_of_int asm.Sizes.functions);
      ("rtl_size", Json.num_of_int rtl.Sizes.size);
      ("asm_size", Json.num_of_int asm.Sizes.size);
    ]

let compile_once ~path ~options ~optimized () : (Json.t, Diag.t) result =
  match Compiler.compile_source_diag ~options (read_file path) with
  | Ok arts -> Ok (summary ~path ~optimized arts)
  | Error f ->
    (* Keep what the prefix of the pipeline did produce: the report
       can still say how far this input got. *)
    Error
      {
        f.Compiler.fail_diag with
        Diag.context =
          f.Compiler.fail_diag.Diag.context
          @ [
              ("file", Filename.basename path);
              ("progress", Compiler.partial_progress f.Compiler.fail_partial);
            ];
      }

(** One supervised job per C file. [inject_crash] is the testing hook
    behind [occo batch --inject-crash]: the named job SIGSEGVs its
    worker on the first attempt (and only the first), which is how the
    CI smoke test proves a crash is retried, not fatal. *)
let compile_job ?(inject_crash = false) ~optimize (path : string) :
    Json.t Sup.job =
  Sup.job ~cls:"compile" (Filename.basename path)
    ?degraded:
      (if optimize then
         Some
           (fun ~attempt:_ ->
             compile_once ~path ~options:Compiler.no_optims ~optimized:false ())
       else None)
    (fun ~attempt ->
      if inject_crash && attempt = 0 then Unix.kill (Unix.getpid ()) Sys.sigsegv;
      compile_once ~path
        ~options:(if optimize then Compiler.all_optims else Compiler.no_optims)
        ~optimized:optimize ())

(** The inputs of a batch: every [.c] file directly in [dir], sorted,
    so job order — and hence the journal — is stable across runs. *)
let inputs (dir : string) : string list =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (Filename.concat dir)
