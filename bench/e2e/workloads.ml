(** The closed-loop workloads: compile, run-loops, run-calls, verify.

    Each set-up returns the op and its traced twin. [self_test] shifts
    every expected answer by one after set-up has checked it, so every op
    must then be counted as failed. *)

module Compiler = Driver.Compiler

let off self_test = if self_test then 1 else 0

(** {1 compile}

    One op compiles the next program of a seeded shuffle of the examples,
    the corpus and the generated mix, at O2. Its output is correct when
    the Asm size equals the one set-up measured. *)

let compile ~seed ~self_test (c : Corpus.t) : Closed.t =
  let srcs =
    List.map snd (Inputs.examples ())
    @ List.map (fun (f : Corpus.file) -> f.Corpus.src) c.Corpus.files
    @ Inputs.fuzz_mix ~seed
  in
  let mix =
    Inputs.shuffle (Random.State.make [| seed |])
      (List.map
         (fun src ->
           match Corpus.compile src with
           | Ok arts -> (src, Corpus.asm_size arts.Compiler.asm)
           | Error e -> failwith ("compile set-up: " ^ e))
         srcs)
  in
  let op i =
    let src, size = mix.(i mod Array.length mix) in
    match Corpus.compile src with
    | Ok arts -> Corpus.asm_size arts.Compiler.asm = size + off self_test
    | Error _ -> false
  in
  { Closed.items = Array.length mix; op; op_traced = op }

(** {1 run-loops, run-calls}

    One op is one round of the mix: every query once, in a seeded order.
    An op is correct when every answer is the file's expected one. *)

let round ~seed ~self_test (queries : Corpus.runnable list) : Closed.t =
  let run_all run i =
    let order = Inputs.shuffle (Random.State.make [| seed; i |]) queries in
    Array.for_all
      (fun (r : Corpus.runnable) ->
        run r = Some (Int32.add r.Corpus.r_expect (Int32.of_int (off self_test))))
      order
  in
  { Closed.items = 1; op = run_all Corpus.run; op_traced = run_all Corpus.run_traced }

let run_loops ~seed ~self_test c =
  round ~seed ~self_test (List.map (Corpus.find c) [ "sieve"; "bubble"; "matmul"; "bf" ])

let run_calls ~seed ~self_test c =
  round ~seed ~self_test
    (List.map (Corpus.find c)
       [ "fib"; "wide"; "apply"; "even/hcomp"; "fig5_driver/hcomp"; "fig5_driver/linked" ])

(** {1 verify}

    One op is the 13-level differential check of the next program of the
    generated mix. Set-up drops the programs whose Clight run takes more
    than 200k steps: [Fuzz.Gen]'s bounded [while] lets a body reassign
    its own counter, and such a draw can burn the checker's whole fuel at
    every level. An op is correct when every level refines Clight and the
    Asm answer is the Clight answer set-up computed. *)

let clight_step_cap = 200_000

let clight_answer src : int32 option =
  let p = Cfrontend.Cparser.parse_program src in
  match Driver.Differential.main_query_of p with
  | None -> None
  | Some q ->
    let symbols = Iface.Ast.prog_defs_names p in
    Corpus.answer
      (Ok
         (Driver.Runners.run_c_level
            (Cfrontend.Clight.semantics ~symbols p)
            ~fuel:clight_step_cap q))

let asm_answer (levels : Driver.Differential.level_result list) =
  match List.rev levels with
  | last :: _ -> Corpus.answer last.Driver.Differential.outcome
  | [] -> None

type verify = { v_closed : Closed.t; v_excluded : float }

let verify ~seed ~self_test : verify =
  let draws = Inputs.fuzz_mix ~seed in
  let pool =
    List.filter_map
      (fun src -> Option.map (fun a -> (src, a)) (clight_answer src))
      draws
  in
  let pool = Array.of_list pool in
  let expect a = Some (Int32.add a (Int32.of_int (off self_test))) in
  let op i =
    let src, a = pool.(i mod Array.length pool) in
    match Driver.Differential.differential src with
    | Ok levels -> asm_answer levels = expect a
    | Error _ -> false
  in
  let op_traced i =
    let src, a = pool.(i mod Array.length pool) in
    match
      Layer.timed "cfrontend.parse" (fun () ->
          Layer.record "cfrontend.bytes" (float_of_int (String.length src));
          Compiler.parse_diag src)
    with
    | Error _ -> false
    | Ok p -> (
      match Driver.Differential.main_query_of p with
      | None -> false
      | Some q -> (
        match
          Layer.timed "verify.levels" (fun () ->
              Driver.Differential.run_all_levels p q)
        with
        | Error _ -> false
        | Ok levels ->
          Layer.timed "verify.check" (fun () ->
              Driver.Differential.check_all_refine levels)
          = Ok ()
          && asm_answer levels = expect a))
  in
  {
    v_closed = { Closed.items = Array.length pool; op; op_traced };
    v_excluded =
      float_of_int (List.length draws - Array.length pool)
      /. float_of_int (List.length draws);
  }
