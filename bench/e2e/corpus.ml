(** The fixed benchmark corpus ([bench/e2e/corpus/*.c]) and the set-up
    check every workload runs on it.

    A file whose comment holds a line [query: f(a, b) = n] is a program
    with a hand-written expected answer: the C query [f(a, b)] must
    return [n]. [query: f(a) = n with other.c] links the file with a
    second translation unit. The check compiles every file at O2, runs
    every query at every level of the pipeline (the 13-level
    differential for single units, [Clight ⊕ Clight], [Asm ⊕ Asm] and
    the linked [Asm] for pairs), and requires the expected answer
    everywhere: from the Clight reference interpreter, the threaded Asm
    interpreter and the [semantics_naive] one. The naive run also counts
    the Asm instructions each query executes. *)

open Iface
module Compiler = Driver.Compiler
module Runners = Driver.Runners
module Smallstep = Core.Smallstep

let dir = "bench/e2e/corpus"
let fuel = 10_000_000

type query = {
  fn : string;
  args : int32 list;
  expect : int32;
  partner : string option;
}

type file = { name : string; src : string; query : query option }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let parse_query ~name src : query option =
  Option.map
    (fun i ->
      let line = String.sub src i (String.length src - i) in
      match
        Scanf.sscanf line "query: %[A-Za-z0-9_] ( %[^)] ) = %ld %[^\n]"
          (fun fn args expect rest ->
            {
              fn;
              args =
                List.filter_map
                  (fun a ->
                    match String.trim a with "" -> None | a -> Some (Int32.of_string a))
                  (String.split_on_char ',' args);
              expect;
              partner =
                (match String.split_on_char ' ' (String.trim rest) with
                | "with" :: f :: _ -> Some f
                | _ -> None);
            })
      with
      | q -> q
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
        failwith (name ^ ": malformed query line"))
    (find_sub src "query:")

let load () : file list =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (fun name ->
         let src = read_file (Filename.concat dir name) in
         { name; src; query = parse_query ~name src })

(** {1 Compiling} *)

(** Parse and compile at O2, each through its own public entry point so
    the traced run sees the front end and the pass pipeline apart. *)
let compile (src : string) : (Compiler.artifacts, string) result =
  match
    Layer.timed "cfrontend.parse" (fun () ->
        let r = Compiler.parse_diag src in
        Layer.record "cfrontend.bytes" (float_of_int (String.length src));
        r)
  with
  | Error d -> Error (Support.Diagnostics.to_string d)
  | Ok p -> (
    match Compiler.compile_diag p with
    | Ok arts -> Ok arts
    | Error f -> Error (Support.Diagnostics.to_string f.Compiler.fail_diag))

let asm_size (a : Backend.Asm.program) = (Driver.Sizes.asm a).Driver.Sizes.size

(** {1 Runnable queries} *)

type asm_lts =
  | Lts :
      ('s, Li.a_query, Li.a_reply, Li.a_query, Li.a_reply) Smallstep.lts
      -> asm_lts

type runnable = {
  r_name : string;
  r_query : Li.c_query;
  r_expect : int32;
  r_lts : asm_lts;  (** the threaded Asm semantics, as users run it *)
  r_traced : asm_lts;  (** same, with [⊕] pushes counted for pairs *)
  r_pushes : int ref;
  r_instrs : int;  (** Asm instructions one query executes *)
  mutable r_words : float;  (** minor words of a warm untraced run *)
}

let answer (o : (Runners.c_outcome, string) result) : int32 option =
  match o with
  | Ok (Smallstep.Final (_, { Li.cr_res = Memory.Values.Vint n; _ })) -> Some n
  | _ -> None

let pp_answer = function
  | Some n -> Int32.to_string n
  | None -> "no integer answer"

(** The user path: [Runners.run_a_level] through [C]. *)
let run (r : runnable) : int32 option =
  let (Lts l) = r.r_lts in
  answer (Runners.run_a_level l ~fuel r.r_query)

(** The same query decomposed into its public calls, each timed in its
    own span: [CA] forward marshaling, the Asm run (wrapped to count
    transitions, and observed by [Obs_lts] like any traced run), [CA]
    backward marshaling. *)
let run_traced (r : runnable) : int32 option =
  let (Lts l) = r.r_traced in
  let transitions = ref 0 in
  let counting =
    {
      l with
      Smallstep.init = (fun aq -> Layer.timed "asm.init" (fun () -> l.Smallstep.init aq));
      step =
        (fun s ->
          let x = l.Smallstep.step s in
          if x <> [] then incr transitions;
          x);
    }
  in
  let pushes0 = !(r.r_pushes) in
  let cc = Runners.cc_ca in
  let t_query = Stats.now () in
  match
    Layer.timed "callconv.fwd_query" (fun () -> cc.Core.Simconv.fwd_query r.r_query)
  with
  | None -> None
  | Some (w, aq) -> (
    let t0 = Stats.now () in
    let o =
      Layer.timed "asm.run" (fun () ->
          Core.Obs_lts.run ~fuel counting ~oracle:(fun _ -> None) aq)
    in
    let run_us = (Stats.now () -. t0) *. 1e6 in
    match o with
    | Smallstep.Final (_, ar) -> (
      match
        Layer.timed "callconv.bwd_reply" (fun () -> cc.Core.Simconv.bwd_reply w ar)
      with
      | Some cr ->
        let query = r.r_name in
        Layer.record ("query." ^ query) ((Stats.now () -. t_query) *. 1e6);
        Layer.record "asm.run_us" run_us;
        Layer.record "asm.instrs" (float_of_int r.r_instrs);
        Layer.note ~query "asm.instrs" (float_of_int r.r_instrs);
        Layer.note ~query "asm.transitions" (float_of_int !transitions);
        Layer.note ~query "mem.frames"
          (float_of_int
             (Memory.Mem.nextblock cr.Li.cr_mem
             - Memory.Mem.nextblock r.r_query.Li.cq_mem));
        Layer.note ~query "hcomp.pushes" (float_of_int (!(r.r_pushes) - pushes0));
        answer (Ok (Smallstep.Final (Core.Events.e0, cr)))
      | None -> None)
    | _ -> None)

(** Time [n] alloc/free pairs of a 64-byte block on the query's memory:
    the memory-model cost of one call frame, in microseconds. *)
let alloc_free_us (r : runnable) ~n =
  let m = r.r_query.Li.cq_mem in
  let t0 = Stats.now () in
  for _ = 1 to n do
    let m', b = Memory.Mem.alloc m 0 64 in
    ignore (Sys.opaque_identity (Memory.Mem.free m' b 0 64))
  done;
  (Stats.now () -. t0) *. 1e6 /. float_of_int n

(* Count the transitions of a run of the naive (one instruction per
   step) Asm semantics. *)
let count_instrs (Lts l) (q : Li.c_query) : int * int32 option =
  let n = ref 0 in
  let counting =
    {
      l with
      Smallstep.step =
        (fun s ->
          let x = l.Smallstep.step s in
          if x <> [] then incr n;
          x);
    }
  in
  let a = answer (Runners.run_a_level counting ~fuel q) in
  (!n, a)

(** {1 The set-up check} *)

type t = {
  files : file list;
  code_size : int;  (** Asm instructions over every unit at O2 *)
  dyn_instrs : int;  (** Asm instructions executed by every query *)
  runnables : runnable list;
}

let sig_of_args args =
  {
    Memory.Mtypes.sig_args = List.map (fun _ -> Memory.Mtypes.Tint) args;
    sig_res = Some Memory.Mtypes.Tint;
  }

let c_query ~symbols ~defs (q : query) =
  match
    Runners.main_query ~symbols ~defs ~name:q.fn
      ~args:(List.map (fun n -> Memory.Values.Vint n) q.args)
      ~sg:(sig_of_args q.args) ()
  with
  | Some cq -> cq
  | None -> failwith ("cannot build the query " ^ q.fn)

let expect_at ~what ~(q : query) ~file (a : int32 option) =
  if a <> Some q.expect then
    failwith
      (Printf.sprintf "%s: %s answered %s, expected %ld" file what (pp_answer a)
         q.expect)

let runnable ~name ~cq ~(q : query) ~instrs ?traced ?(pushes = ref 0) lts =
  {
    r_name = name;
    r_query = cq;
    r_expect = q.expect;
    r_lts = lts;
    r_traced = Option.value traced ~default:lts;
    r_pushes = pushes;
    r_instrs = instrs;
    r_words = nan;
  }

(* The threaded answer must be the expected one; a second, warm and
   untraced run gives the query's minor words. *)
let check_threaded ~file (q : query) (r : runnable) =
  expect_at ~what:r.r_name ~q ~file (run r);
  let traced = !Obs.enabled in
  Obs.enabled := false;
  let w0 = Gc.minor_words () in
  ignore (run r);
  r.r_words <- Gc.minor_words () -. w0;
  Obs.enabled := traced

(* A single unit: the 13-level differential (Clight reference first),
   then threaded and naive Asm. *)
let check_single (f : file) (q : query) (arts : Compiler.artifacts) =
  let ast = arts.Compiler.clight1 in
  let symbols = Ast.prog_defs_names ast in
  let cq = c_query ~symbols ~defs:ast q in
  (match
     Layer.timed "verify.levels" (fun () -> Driver.Differential.run_all_levels ast cq)
   with
  | Error e -> failwith (f.name ^ ": " ^ e)
  | Ok levels ->
    (match
       Layer.timed "verify.check" (fun () -> Driver.Differential.check_all_refine levels)
     with
    | Ok () -> ()
    | Error e -> failwith (f.name ^ ": " ^ e));
    List.iter
      (fun (lr : Driver.Differential.level_result) ->
        expect_at ~what:lr.Driver.Differential.level ~q ~file:f.name
          (answer lr.Driver.Differential.outcome))
      levels);
  let threaded = Lts (Backend.Asm.semantics ~symbols arts.Compiler.asm) in
  let instrs, naive =
    count_instrs (Lts (Backend.Asm.semantics_naive ~symbols arts.Compiler.asm)) cq
  in
  expect_at ~what:"naive Asm" ~q ~file:f.name naive;
  let r = runnable ~name:(Filename.remove_extension f.name) ~cq ~q ~instrs threaded in
  check_threaded ~file:f.name q r;
  ([ r ], instrs)

(* A pair of units: Clight ⊕ Clight is the reference; Asm ⊕ Asm and the
   linked Asm must agree with it, threaded and naive. *)
let check_pair (f : file) (q : query) (arts_a : Compiler.artifacts)
    (arts_b : Compiler.artifacts) =
  let a = arts_a.Compiler.clight1 and b = arts_b.Compiler.clight1 in
  let symbols =
    Driver.Linking.shared_symbols [ Ast.prog_defs_names a; Ast.prog_defs_names b ]
  in
  let linked_c =
    Support.Errors.get
      (Ast.link_list ~internal_sig:Cfrontend.Csyntax.fn_sig [ a; b ])
  in
  let cq = c_query ~symbols ~defs:linked_c q in
  let src =
    Core.Hcomp.compose_all
      [| Cfrontend.Clight.semantics ~symbols a; Cfrontend.Clight.semantics ~symbols b |]
  in
  expect_at ~what:"Clight (+) Clight" ~q ~file:f.name
    (answer (Ok (Runners.run_c_level src ~fuel cq)));
  let asm_a = arts_a.Compiler.asm and asm_b = arts_b.Compiler.asm in
  let linked = Support.Errors.get (Backend.Asm.link asm_a asm_b) in
  let instrs, naive =
    count_instrs (Lts (Backend.Asm.semantics_naive ~symbols linked)) cq
  in
  expect_at ~what:"naive linked Asm" ~q ~file:f.name naive;
  let _, naive_h =
    count_instrs
      (Lts
         (Core.Hcomp.compose
            (Backend.Asm.semantics_naive ~symbols asm_a)
            (Backend.Asm.semantics_naive ~symbols asm_b)))
      cq
  in
  expect_at ~what:"naive Asm (+) Asm" ~q ~file:f.name naive_h;
  let stem = Filename.remove_extension f.name in
  let pushes = ref 0 in
  let asm_sem p = Backend.Asm.semantics ~symbols p in
  let composed = Lts (Core.Hcomp.compose (asm_sem asm_a) (asm_sem asm_b)) in
  let observed =
    Lts
      (Core.Hcomp.compose
         ~observe:(function Core.Hcomp.Bpush _ -> incr pushes | Core.Hcomp.Bpop _ -> ())
         (asm_sem asm_a) (asm_sem asm_b))
  in
  let rs =
    [
      runnable ~name:(stem ^ "/hcomp") ~cq ~q ~instrs ~traced:observed ~pushes composed;
      runnable ~name:(stem ^ "/linked") ~cq ~q ~instrs (Lts (asm_sem linked));
    ]
  in
  List.iter (check_threaded ~file:f.name q) rs;
  (rs, instrs)

(** Compile the corpus and check every query; raises [Failure] with the
    first wrong answer. *)
let check () : t =
  let files = load () in
  let compiled =
    List.map
      (fun f ->
        match compile f.src with
        | Ok arts -> (f.name, arts)
        | Error e -> failwith (f.name ^ ": " ^ e))
      files
  in
  let arts name =
    match List.assoc_opt name compiled with
    | Some a -> a
    | None -> failwith ("corpus file not found: " ^ name)
  in
  let checked =
    List.filter_map
      (fun f ->
        Option.map
          (fun q ->
            match q.partner with
            | None -> check_single f q (arts f.name)
            | Some p -> check_pair f q (arts f.name) (arts p))
          f.query)
      files
  in
  {
    files;
    code_size =
      List.fold_left (fun acc (_, a) -> acc + asm_size a.Compiler.asm) 0 compiled;
    dyn_instrs = List.fold_left (fun acc (_, n) -> acc + n) 0 checked;
    runnables = List.concat_map fst checked;
  }

let find (c : t) name =
  match List.find_opt (fun r -> r.r_name = name) c.runnables with
  | Some r -> r
  | None -> failwith ("no corpus query named " ^ name)
