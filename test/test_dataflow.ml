(** Dense RTL dataflow against its references.

    - The worklist engine ([Support.Fixpoint]) against a round-robin
      iteration to the fixpoint, forward and backward, on random graphs
      over a small finite lattice.
    - Value analysis, Constprop and CSE against the map-based
      implementations they replaced ([Va_oracle], [Cse_oracle]): the
      same fact at every node, floats compared by their bits, and the
      same rewritten code, on generated programs, [examples/c] and the
      benchmark corpus. *)

module R = Middle.Rtl
module P = Driver.Pipeline
module VA = Middle.Valueanalysis
module Fixpoint = Support.Fixpoint

(* --- The engine ------------------------------------------------------ *)

(* A random graph: node [n]'s successors (-1 and the nodes past the
   last are no successors), entry facts, and a monotone transfer per
   node over the subsets of four elements (bit masks, joined by [lor]):
   [base] is added whatever the input, so a node's output is not ⊥
   even where nothing reaches it. *)
type case = {
  size : int;
  succs : int list array;
  entries : (int * int) list;
  keep : int array;
  gen : int array;
  base : int array;
}

let pp_case fmt c =
  Format.fprintf fmt "size %d@." c.size;
  Array.iteri
    (fun n l ->
      Format.fprintf fmt "%d -> [%s] keep %d gen %d base %d@." n
        (String.concat "; " (List.map string_of_int l))
        c.keep.(n) c.gen.(n) c.base.(n))
    c.succs;
  List.iter (fun (n, v) -> Format.fprintf fmt "entry %d: %d@." n v) c.entries

let gen_case =
  QCheck.Gen.(
    int_range 1 12 >>= fun size ->
    let mask = int_bound 15 in
    let node = int_bound (size - 1) in
    (* Successors up to two past the last node; a node its own
       successor as often as any other. *)
    let succ = frequency [ (1, return (-1)); (size, node); (1, int_range size (size + 1)) ] in
    array_repeat size (list_size (int_bound 3) succ) >>= fun succs ->
    list_size (int_range 1 3) (pair node mask) >>= fun entries ->
    array_repeat size mask >>= fun keep ->
    array_repeat size mask >>= fun gen ->
    array_repeat size (frequency [ (3, return 0); (1, mask) ]) >|= fun base ->
    { size; succs; entries; keep; gen; base })

let arb_case = QCheck.make ~print:(Format.asprintf "%a" pp_case) gen_case

let popcount x =
  let rec go x k = if x = 0 then k else go (x land (x - 1)) (k + 1) in
  go x 0

(* Monotone: below two elements the input is masked, from two on it
   grows, and the masked input is always within the grown one. *)
let transfer c n x =
  c.base.(n) lor if popcount x >= 2 then x lor c.gen.(n) else x land c.keep.(n)

let in_graph c m = m >= 0 && m < c.size

let graph c =
  let first = Array.make (c.size + 1) 0 in
  Array.iteri (fun n l -> first.(n + 1) <- first.(n) + List.length l) c.succs;
  { Fixpoint.first; succ = Array.of_list (List.concat (Array.to_list c.succs)) }

let start c =
  let facts = Array.make c.size 0 in
  List.iter (fun (n, v) -> facts.(n) <- facts.(n) lor v) c.entries;
  facts

(* Sweep every edge, in node order, until no fact grows: [edge n m]
   is the constraint that [n]'s output reaches [m] forward, and that
   [m]'s reaches [n] backward. *)
let round_robin c ~backward =
  let facts = start c in
  let grew = ref true in
  while !grew do
    grew := false;
    for n = 0 to c.size - 1 do
      List.iter
        (fun m ->
          if in_graph c m then begin
            let src, dst = if backward then (m, n) else (n, m) in
            let x = facts.(dst) lor transfer c src facts.(src) in
            if x <> facts.(dst) then begin
              facts.(dst) <- x;
              grew := true
            end
          end)
        c.succs.(n)
    done
  done;
  facts

let engine c ~backward =
  let facts = start c in
  let out = ref 0 in
  let visit n = out := transfer c n facts.(n) in
  let flow _ m =
    let x = facts.(m) lor !out in
    x <> facts.(m)
    && begin
         facts.(m) <- x;
         true
       end
  in
  (if backward then Fixpoint.backward else Fixpoint.forward) (graph c) ~visit ~flow;
  facts

let engine_agrees ~backward =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "Fixpoint.%s reaches the round-robin fixpoint"
         (if backward then "backward" else "forward"))
    ~count:500 arb_case (fun c ->
      let want = round_robin c ~backward and got = engine c ~backward in
      want = got
      || QCheck.Test.fail_reportf "engine [%s], round robin [%s]"
           (String.concat "; " (Array.to_list (Array.map string_of_int got)))
           (String.concat "; " (Array.to_list (Array.map string_of_int want))))

(* --- The analyses against their oracles ------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let c_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* The RTL program each pass of [P.full] that reads RTL receives when
   [p] is compiled, by pass name. *)
let rtl_inputs (p : Cfrontend.Csyntax.program) : (string * R.program) list =
  let rec walk acc (cur : P.program) = function
    | [] -> acc
    | P.Keep _ :: rest -> walk acc cur rest
    | P.Pass (P.Stage s) :: rest -> (
      match cur with
      | P.Program (ir, x) -> (
        let acc = match ir with P.RTL -> (s.name, (x : R.program)) :: acc | _ -> acc in
        match P.same ir s.src with
        | Some P.Refl -> (
          match s.run x with Ok y -> walk acc (P.Program (s.tgt, y)) rest | Error _ -> acc)
        | None -> acc))
  in
  walk [] (P.Program (P.Clight1, p)) P.full

let functions pass inputs =
  match List.assoc_opt pass inputs with
  | None -> []
  | Some (p : R.program) ->
    List.filter_map
      (fun (id, d) ->
        match d with
        | Iface.Ast.Gfun (Iface.Ast.Internal f) -> Some (Support.Ident.name id, f)
        | _ -> None)
      p.Iface.Ast.prog_defs

(* Instructions compare structurally, float constants by their bits. *)
let instr_equal (a : R.instruction) (b : R.instruction) =
  match (a, b) with
  | R.Iop (o1, a1, r1, n1), R.Iop (o2, a2, r2, n2) ->
    Middle.Op.equal_operation o1 o2 && a1 = a2 && r1 = r2 && n1 = n2
  | _ -> a = b

(* The first node where [c1] and [c2] differ. *)
let code_diff (c1 : R.code) (c2 : R.code) =
  let size = max (R.Code.size c1) (R.Code.size c2) in
  let rec go n =
    if n >= size then None
    else
      match (R.Code.get c1 n, R.Code.get c2 n) with
      | Some i1, Some i2 when instr_equal i1 i2 -> go (n + 1)
      | None, None -> go (n + 1)
      | _ -> Some n
  in
  go 0

let fact_equal a b =
  match (a, b) with
  | None, None -> true
  | Some l1, Some l2 ->
    List.length l1 = List.length l2
    && List.for_all2 (fun (r1, v1) (r2, v2) -> r1 = r2 && Memory.Values.equal v1 v2) l1 l2
  | _ -> false

let pp_fact fmt = function
  | None -> Format.pp_print_string fmt "unreachable"
  | Some l ->
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
      (fun fmt (r, v) -> Format.fprintf fmt "x%d = %a" r Memory.Values.pp v)
      fmt l

(* Every disagreement with the oracles on [p], as one message each. *)
let disagreements (p : Cfrontend.Csyntax.program) : string list =
  let inputs = rtl_inputs p in
  let facts =
    List.concat_map
      (fun (name, f) ->
        let va = VA.analyze f and oracle = Va_oracle.analyze f in
        R.Code.fold
          (fun n _ acc ->
            let got = VA.fact va n and want = Va_oracle.fact (oracle n) in
            if fact_equal got want then acc
            else
              Format.asprintf "%s, node %d: fact %a, oracle %a" name n pp_fact got pp_fact
                want
              :: acc)
          f.R.fn_code [])
      (functions "Constprop" inputs)
  in
  let code pass transf oracle =
    List.filter_map
      (fun (name, f) ->
        let got = Support.Errors.get (transf f) and want = oracle f in
        Option.map
          (fun n -> Printf.sprintf "%s, %s: code differs at node %d" pass name n)
          (code_diff got.R.fn_code want.R.fn_code))
      (functions pass inputs)
  in
  facts
  @ code "Constprop" Passes.Constprop.transf_function Va_oracle.constprop
  @ code "CSE" Passes.Cse.transf_function Cse_oracle.cse

let parses src =
  match Cfrontend.Cparser.parse_program src with
  | _ -> true
  | exception Cfrontend.Cparser.Parse_error _ -> false

let analyses_agree =
  QCheck.Test.make ~name:"value analysis, Constprop and CSE agree with their oracles"
    ~count:300 Testlib.Test_gen.arb_program (fun src ->
      QCheck.assume (parses src);
      match disagreements (Cfrontend.Cparser.parse_program src) with
      | [] -> true
      | ds -> QCheck.Test.fail_reportf "%s@.--- program ---@.%s" (String.concat "\n" ds) src)

let files_agree =
  Alcotest.test_case
    "value analysis, Constprop and CSE agree with their oracles on examples/c and the \
     benchmark corpus"
    `Quick (fun () ->
      let files = c_files "../examples/c" @ c_files "../bench/e2e/corpus" in
      Alcotest.(check bool) "both directories hold programs" true (List.length files > 4);
      List.iter
        (fun file ->
          match disagreements (Cfrontend.Cparser.parse_program (read_file file)) with
          | [] -> ()
          | ds -> Alcotest.failf "%s:@.%s" file (String.concat "\n" ds))
        files)

let suite =
  ( "dataflow",
    List.map QCheck_alcotest.to_alcotest
      [ engine_agrees ~backward:false; engine_agrees ~backward:true; analyses_agree ]
    @ [ files_agree ] )
