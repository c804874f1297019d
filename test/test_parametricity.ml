(** Parametricity in CKLRs (paper, Theorem 4.3): language semantics are
    related to themselves under any CKLR.

    The executable instance: build the {e same} program against two
    different symbol tables — the second with an extra dummy symbol
    prepended, so that every global block is shifted by one. The two
    global environments are related by the injection
    [f(b) = b + 1] (for global blocks), and running both semantics on
    [f]-related queries must produce [f]-related answers. This exercises
    the actual injection machinery (block renaming) end to end, not just
    the identity fragment. *)

open Support
open Memory
open Memory.Mtypes
open Memory.Values
open Iface
open Iface.Li

let check = Alcotest.(check bool)
let fuel = 1_000_000

let src =
  {|
int table[4] = {10, 20, 30, 40};
int scale = 3;

int lookup(int i) {
  return table[i & 3] * scale;
}

int sum(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s = s + lookup(i);
  return s;
}
|}

let program = Cfrontend.Cparser.parse_program src
let names = Ast.prog_defs_names program

(* Symbol tables: the original, and one with a dummy symbol first. *)
let symbols1 = names
let symbols2 = Ident.intern "__dummy" :: names

(* The injection relating the two instantiations: global block [b] of the
   first maps to block [b + 1] of the second. *)
let shift_inj m1 =
  let rec go b f =
    if b >= Mem.nextblock m1 then f else go (b + 1) (Meminj.add b (b + 1) 0 f)
  in
  go 1 Meminj.empty

let query symbols entry args =
  let ge = Genv.globalenv ~symbols program in
  let m = Option.get (Genv.init_mem ~symbols program) in
  { cq_vf = Genv.symbol_address ge (Ident.intern entry) 0;
    cq_sg = { sig_args = [ Tint ]; sig_res = Some Tint };
    cq_args = args; cq_mem = m }

(* Check that queries are actually f-related, then run both and check the
   answers relate. *)
let parametricity_instance ~(mk_sem : Ident.t list -> ('s, c_query, c_reply, c_query, c_reply) Core.Smallstep.lts)
    ~entry ~(n : int) : bool =
  let q1 = query symbols1 entry [ Vint (Int32.of_int n) ] in
  let q2 = query symbols2 entry [ Vint (Int32.of_int n) ] in
  let f = shift_inj q1.cq_mem in
  (* Sanity: the initial memories and function values are f-related. *)
  Meminj.val_inject f q1.cq_vf q2.cq_vf
  && Meminj.mem_inject f q1.cq_mem q2.cq_mem
  &&
  let l1 = mk_sem symbols1 in
  let l2 = mk_sem symbols2 in
  let o1 = Core.Smallstep.run ~fuel l1 ~oracle:(fun _ -> None) q1 in
  let o2 = Core.Smallstep.run ~fuel l2 ~oracle:(fun _ -> None) q2 in
  match (o1, o2) with
  | Core.Smallstep.Final (_, r1), Core.Smallstep.Final (_, r2) ->
    (* Answers related at an accessible world: results inject under the
       grown mapping (new blocks allocated in lockstep). *)
    let f' = Core.Cklr.grow_meminj f r1.cr_mem r2.cr_mem in
    ignore f';
    Meminj.val_inject f r1.cr_res r2.cr_res
  | _ -> false

let clight_sem symbols = Cfrontend.Clight.semantics ~symbols program

(* Compiled by the first test that runs it, so a miscompile fails the
   tests that use it, not the loading of the test binary. *)
let rtl1 = lazy (Errors.get (Driver.Compiler.compile program)).Driver.Compiler.rtl
let rtl_sem symbols = Middle.Rtl.semantics ~symbols (Lazy.force rtl1)

let unit_tests =
  [
    Alcotest.test_case "queries are inj-related under the shift" `Quick
      (fun () ->
        let q1 = query symbols1 "sum" [ Vint 4l ] in
        let q2 = query symbols2 "sum" [ Vint 4l ] in
        let f = shift_inj q1.cq_mem in
        check "vf" true (Meminj.val_inject f q1.cq_vf q2.cq_vf);
        check "mem" true (Meminj.mem_inject f q1.cq_mem q2.cq_mem);
        check "vf not eq-related" false (q1.cq_vf = q2.cq_vf));
    Alcotest.test_case "Thm 4.3 for Clight (inj)" `Quick (fun () ->
        check "related runs" true
          (parametricity_instance ~mk_sem:clight_sem ~entry:"sum" ~n:5));
    Alcotest.test_case "Thm 4.3 for RTL (inj)" `Quick (fun () ->
        check "related runs" true
          (parametricity_instance ~mk_sem:rtl_sem ~entry:"sum" ~n:5));
    Alcotest.test_case "Thm 4.3 for Asm (inj)" `Quick (fun () ->
        (* At the A level, queries are register files: shift the function
           pointer and memory, run, compare result registers. *)
        let asm = (Errors.get (Driver.Compiler.compile program)).Driver.Compiler.asm in
        let run symbols =
          let q = query symbols "sum" [ Vint 4l ] in
          let l = Backend.Asm.semantics ~symbols asm in
          Driver.Runners.run_a_level l ~fuel q
        in
        match (run symbols1, run symbols2) with
        | Ok (Core.Smallstep.Final (_, r1)), Ok (Core.Smallstep.Final (_, r2)) ->
          check "same int result" true (r1.cr_res = r2.cr_res && r1.cr_res <> Vundef)
        | _ -> Alcotest.fail "expected two final runs");
  ]

let prop_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"Thm 4.3 Clight over random inputs" ~count:20
        (QCheck.int_bound 30) (fun n ->
          parametricity_instance ~mk_sem:clight_sem ~entry:"sum" ~n);
      QCheck.Test.make ~name:"Thm 4.3 RTL over random inputs" ~count:20
        (QCheck.int_bound 30) (fun n ->
          parametricity_instance ~mk_sem:rtl_sem ~entry:"lookup" ~n);
    ]

let suite = ("parametricity", unit_tests @ prop_tests)
