(** Global environments (CompCert's [Globalenvs]), with CompCertO's
    shared-symbol-table discipline (paper, Appendix A.3).

    A global environment maps symbols to memory blocks and blocks to the
    definitions of {e this} translation unit. Crucially, the symbol table
    is global: every unit of a composite program sees the same
    symbol-to-block assignment (derived from the set of all symbols, in a
    canonical order), while each unit's environment only resolves the
    blocks of functions the unit itself defines — calls to all other
    blocks become outgoing questions. *)

open Support
open Memory
open Memory.Values

module BMap = Map.Make (Int)

type ('fn, 'v) t = {
  symbols : block Ident.Map.t;  (** the shared symbol table *)
  defs : (Ident.t * ('fn, 'v) Ast.globdef) list;  (** this unit's definitions *)
  blocks : ('fn, 'v) Ast.globdef BMap.t;  (** block → local definition *)
  next : block;  (** first non-global block *)
}

(** Assign blocks 1..n to [symbols] in list order. All units of a program
    must be built with the same symbol list. *)
let make_symtbl (symbols : Ident.t list) : block Ident.Map.t * block =
  let tbl, next =
    List.fold_left
      (fun (tbl, b) id ->
        if Ident.Map.mem id tbl then (tbl, b) else (Ident.Map.add id b tbl, b + 1))
      (Ident.Map.empty, 1) symbols
  in
  (tbl, next)

let globalenv ~(symbols : Ident.t list) (p : ('fn, 'v) Ast.program) : ('fn, 'v) t =
  let symtbl, next = make_symtbl symbols in
  let blocks =
    List.fold_left
      (fun acc (id, d) ->
        match Ident.Map.find_opt id symtbl with
        | Some b -> BMap.add b d acc
        | None -> acc)
      BMap.empty p.Ast.prog_defs
  in
  { symbols = symtbl; defs = p.Ast.prog_defs; blocks; next }

let find_symbol ge id = Ident.Map.find_opt id ge.symbols

let symbol_address ge id ofs =
  match find_symbol ge id with
  | Some b -> Vptr (b, ofs)
  | None -> Vundef

let find_def_by_block ge b = BMap.find_opt b ge.blocks

let find_funct_ptr ge b =
  match find_def_by_block ge b with Some (Ast.Gfun fd) -> Some fd | _ -> None

(** Resolve a function value. Only pointers with offset 0 denote
    functions. *)
let find_funct ge v =
  match v with Vptr (b, 0) -> find_funct_ptr ge b | _ -> None

(** Does this unit define (with a body) the function at [v]? This is the
    domain [D] of the unit's open semantics. *)
let defines_internal ge v =
  match find_funct ge v with Some (Ast.Internal _) -> true | _ -> false

(** Is [v] a plausible function entry point: the base address of some
    global symbol block? *)
let plausible_funct ge v =
  match v with Vptr (b, 0) -> b >= 1 && b < ge.next | _ -> false

(** Does a call to [v] leave the unit, as an outgoing question (Fig. 5's
    x°)? It does when [v] is a plausible function entry that this unit
    does not define internally; a call to anything else that is not
    internal is undefined behavior (a stuck state). *)
let calls_out ge v = plausible_funct ge v && not (defines_internal ge v)

(** {1 Initial memory}

    [init_mem ~symbols p] allocates one block per symbol, in symbol-table
    order, so that block identities agree with the global environment.
    Function blocks get size 1 with [Nonempty] permission (their address
    is observable but their contents are not bytes); variable blocks are
    initialized from their [init_data] with [Readable] or [Writable]
    permission. Symbols that [p] does not define still receive a
    (1-byte, [Nonempty]) block, so that a unit's semantics can refer to
    them; the harness builds the "real" memory from the linked program. *)

let store_init_data ge m b ofs (d : Ast.init_data) =
  let open Memdata in
  match d with
  | Ast.Init_int8 n -> Mem.store Mint8unsigned m b ofs (Vint n)
  | Ast.Init_int16 n -> Mem.store Mint16unsigned m b ofs (Vint n)
  | Ast.Init_int32 n -> Mem.store Mint32 m b ofs (Vint n)
  | Ast.Init_int64 n -> Mem.store Mint64 m b ofs (Vlong n)
  | Ast.Init_float32 f -> Mem.store Mfloat32 m b ofs (Vsingle f)
  | Ast.Init_float64 f -> Mem.store Mfloat64 m b ofs (Vfloat f)
  | Ast.Init_space n ->
    (* Static storage is zero-initialized. *)
    Mem.storebytes m b ofs (List.init (max n 0) (fun _ -> Memdata.Byte 0))
  | Ast.Init_addrof (id, o) -> (
    match find_symbol ge id with
    | Some b' -> Mem.store Mint64 m b ofs (Vptr (b', o))
    | None -> None)

let store_init_data_list ge m b ofs dl =
  let rec go m ofs = function
    | [] -> Some m
    | d :: rest -> (
      match store_init_data ge m b ofs d with
      | Some m' -> go m' (ofs + Ast.init_data_size d) rest
      | None -> None)
  in
  go m ofs dl

let init_mem ~(symbols : Ident.t list) (p : ('fn, 'v) Ast.program) : Mem.t option =
  let ge = globalenv ~symbols p in
  let ordered =
    List.sort
      (fun id1 id2 ->
        compare (Ident.Map.find id1 ge.symbols) (Ident.Map.find id2 ge.symbols))
      (Ident.Map.fold (fun id _ acc -> id :: acc) ge.symbols [])
  in
  let alloc_one m id =
    match m with
    | None -> None
    | Some m -> (
      match Ast.find_def p id with
      | Some (Ast.Gvar gv) -> (
        let sz = Ast.init_data_list_size gv.Ast.gvar_init in
        let m, b = Mem.alloc m 0 sz in
        match store_init_data_list ge m b 0 gv.Ast.gvar_init with
        | None -> None
        | Some m ->
          let perm = if gv.Ast.gvar_readonly then Mem.Readable else Mem.Writable in
          Mem.drop_perm m b 0 sz perm)
      | Some (Ast.Gfun _) | None ->
        (* Function block, or symbol defined in another unit. *)
        let m, b = Mem.alloc m 0 1 in
        Mem.drop_perm m b 0 1 Mem.Nonempty)
  in
  List.fold_left alloc_one (Some Mem.empty) ordered

(** Read-only regions of the initial memory: the basis of the [va]
    invariant and the [vainj]/[vaext] CKLRs (paper §5, Lemma 5.8). *)
let romem ~symbols (p : ('fn, 'v) Ast.program) : Core.Cklr.romem =
  let ge = globalenv ~symbols p in
  match init_mem ~symbols p with
  | None -> []
  | Some m ->
    List.filter_map
      (fun (id, d) ->
        match d with
        | Ast.Gvar gv when gv.Ast.gvar_readonly -> (
          match find_symbol ge id with
          | Some b -> (
            let sz = Ast.init_data_list_size gv.Ast.gvar_init in
            match Mem.loadbytes m b 0 sz with
            | Some bytes -> Some (b, 0, bytes)
            | None -> None)
          | None -> None)
        | _ -> None)
      p.Ast.prog_defs
