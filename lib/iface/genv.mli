(** Global environments (CompCert's [Globalenvs]) with CompCertO's
    shared-symbol-table discipline (paper, Appendix A.3): all units of a
    composite program see the same symbol→block assignment, while each
    unit's environment resolves only the definitions it owns — calls to
    other blocks become outgoing questions. *)

open Support
open Memory
open Memory.Values

type ('fn, 'v) t

(** Assign blocks [1..n] to the symbols in list order; returns the table
    and the first non-global block. All units of a program must use the
    same symbol list. *)
val make_symtbl : Ident.t list -> block Ident.Map.t * block

val globalenv : symbols:Ident.t list -> ('fn, 'v) Ast.program -> ('fn, 'v) t
val find_symbol : ('fn, 'v) t -> Ident.t -> block option
val symbol_address : ('fn, 'v) t -> Ident.t -> int -> value
val find_def_by_block : ('fn, 'v) t -> block -> ('fn, 'v) Ast.globdef option
val find_funct_ptr : ('fn, 'v) t -> block -> 'fn Ast.fundef option

(** Resolve a function value (pointers at offset 0 only). *)
val find_funct : ('fn, 'v) t -> value -> 'fn Ast.fundef option

(** Does this unit define (with a body) the function at [v]? The domain
    [D] of the unit's open semantics. *)
val defines_internal : ('fn, 'v) t -> value -> bool

(** Is [v] the base address of some global symbol block? Calls to such
    addresses that are not defined internally become outgoing questions;
    calls to anything else are stuck. *)
val plausible_funct : ('fn, 'v) t -> value -> bool

val store_init_data :
  ('fn, 'v) t -> Mem.t -> block -> int -> Ast.init_data -> Mem.t option

val store_init_data_list :
  ('fn, 'v) t -> Mem.t -> block -> int -> Ast.init_data list -> Mem.t option

(** Allocate one block per symbol in table order (so block identities
    agree with [globalenv]); variables are initialized ([Init_space]
    zero-fills) with [Readable]/[Writable] permission, function and
    external-symbol blocks get 1 byte at [Nonempty]. *)
val init_mem : symbols:Ident.t list -> ('fn, 'v) Ast.program -> Mem.t option

(** Read-only regions of the initial memory: the basis of the [va]
    invariant and the [vainj]/[vaext] CKLRs (Lemma 5.8). *)
val romem : symbols:Ident.t list -> ('fn, 'v) Ast.program -> Core.Cklr.romem
