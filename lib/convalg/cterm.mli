(** Symbolic simulation-convention terms (paper §5): compositions of the
    primitive conventions of Table 3, typed by the language interfaces
    they connect. *)

type iface = IC | IL | IM | IA

type atom =
  | Injp
  | Inj
  | Ext
  | Vainj
  | Vaext
  | Va  (** the value-analysis invariant *)
  | Wt  (** the typing invariant *)
  | Rstar  (** [R*] with [R = injp + inj + ext + vainj + vaext] *)
  | CL
  | LM
  | MA

val atom_name : atom -> string
val pp_atom : Format.formatter -> atom -> unit

(** Endo-atoms keep the interface; structural atoms transport it
    ([CL : C→L], [LM : L→M], [MA : M→A]). [None] = ill-typed here. *)
val atom_type : atom -> iface -> iface option

(** A term is a composition of atoms (associative with identity,
    Thm. 5.2), read source-side to target-side; [[]] is [id]. *)
type t = atom list

val infer : iface -> t -> iface option
val well_typed : src:iface -> tgt:iface -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool

(** The uniform convention of Theorem 3.8:
    [C = R* · wt · CL · LM · MA · vainj]. *)
val uniform_c : t
