(** Symbolic simulation-convention terms (paper §5).

    Terms denote compositions of the primitive conventions used in
    Table 3: CKLRs ([injp], [inj], [ext], [vainj], [vaext]), invariants
    ([wt], [va]), the structural conventions [CL], [LM], [MA], the Kleene
    star [R*] of the CKLR sum [R = injp + inj + ext + vainj + vaext], and
    identities. Composition is associative with identity (Thm. 5.2), so a
    term is a list of atoms. Each atom is typed by the language
    interfaces it connects. *)

type iface = IC | IL | IM | IA

type atom =
  | Injp
  | Inj
  | Ext
  | Vainj
  | Vaext
  | Va  (** the value-analysis invariant *)
  | Wt  (** the typing invariant *)
  | Rstar  (** [R*] where [R = injp + inj + ext + vainj + vaext] *)
  | CL
  | LM
  | MA

let atom_name = function
  | Injp -> "injp"
  | Inj -> "inj"
  | Ext -> "ext"
  | Vainj -> "vainj"
  | Vaext -> "vaext"
  | Va -> "va"
  | Wt -> "wt"
  | Rstar -> "R*"
  | CL -> "CL"
  | LM -> "LM"
  | MA -> "MA"

let pp_atom fmt a = Format.pp_print_string fmt (atom_name a)

(** Endo-atoms keep the interface; structural atoms transport it. *)
let atom_type (a : atom) (i : iface) : iface option =
  match a with
  | Injp | Inj | Ext | Vainj | Vaext | Va | Wt | Rstar -> Some i
  | CL -> if i = IC then Some IL else None
  | LM -> if i = IL then Some IM else None
  | MA -> if i = IM then Some IA else None

(** A convention term: a composition of atoms, read left (source side)
    to right (target side); [[]] is the identity. *)
type t = atom list

(** [infer i t] types [t] starting from interface [i]. *)
let rec infer (i : iface) (t : t) : iface option =
  match t with
  | [] -> Some i
  | a :: rest -> (
    match atom_type a i with Some i' -> infer i' rest | None -> None)

let well_typed ~src ~tgt (t : t) = infer src t = Some tgt

let pp fmt (t : t) =
  match t with
  | [] -> Format.pp_print_string fmt "id"
  | _ ->
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " . ")
      pp_atom fmt t

let to_string t = Format.asprintf "%a" pp t

let equal (a : t) (b : t) = a = b

(** The uniform convention of Theorem 3.8:
    [C = R* . wt . CA . vainj_A] with [CA = CL . LM . MA]. *)
let uniform_c : t = [ Rstar; Wt; CL; LM; MA; Vainj ]
