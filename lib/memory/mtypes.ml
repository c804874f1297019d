(** Machine-level types and function signatures.

    Every value manipulated by the languages of the pipeline is classified by
    one of these low-level types (CompCert's [AST.typ]). The architecture is
    64-bit: pointers have type [Tlong]. *)

type typ =
  | Tint  (** 32-bit integers *)
  | Tlong  (** 64-bit integers and pointers *)
  | Tfloat  (** 64-bit floating-point *)
  | Tsingle  (** 32-bit floating-point *)
  | Tany64  (** any 64-bit-representable value; used for register saves *)

(** Number of 8-byte stack words occupied by a value of the given type.
    Every stack slot is 8-byte aligned on our 64-bit target. *)
let typ_words (_ : typ) = 1

let typ_equal (a : typ) (b : typ) = a = b

let pp_typ fmt t =
  Format.pp_print_string fmt
    (match t with
    | Tint -> "int"
    | Tlong -> "long"
    | Tfloat -> "float"
    | Tsingle -> "single"
    | Tany64 -> "any64")

(** Function signatures: argument types and result type ([None] = void).
    Signatures drive the calling convention ([Target.Conventions]) and the
    [wt] invariant (paper, Appendix B.2). *)
type signature = { sig_args : typ list; sig_res : typ option }

let signature_main = { sig_args = []; sig_res = Some Tint }

let proj_sig_res sg = Option.value sg.sig_res ~default:Tint

let signature_equal a b =
  List.length a.sig_args = List.length b.sig_args
  && List.for_all2 typ_equal a.sig_args b.sig_args
  && Option.equal typ_equal a.sig_res b.sig_res

let pp_signature fmt sg =
  Format.fprintf fmt "(%a) -> %a"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       pp_typ)
    sg.sig_args
    (fun fmt -> function
      | None -> Format.pp_print_string fmt "void"
      | Some t -> pp_typ fmt t)
    sg.sig_res

(** Comparison operators shared by all languages. *)
type comparison = Ceq | Cne | Clt | Cle | Cgt | Cge

let negate_comparison = function
  | Ceq -> Cne
  | Cne -> Ceq
  | Clt -> Cge
  | Cle -> Cgt
  | Cgt -> Cle
  | Cge -> Clt

let swap_comparison = function
  | Ceq -> Ceq
  | Cne -> Cne
  | Clt -> Cgt
  | Cle -> Cge
  | Cgt -> Clt
  | Cge -> Cle

let pp_comparison fmt c =
  Format.pp_print_string fmt
    (match c with
    | Ceq -> "=="
    | Cne -> "!="
    | Clt -> "<"
    | Cle -> "<="
    | Cgt -> ">"
    | Cge -> ">=")
