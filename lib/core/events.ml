(** Observable events (CompCert's [Events], restricted).

    Transitions of an open LTS are labeled by traces of events (Def. 3.1:
    [→ ⊆ S × E* × S]). In this development events arise from I/O
    primitives handled by the environment oracles of the test harness and
    from annotations; cross-component calls are {e not} events — they are
    the questions and answers of language interfaces. *)

type eventval =
  | EVint of int32
  | EVlong of int64
  | EVfloat of float
  | EVsingle of float
  | EVptr_global of Support.Ident.t * int

type event =
  | Event_syscall of string * eventval list * eventval
  | Event_annot of string * eventval list

type trace = event list

let e0 : trace = []

let pp_eventval fmt = function
  | EVint n -> Format.fprintf fmt "%ld" n
  | EVlong n -> Format.fprintf fmt "%LdL" n
  | EVfloat f -> Format.fprintf fmt "%g" f
  | EVsingle f -> Format.fprintf fmt "%gf" f
  | EVptr_global (id, ofs) -> Format.fprintf fmt "&%a+%d" Support.Ident.pp id ofs

let pp_event fmt = function
  | Event_syscall (name, args, res) ->
    Format.fprintf fmt "syscall %s(%a) -> %a" name
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         pp_eventval)
      args pp_eventval res
  | Event_annot (text, args) ->
    Format.fprintf fmt "annot %S(%a)" text
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         pp_eventval)
      args

let pp_trace fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_event)
    t

let trace_equal (t1 : trace) (t2 : trace) = t1 = t2
