(** Identifiers derived from their names.

    All languages in the pipeline refer to functions, global variables and
    temporaries through identifiers. An identifier is an integer, so that
    comparison is O(1) and identifiers can index efficient maps, and it is
    a pure function of its name: the first 62 bits of the name's MD5
    digest. The same name therefore has the same identifier in every
    process and in every compile, whatever was interned before it, and a
    marshaled program means the same thing to any reader (parametricity,
    Thm 4.3, says behaviour cannot depend on the numbering anyway).
    Compiler temporaries are interned names too, spelled with a [$] that
    no C identifier contains. *)

type t = int

(* The names seen so far, both ways: [ids] spares a name seen before its
   digest, [names] prints an identifier and checks that two names never
   share one. *)
let ids : (string, int) Hashtbl.t = Hashtbl.create 64
let names : (int, string) Hashtbl.t = Hashtbl.create 64

let intern s =
  match Hashtbl.find_opt ids s with
  | Some id -> id
  | None ->
    let d = Digest.string s in
    let id = Int64.to_int (Int64.shift_right_logical (String.get_int64_be d 0) 2) in
    (match Hashtbl.find_opt names id with
    | Some s' ->
      failwith (Printf.sprintf "Ident.intern: %S and %S share the identifier %d" s' s id)
    | None -> ());
    Hashtbl.add ids s id;
    Hashtbl.add names id s;
    id

let name id =
  match Hashtbl.find_opt names id with
  | Some s -> s
  | None -> Printf.sprintf "$%d" id

let equal = Int.equal
let pp fmt id = Format.pp_print_string fmt (name id)

module Map = Map.Make (Int)
module Set = Set.Make (Int)
