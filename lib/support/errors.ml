(** Error monad used by compiler passes.

    Mirrors CompCert's [Errors] library: a pass either returns [OK x] or
    [Error msg]. We use OCaml's [result] with a structured message so that
    the driver can report which pass failed and why. *)

type 'a t = ('a, string) result

let ok x = Ok x
let error fmt = Format.kasprintf (fun s -> Error s) fmt

let ( let* ) m f =
  match m with
  | Ok x -> f x
  | Error _ as e -> e

let ( let+ ) m f =
  match m with
  | Ok x -> Ok (f x)
  | Error _ as e -> e

let map f m =
  match m with
  | Ok x -> Ok (f x)
  | Error _ as e -> e

let rec map_list f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = map_list f xs in
    Ok (y :: ys)

let rec iter_list f = function
  | [] -> Ok ()
  | x :: xs ->
    let* () = f x in
    iter_list f xs

let rec fold_list f acc = function
  | [] -> Ok acc
  | x :: xs ->
    let* acc = f acc x in
    fold_list f acc xs

let get = function
  | Ok x -> x
  | Error msg -> invalid_arg ("Errors.get: " ^ msg)

let is_ok = function Ok _ -> true | Error _ -> false

let pp pp_ok fmt = function
  | Ok x -> pp_ok fmt x
  | Error msg -> Format.fprintf fmt "error: %s" msg
