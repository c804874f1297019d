(** Significant-lines-of-code measurement over this repository.

    The paper's evaluation (Tables 3 and 5) reports SLOC measured by
    [coqwc] over the Coq development; the analogous measurement here
    counts non-blank, non-comment lines of our OCaml sources, grouped by
    the same components. The benchmark harness uses it to regenerate the
    shape of both tables. *)

(* Count significant lines: a line is significant when some non-blank
   character of it lies outside every comment. The scanner follows the
   OCaml lexer as far as that needs: comments nest, and string literals,
   quoted strings ([{id|...|id}]) and character literals are skipped
   whole, in code and inside comments alike, so a "(*" or "*)" within
   one neither opens nor closes a comment. *)
let count_string (s : string) : int =
  let n = String.length s in
  let sloc = ref 0 and significant = ref false and depth = ref 0 in
  let i = ref 0 in
  let peek k = if !i + k < n then s.[!i + k] else '\000' in
  let advance k =
    for _ = 1 to k do
      if !i < n then begin
        (match s.[!i] with
        | '\n' ->
          if !significant then incr sloc;
          significant := false
        | ' ' | '\t' | '\r' -> ()
        | _ -> if !depth = 0 then significant := true);
        incr i
      end
    done
  in
  let string_lit () =
    advance 1;
    while !i < n && s.[!i] <> '"' do
      advance (if s.[!i] = '\\' then 2 else 1)
    done;
    advance 1
  in
  (* With [i] at a brace: the length of the quoted-string opener that
     starts there, if one does. *)
  let quoted_opener () =
    let j = ref (!i + 1) in
    while !j < n && (match s.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if !j < n && s.[!j] = '|' then Some (!j + 1 - !i) else None
  in
  let quoted_lit len =
    let close = "|" ^ String.sub s (!i + 1) (len - 2) ^ "}" in
    let cl = String.length close in
    advance len;
    while !i < n && not (!i + cl <= n && String.sub s !i cl = close) do
      advance 1
    done;
    advance cl
  in
  (* A quote starts a character literal only when a closing quote
     follows the (possibly escaped) character; otherwise it belongs to a
     type variable or a primed identifier. *)
  let char_lit_length () =
    if peek 1 = '\\' then
      let rec close k =
        if k > 6 then None else if peek k = '\'' then Some (k + 1) else close (k + 1)
      in
      close 3
    else if peek 2 = '\'' && peek 1 <> '\n' then Some 3
    else None
  in
  while !i < n do
    match s.[!i] with
    | '"' -> string_lit ()
    | '{' -> (
      match quoted_opener () with Some len -> quoted_lit len | None -> advance 1)
    | '\'' -> advance (Option.value (char_lit_length ()) ~default:1)
    | '(' when peek 1 = '*' ->
      incr depth;
      advance 2
    | '*' when peek 1 = ')' && !depth > 0 ->
      advance 2;
      decr depth
    | _ -> advance 1
  done;
  if !significant then incr sloc;
  !sloc

let count_file (path : string) : int =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> count_string s
  | exception Sys_error _ -> 0

let count_files paths = List.fold_left (fun acc p -> acc + count_file p) 0 paths

(** Find the repository root: the nearest ancestor containing
    [dune-project]. *)
let repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let ml_files_in dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.map (Filename.concat dir)

let count_dir dir = count_files (ml_files_in dir)

(** Components of Table 5, mapped to this repository's layout. *)
let table5_components root =
  let lib sub = Filename.concat (Filename.concat root "lib") sub in
  [
    ("Semantic framework (§3)", [ lib "core" ]);
    ("Language interfaces and conventions (§4-5, App. C)", [ lib "iface" ]);
    ("Simulation convention algebra (§2.5, §5)", [ lib "convalg" ]);
    ("Memory model and CKLR substrate (§3.1, §4)", [ lib "memory" ]);
    ("Target description", [ lib "target" ]);
    ("Language semantics (frontend)", [ lib "cfrontend" ]);
    ("Language semantics (middle/backend)", [ lib "middle"; lib "backend" ]);
    ("Pass implementations (Table 3)", [ lib "passes" ]);
    ("Driver and harness", [ lib "driver"; lib "support"; lib "sloc" ]);
  ]

let measure_table5 () =
  match repo_root () with
  | None -> []
  | Some root ->
    List.map
      (fun (name, dirs) -> (name, List.fold_left (fun a d -> a + count_dir d) 0 dirs))
      (table5_components root)

(** The SLOC column of Table 3: the pass named [pass] is implemented in
    [lib/passes/], in the file named after it in lower case. *)
let measure_pass pass =
  match repo_root () with
  | Some root ->
    count_file
      (Filename.concat root ("lib/passes/" ^ String.lowercase_ascii pass ^ ".ml"))
  | None -> 0

let measure_total () =
  match repo_root () with
  | None -> 0
  | Some root ->
    let rec walk dir =
      match Sys.readdir dir with
      | exception Sys_error _ -> 0
      | entries ->
        Array.to_list entries
        |> List.fold_left
             (fun acc e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p && e <> "_build" && e.[0] <> '.' then
                 acc + walk p
               else if Filename.check_suffix e ".ml" then acc + count_file p
               else acc)
             0
    in
    walk root
