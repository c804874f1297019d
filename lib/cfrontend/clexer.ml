(** Hand-written lexer for the C subset.

    Keywords and punctuators are constant constructors: a punctuator is
    chosen by matching its next one to three characters, a keyword by a
    [match] on its lexeme, so neither costs a string comparison or an
    allocation. Tokens and their lines go straight into two arrays. *)

type keyword =
  | Kint | Klong | Kchar | Kshort | Kunsigned | Ksigned | Kdouble | Kfloat
  | Kvoid | Kif | Kelse | Kwhile | Kfor | Kdo | Kreturn | Kbreak | Kcontinue
  | Kextern | Kconst | Kstatic | Ksizeof

type punct =
  | ShlEq | ShrEq
  | EqEq | BangEq | Le | Ge | AmpAmp | BarBar | Shl | Shr | PlusEq | MinusEq
  | StarEq | SlashEq | PercentEq | AmpEq | BarEq | CaretEq | PlusPlus
  | MinusMinus | Arrow
  | Plus | Minus | Star | Slash | Percent | Eq | Lt | Gt | Bang | Tilde | Amp
  | Bar | Caret | LParen | RParen | LBrace | RBrace | LBracket | RBracket
  | Semi | Comma | Question | Colon | Dot

type token =
  | INT_LIT of int64 * [ `I | `U | `L | `UL ]
      (** the value, read as unsigned, and its type (C99 §6.4.4.1): int,
          unsigned int, long or unsigned long *)
  | FLOAT_LIT of float * [ `F | `D ]
  | IDENT of string
  | KW of keyword
  | PUNCT of punct
  | EOF

type t = { tokens : token array; lines : int array; last : int; mutable pos : int }
(** Token stream with line numbers; [tokens.(last)] is [EOF]. *)

exception Lex_error of string * int

let keyword_name = function
  | Kint -> "int" | Klong -> "long" | Kchar -> "char" | Kshort -> "short"
  | Kunsigned -> "unsigned" | Ksigned -> "signed" | Kdouble -> "double"
  | Kfloat -> "float" | Kvoid -> "void" | Kif -> "if" | Kelse -> "else"
  | Kwhile -> "while" | Kfor -> "for" | Kdo -> "do" | Kreturn -> "return"
  | Kbreak -> "break" | Kcontinue -> "continue" | Kextern -> "extern"
  | Kconst -> "const" | Kstatic -> "static" | Ksizeof -> "sizeof"

let punct_name = function
  | ShlEq -> "<<=" | ShrEq -> ">>=" | EqEq -> "==" | BangEq -> "!=" | Le -> "<="
  | Ge -> ">=" | AmpAmp -> "&&" | BarBar -> "||" | Shl -> "<<" | Shr -> ">>"
  | PlusEq -> "+=" | MinusEq -> "-=" | StarEq -> "*=" | SlashEq -> "/="
  | PercentEq -> "%=" | AmpEq -> "&=" | BarEq -> "|=" | CaretEq -> "^="
  | PlusPlus -> "++" | MinusMinus -> "--" | Arrow -> "->" | Plus -> "+"
  | Minus -> "-" | Star -> "*" | Slash -> "/" | Percent -> "%" | Eq -> "="
  | Lt -> "<" | Gt -> ">" | Bang -> "!" | Tilde -> "~" | Amp -> "&" | Bar -> "|"
  | Caret -> "^" | LParen -> "(" | RParen -> ")" | LBrace -> "{" | RBrace -> "}"
  | LBracket -> "[" | RBracket -> "]" | Semi -> ";" | Comma -> "," | Question -> "?"
  | Colon -> ":" | Dot -> "."

(* The token of an identifier-shaped lexeme. *)
let word = function
  | "int" -> KW Kint | "long" -> KW Klong | "char" -> KW Kchar
  | "short" -> KW Kshort | "unsigned" -> KW Kunsigned | "signed" -> KW Ksigned
  | "double" -> KW Kdouble | "float" -> KW Kfloat | "void" -> KW Kvoid
  | "if" -> KW Kif | "else" -> KW Kelse | "while" -> KW Kwhile | "for" -> KW Kfor
  | "do" -> KW Kdo | "return" -> KW Kreturn | "break" -> KW Kbreak
  | "continue" -> KW Kcontinue | "extern" -> KW Kextern | "const" -> KW Kconst
  | "static" -> KW Kstatic | "sizeof" -> KW Ksizeof
  | s -> IDENT s

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let lex_error line fmt = Printf.ksprintf (fun s -> raise (Lex_error (s, line))) fmt

(* The value of an integer constant's text, up to 2^64 - 1. *)
let int_value line text ~hex ~octal =
  let repr = if hex then text else (if octal then "0o" else "0u") ^ text in
  match Int64.of_string_opt repr with
  | Some v -> v
  | None when hex && String.length text = 2 ->
    lex_error line "hexadecimal constant %s has no digits" text
  | None when octal && String.exists (fun c -> c = '8' || c = '9') text ->
    lex_error line "invalid digit in octal constant %s" text
  | None -> lex_error line "integer constant %s is too large" text

(* The type of an integer constant (C99 §6.4.4.1): the first type of its
   suffix's list that can represent it, with long long = long. *)
let int_type line text v ~decimal ~u ~l =
  let fits = function
    | `I -> Int64.unsigned_compare v 0x7FFF_FFFFL <= 0
    | `U -> Int64.unsigned_compare v 0xFFFF_FFFFL <= 0
    | `L -> Int64.compare v 0L >= 0
    | `UL -> true
  in
  let candidates =
    match (u, l) with
    | false, false -> if decimal then [ `I; `L ] else [ `I; `U; `L; `UL ]
    | true, false -> [ `U; `UL ]
    | false, true -> if decimal then [ `L ] else [ `L; `UL ]
    | true, true -> [ `UL ]
  in
  match List.find_opt fits candidates with
  | Some k -> k
  | None -> lex_error line "integer constant %s is too large for its type" text

let tokenize (src : string) : t =
  let n = String.length src in
  let tokens = ref (Array.make ((n / 4) + 16) EOF) in
  let lines = ref (Array.make (Array.length !tokens) 0) in
  let count = ref 0 in
  let line = ref 1 in
  let i = ref 0 in
  let at k = if !i + k < n then src.[!i + k] else '\000' in
  let emit tok =
    if !count = Array.length !tokens then begin
      let grow a fill =
        let b = Array.make (2 * !count) fill in
        Array.blit a 0 b 0 !count;
        b
      in
      tokens := grow !tokens EOF;
      lines := grow !lines 0
    end;
    !tokens.(!count) <- tok;
    !lines.(!count) <- !line;
    incr count
  in
  let op tok width =
    emit tok;
    i := !i + width
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin incr line; incr i end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && at 1 = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && at 1 = '*' then begin
      i := !i + 2;
      let fin = ref false in
      while not !fin do
        if !i + 1 >= n then raise (Lex_error ("unterminated comment", !line))
        else if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          i := !i + 2;
          fin := true
        end
        else begin
          if src.[!i] = '\n' then incr line;
          incr i
        end
      done
    end
    else if is_digit c || (c = '.' && is_digit (at 1)) then begin
      let start = !i in
      let hex = c = '0' && (at 1 = 'x' || at 1 = 'X') in
      if hex then i := !i + 2;
      let isfloat = ref false in
      let continues d =
        if hex then is_hex d
        else if d = '.' || d = 'e' || d = 'E' then (isfloat := true; true)
        else
          is_digit d
          || ((d = '+' || d = '-') && (src.[!i - 1] = 'e' || src.[!i - 1] = 'E'))
      in
      while !i < n && continues src.[!i] do incr i done;
      let text = String.sub src start (!i - start) in
      if !isfloat then begin
        let suffix = if at 0 = 'f' || at 0 = 'F' then (incr i; `F) else `D in
        match float_of_string_opt text with
        | Some f -> emit (FLOAT_LIT (f, suffix))
        | None -> lex_error !line "malformed floating constant %s" text
      end
      else begin
        let u = ref false and l = ref false in
        let continue_suffix = ref true in
        while !continue_suffix && !i < n do
          match src.[!i] with
          | 'u' | 'U' -> u := true; incr i
          | 'l' | 'L' -> l := true; incr i
          | _ -> continue_suffix := false
        done;
        let octal = (not hex) && String.length text > 1 && text.[0] = '0' in
        let v = int_value !line text ~hex ~octal in
        emit (INT_LIT (v, int_type !line text v ~decimal:(not (hex || octal)) ~u:!u ~l:!l))
      end
    end
    else if is_alpha c then begin
      let start = !i in
      while !i < n && is_alnum src.[!i] do incr i done;
      emit (word (String.sub src start (!i - start)))
    end
    else if c = '\'' then begin
      (* character literal *)
      incr i;
      if !i >= n then raise (Lex_error ("unterminated char literal", !line));
      let v =
        if src.[!i] = '\\' then begin
          incr i;
          if !i >= n then raise (Lex_error ("unterminated char literal", !line));
          let e = src.[!i] in
          incr i;
          match e with
          | 'n' -> 10 | 't' -> 9 | 'r' -> 13 | '0' -> 0 | '\\' -> 92 | '\'' -> 39
          | c -> Char.code c
        end
        else begin
          let v = Char.code src.[!i] in
          incr i;
          v
        end
      in
      if !i >= n || src.[!i] <> '\'' then raise (Lex_error ("bad char literal", !line));
      incr i;
      emit (INT_LIT (Int64.of_int v, `I))
    end
    else
      match c with
      | '+' -> (
        match at 1 with
        | '+' -> op (PUNCT PlusPlus) 2
        | '=' -> op (PUNCT PlusEq) 2
        | _ -> op (PUNCT Plus) 1)
      | '-' -> (
        match at 1 with
        | '-' -> op (PUNCT MinusMinus) 2
        | '=' -> op (PUNCT MinusEq) 2
        | '>' -> op (PUNCT Arrow) 2
        | _ -> op (PUNCT Minus) 1)
      | '*' -> if at 1 = '=' then op (PUNCT StarEq) 2 else op (PUNCT Star) 1
      | '/' -> if at 1 = '=' then op (PUNCT SlashEq) 2 else op (PUNCT Slash) 1
      | '%' -> if at 1 = '=' then op (PUNCT PercentEq) 2 else op (PUNCT Percent) 1
      | '=' -> if at 1 = '=' then op (PUNCT EqEq) 2 else op (PUNCT Eq) 1
      | '!' -> if at 1 = '=' then op (PUNCT BangEq) 2 else op (PUNCT Bang) 1
      | '^' -> if at 1 = '=' then op (PUNCT CaretEq) 2 else op (PUNCT Caret) 1
      | '<' -> (
        match at 1 with
        | '<' -> if at 2 = '=' then op (PUNCT ShlEq) 3 else op (PUNCT Shl) 2
        | '=' -> op (PUNCT Le) 2
        | _ -> op (PUNCT Lt) 1)
      | '>' -> (
        match at 1 with
        | '>' -> if at 2 = '=' then op (PUNCT ShrEq) 3 else op (PUNCT Shr) 2
        | '=' -> op (PUNCT Ge) 2
        | _ -> op (PUNCT Gt) 1)
      | '&' -> (
        match at 1 with
        | '&' -> op (PUNCT AmpAmp) 2
        | '=' -> op (PUNCT AmpEq) 2
        | _ -> op (PUNCT Amp) 1)
      | '|' -> (
        match at 1 with
        | '|' -> op (PUNCT BarBar) 2
        | '=' -> op (PUNCT BarEq) 2
        | _ -> op (PUNCT Bar) 1)
      | '~' -> op (PUNCT Tilde) 1
      | '(' -> op (PUNCT LParen) 1
      | ')' -> op (PUNCT RParen) 1
      | '{' -> op (PUNCT LBrace) 1
      | '}' -> op (PUNCT RBrace) 1
      | '[' -> op (PUNCT LBracket) 1
      | ']' -> op (PUNCT RBracket) 1
      | ';' -> op (PUNCT Semi) 1
      | ',' -> op (PUNCT Comma) 1
      | '?' -> op (PUNCT Question) 1
      | ':' -> op (PUNCT Colon) 1
      | '.' -> op (PUNCT Dot) 1
      | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, !line))
  done;
  emit EOF;
  { tokens = !tokens; lines = !lines; last = !count - 1; pos = 0 }

let peek (lx : t) = lx.tokens.(lx.pos)
let peek2 (lx : t) = if lx.pos < lx.last then lx.tokens.(lx.pos + 1) else EOF
let line (lx : t) = lx.lines.(lx.pos)
let advance (lx : t) = if lx.pos < lx.last then lx.pos <- lx.pos + 1

let pp_token fmt = function
  | INT_LIT (n, _) -> Format.fprintf fmt "%Ld" n
  | FLOAT_LIT (f, _) -> Format.fprintf fmt "%g" f
  | IDENT s -> Format.fprintf fmt "identifier %s" s
  | KW k -> Format.fprintf fmt "keyword %s" (keyword_name k)
  | PUNCT p -> Format.fprintf fmt "'%s'" (punct_name p)
  | EOF -> Format.fprintf fmt "end of file"
