(** Recursive-descent parser and elaborator for the C subset.

    Produces typed Clight abstract syntax directly. Expressions with
    control effects ([&&], [||], [?:]) or embedded calls are lowered into
    statements over fresh temporaries, exactly as CompCert's SimplExpr
    pass does; the resulting Clight expressions are pure. Implicit
    conversions are materialized as [Ecast] nodes. The binary operators
    from [|] to [* / %] are parsed by one precedence-climbing loop. *)

open Support
open Ctypes
open Csyntax
open Clexer

exception Parse_error of string * int

let err lx fmt =
  Format.kasprintf (fun s -> raise (Parse_error (s, line lx))) fmt

(** {1 Token helpers} *)

let at_punct lx p = match peek lx with PUNCT q -> q = p | _ -> false

let expect_punct lx p =
  if at_punct lx p then advance lx
  else err lx "expected '%s' but found %a" (punct_name p) pp_token (peek lx)

let eat_punct lx p =
  let here = at_punct lx p in
  if here then advance lx;
  here

let eat_kw lx k =
  match peek lx with
  | KW k' when k' = k ->
    advance lx;
    true
  | _ -> false

let expect_ident lx =
  match peek lx with
  | IDENT s ->
    advance lx;
    s
  | t -> err lx "expected identifier but found %a" pp_token t

(** {1 Types} *)

let is_type_start lx =
  match peek lx with
  | KW (Kint | Klong | Kchar | Kshort | Kunsigned | Ksigned | Kdouble | Kfloat
       | Kvoid | Kconst) ->
    true
  | _ -> false

(* Parse a base type: sequences like "unsigned long", "const int", ... *)
let parse_base_type lx =
  let readonly = ref false in
  let signed = ref None in
  let base = ref None in
  let continue_ = ref true in
  while !continue_ do
    match peek lx with
    | KW Kconst -> readonly := true; advance lx
    | KW Kunsigned -> signed := Some Unsigned; advance lx
    | KW Ksigned -> signed := Some Signed; advance lx
    | KW ((Kint | Klong | Kchar | Kshort | Kdouble | Kfloat | Kvoid) as k) ->
      (match (!base, k) with
      | None, _ -> base := Some k
      | Some Klong, Klong -> () (* long long = long *)
      | Some Klong, Kint | Some Kshort, Kint -> ()
      | Some b, k ->
        err lx "conflicting type specifiers %s %s" (keyword_name b) (keyword_name k));
      advance lx
    | _ -> continue_ := false
  done;
  let sg = Option.value !signed ~default:Signed in
  let t =
    match !base with
    | Some Kchar -> Tint (I8, sg)
    | Some Kshort -> Tint (I16, sg)
    | Some Kint | None -> Tint (I32, sg)
    | Some Klong -> Tlong sg
    | Some Kdouble -> Tfloat
    | Some Kfloat -> Tsingle
    | Some Kvoid -> Tvoid
    | Some other -> err lx "unknown type %s" (keyword_name other)
  in
  (t, !readonly)

let parse_pointers lx t =
  let t = ref t in
  while eat_punct lx Star do
    t := Tpointer !t
  done;
  !t

(* Array suffixes: T x[3][4] gives Tarray (Tarray (T, 4), 3). *)
let rec parse_array_suffix lx t =
  if eat_punct lx LBracket then begin
    let n =
      match peek lx with
      | INT_LIT (v, _) ->
        advance lx;
        Int64.to_int v
      | tok -> err lx "expected array size, found %a" pp_token tok
    in
    expect_punct lx RBracket;
    let inner = parse_array_suffix lx t in
    Tarray (inner, n)
  end
  else t

let decayed_type t = match t with Tarray (te, _) -> Tpointer te | t -> t

(* Parameter lists: [T x, U y] or [void]. Parameter names may be omitted
   in prototypes. Array parameters decay to pointers. *)
let rec parse_params lx =
  expect_punct lx LParen;
  if eat_punct lx RParen then []
  else
    match (peek lx, peek2 lx) with
    | KW Kvoid, PUNCT RParen ->
      advance lx;
      advance lx;
      []
    | _ ->
      let rec go acc =
        let bt, _ = parse_base_type lx in
        let t = parse_pointers lx bt in
        let name, t =
          match peek lx with
          | IDENT s ->
            advance lx;
            (s, decayed_type (parse_array_suffix lx t))
          | PUNCT LParen ->
            let name, t = parse_fptr_declarator lx t in
            (name, t)
          | _ -> ("", t)
        in
        let acc = (name, t) :: acc in
        if eat_punct lx Comma then go acc
        else begin
          expect_punct lx RParen;
          List.rev acc
        end
      in
      go []

(* Function-pointer declarator "( * name)(params)"; the return type has
   already been parsed. *)
and parse_fptr_declarator lx ret_ty =
  expect_punct lx LParen;
  expect_punct lx Star;
  let name = expect_ident lx in
  expect_punct lx RParen;
  let params = parse_params lx in
  (name, Tpointer (Tfunction (List.map snd params, ret_ty)))

(** {1 Elaboration environment} *)

type venv = {
  locals : ty Ident.Map.t;  (** parameters and declared locals *)
  globals : ty Ident.Map.t;
}

let lookup_var env id =
  match Ident.Map.find_opt id env.locals with
  | Some t -> Some t
  | None -> Ident.Map.find_opt id env.globals

(* Per-function elaboration state: declared variables, generated
   temporaries, and the prelude of the expression being parsed. *)
type fstate = {
  mutable vars : (Ident.t * ty) list;
  mutable temps : (Ident.t * ty) list;
  mutable prelude : stmt list;  (** newest first *)
}

(* Temporaries are numbered per function, [t$1], [t$2], ...: a source
   gets the same names whatever was compiled before it. *)
let fresh_temp fs t =
  let id = Ident.intern (Printf.sprintf "t$%d" (List.length fs.temps + 1)) in
  fs.temps <- (id, t) :: fs.temps;
  id

(** {1 Expressions}

    [parse_expr] returns a pure Clight expression and emits the
    statements that must run before it (its prelude) into
    [fs.prelude], in execution order. A statement takes the prelude of
    its expressions with [take_prelude]. *)

let emit fs s = fs.prelude <- s :: fs.prelude

(* Prelude lists are newest first: [seq_rev [s3; s2; s1]] is
   [s1; s2; s3] as right-nested [Ssequence]s. *)
let seq_rev = function
  | [] -> Sskip
  | last :: before -> List.fold_left (fun k s -> Ssequence (s, k)) last before

let take_prelude fs =
  let p = fs.prelude in
  fs.prelude <- [];
  p

(* Parse with [parse] but return the prelude (newest first) instead of
   emitting it: the prelude of a branch of [&&], [||] or [?:] runs only
   on that branch, and that of a [sizeof] operand never runs. *)
let detached parse lx env fs =
  let outer = fs.prelude in
  fs.prelude <- [];
  let e = parse lx env fs in
  let p = fs.prelude in
  fs.prelude <- outer;
  (p, e)

(* Decay array/function types when an expression is used as a value. *)
let decay e =
  match typeof e with
  | Tarray (t, _) -> Ecast (Eaddrof (e, Tpointer t), Tpointer t)
  | Tfunction _ as t -> Eaddrof (e, Tpointer t)
  | _ -> e

let cast_to t e = if ty_equal (typeof e) t then e else Ecast (e, t)

let common_type lx t1 t2 =
  if ty_equal t1 t2 then t1
  else
    match Cop.classify_arith t1 t2 with
    | Cop.Cl_i Signed -> tint
    | Cop.Cl_i Unsigned -> tuint
    | Cop.Cl_l g -> Tlong g
    | Cop.Cl_f -> Tfloat
    | Cop.Cl_s -> Tsingle
    | _ -> err lx "incompatible branch types in conditional expression"

(* The left-associative binary operators by precedence level, from [|]
   (loosest) to [* / %] (tightest). *)
let binop = function
  | Bar -> Some (1, Cop.Oor)
  | Caret -> Some (2, Cop.Oxor)
  | Amp -> Some (3, Cop.Oand)
  | EqEq -> Some (4, Cop.Oeq)
  | BangEq -> Some (4, Cop.One)
  | Lt -> Some (5, Cop.Olt)
  | Gt -> Some (5, Cop.Ogt)
  | Le -> Some (5, Cop.Ole)
  | Ge -> Some (5, Cop.Oge)
  | Shl -> Some (6, Cop.Oshl)
  | Shr -> Some (6, Cop.Oshr)
  | Plus -> Some (7, Cop.Oadd)
  | Minus -> Some (7, Cop.Osub)
  | Star -> Some (8, Cop.Omul)
  | Slash -> Some (8, Cop.Odiv)
  | Percent -> Some (8, Cop.Omod)
  | _ -> None

let rec parse_expr lx env fs : expr = parse_conditional lx env fs

and parse_conditional lx env fs =
  let c = parse_logical_or lx env fs in
  if eat_punct lx Question then begin
    let p2, e1 = detached parse_expr lx env fs in
    expect_punct lx Colon;
    let p3, e2 = detached parse_conditional lx env fs in
    let e1 = decay e1 and e2 = decay e2 in
    let t = common_type lx (typeof e1) (typeof e2) in
    let tmp = fresh_temp fs t in
    let branch p e = seq_rev (Sset (tmp, cast_to t e) :: p) in
    emit fs (Sifthenelse (decay c, branch p2 e1, branch p3 e2));
    Etempvar (tmp, t)
  end
  else c

and parse_logical_or lx env fs =
  let e1 = parse_logical_and lx env fs in
  if eat_punct lx BarBar then begin
    let p2, e2 = detached parse_logical_or lx env fs in
    let tmp = fresh_temp fs tint in
    let one = Sset (tmp, Econst_int (1l, tint)) in
    let test2 =
      seq_rev (Sifthenelse (decay e2, one, Sset (tmp, Econst_int (0l, tint))) :: p2)
    in
    emit fs (Sifthenelse (decay e1, one, test2));
    Etempvar (tmp, tint)
  end
  else e1

and parse_logical_and lx env fs =
  let e1 = parse_binary lx env fs 1 in
  if eat_punct lx AmpAmp then begin
    let p2, e2 = detached parse_logical_and lx env fs in
    let tmp = fresh_temp fs tint in
    let zero = Sset (tmp, Econst_int (0l, tint)) in
    let test2 =
      seq_rev (Sifthenelse (decay e2, Sset (tmp, Econst_int (1l, tint)), zero) :: p2)
    in
    emit fs (Sifthenelse (decay e1, test2, zero));
    Etempvar (tmp, tint)
  end
  else e1

(* Precedence climbing: an operand followed by every operator of level
   [min] or tighter, whose right operand binds tighter than it. *)
and parse_binary lx env fs min = climb lx env fs min (parse_unary lx env fs)

and climb lx env fs min e1 =
  match peek lx with
  | PUNCT p -> (
    match binop p with
    | Some (level, op) when level >= min ->
      advance lx;
      let e2 = parse_binary lx env fs (level + 1) in
      let e1 = decay e1 and e2 = decay e2 in
      climb lx env fs min (Ebinop (op, e1, e2, Cop.type_binop op (typeof e1) (typeof e2)))
    | _ -> e1)
  | _ -> e1

and parse_unary lx env fs : expr =
  match peek lx with
  | PUNCT Minus ->
    advance lx;
    let e = decay (parse_unary lx env fs) in
    Eunop (Cop.Oneg, e, Cop.type_binop Cop.Oadd (typeof e) (typeof e))
  | PUNCT Bang ->
    advance lx;
    Eunop (Cop.Onotbool, decay (parse_unary lx env fs), tint)
  | PUNCT Tilde ->
    advance lx;
    let e = decay (parse_unary lx env fs) in
    Eunop (Cop.Onotint, e, Cop.type_binop Cop.Oadd (typeof e) (typeof e))
  | PUNCT Star ->
    advance lx;
    let e = decay (parse_unary lx env fs) in
    (match typeof e with
    | Tpointer t -> Ederef (e, t)
    | _ -> err lx "dereference of a non-pointer value")
  | PUNCT Amp ->
    advance lx;
    let e = parse_unary lx env fs in
    (match e with
    | Evar (_, t) | Ederef (_, t) -> Eaddrof (e, Tpointer t)
    | _ -> err lx "cannot take the address of this expression")
  | KW Ksizeof ->
    advance lx;
    expect_punct lx LParen;
    let t =
      if is_type_start lx then begin
        let bt, _ = parse_base_type lx in
        parse_pointers lx bt
      end
      else typeof (snd (detached parse_expr lx env fs))
    in
    expect_punct lx RParen;
    (* sizeof has type unsigned long *)
    Esizeof (t, tulong)
  | PUNCT LParen when (match peek2 lx with
                       | KW (Kint | Klong | Kchar | Kshort | Kunsigned | Ksigned
                            | Kdouble | Kfloat | Kvoid) -> true
                       | _ -> false) ->
    (* cast *)
    advance lx;
    let bt, _ = parse_base_type lx in
    let t = parse_pointers lx bt in
    expect_punct lx RParen;
    Ecast (decay (parse_unary lx env fs), t)
  | _ -> parse_postfix lx env fs (parse_primary lx env fs)

and parse_postfix lx env fs e =
  match peek lx with
  | PUNCT LBracket ->
    advance lx;
    let idx = parse_expr lx env fs in
    expect_punct lx RBracket;
    let e' = decay e and idx = decay idx in
    (match decayed_type (typeof e) with
    | Tpointer t ->
      parse_postfix lx env fs (Ederef (Ebinop (Cop.Oadd, e', idx, Tpointer t), t))
    | _ -> err lx "indexing a non-array value")
  | PUNCT LParen ->
    advance lx;
    let args =
      if eat_punct lx RParen then []
      else
        let rec more acc =
          let acc = decay (parse_expr lx env fs) :: acc in
          if eat_punct lx Comma then more acc
          else begin
            expect_punct lx RParen;
            List.rev acc
          end
        in
        more []
    in
    let targs, tres =
      match typeof e with
      | Tfunction (targs, tres) | Tpointer (Tfunction (targs, tres)) ->
        (targs, tres)
      | _ -> err lx "call of a non-function value"
    in
    if List.length targs <> List.length args then
      err lx "wrong number of arguments in call";
    let cast_args = List.map2 (fun a t -> cast_to t a) args targs in
    (* Lower the call to a statement over a fresh temporary. *)
    let res_temp, res_expr =
      match tres with
      | Tvoid -> (None, Econst_int (0l, tint))
      | t ->
        let tmp = fresh_temp fs t in
        (Some tmp, Etempvar (tmp, t))
    in
    emit fs (Scall (res_temp, e, cast_args));
    parse_postfix lx env fs res_expr
  | _ -> e

and parse_primary lx env fs : expr =
  match peek lx with
  | INT_LIT (v, ty) ->
    advance lx;
    (match ty with
    | `I -> Econst_int (Int64.to_int32 v, tint)
    | `U -> Econst_int (Int64.to_int32 v, tuint)
    | `L -> Econst_long (v, tlong)
    | `UL -> Econst_long (v, tulong))
  | FLOAT_LIT (f, sfx) ->
    advance lx;
    (match sfx with
    | `D -> Econst_float (f, Tfloat)
    | `F -> Econst_single (Memory.Values.to_single f, Tsingle))
  | IDENT name -> (
    advance lx;
    let id = Ident.intern name in
    match lookup_var env id with
    | Some t -> Evar (id, t)
    | None -> err lx "undeclared identifier %s" name)
  | PUNCT LParen ->
    advance lx;
    let e = parse_expr lx env fs in
    expect_punct lx RParen;
    e
  | t -> err lx "unexpected token %a in expression" pp_token t

(** {1 Statements} *)

let check_assignable lx e =
  match e with
  | Evar _ | Ederef _ -> ()
  | _ -> err lx "expression is not assignable"

(* The arithmetic operator of a compound assignment. *)
let compound_op = function
  | PlusEq -> Some Cop.Oadd
  | MinusEq -> Some Cop.Osub
  | StarEq -> Some Cop.Omul
  | SlashEq -> Some Cop.Odiv
  | PercentEq -> Some Cop.Omod
  | AmpEq -> Some Cop.Oand
  | BarEq -> Some Cop.Oor
  | CaretEq -> Some Cop.Oxor
  | ShlEq -> Some Cop.Oshl
  | ShrEq -> Some Cop.Oshr
  | _ -> None

(* A loop test [if (c) skip else break] after the prelude of [c]. *)
let parse_loop_test lx env fs =
  let c = parse_expr lx env fs in
  let p = take_prelude fs in
  seq_rev (Sifthenelse (decay c, Sskip, Sbreak) :: p)

let rec parse_stmt lx env fs : stmt * venv =
  match peek lx with
  | PUNCT LBrace -> (parse_block lx env fs, env)
  | PUNCT Semi ->
    advance lx;
    (Sskip, env)
  | KW Kif ->
    advance lx;
    expect_punct lx LParen;
    let c = parse_expr lx env fs in
    let p = take_prelude fs in
    expect_punct lx RParen;
    let s1, _ = parse_stmt lx env fs in
    let s2 = if eat_kw lx Kelse then fst (parse_stmt lx env fs) else Sskip in
    (seq_rev (Sifthenelse (decay c, s1, s2) :: p), env)
  | KW Kwhile ->
    advance lx;
    expect_punct lx LParen;
    let test = parse_loop_test lx env fs in
    expect_punct lx RParen;
    let body, _ = parse_stmt lx env fs in
    (* Condition preludes must re-execute on each iteration. *)
    (Sloop (Ssequence (test, body), Sskip), env)
  | KW Kdo ->
    (* do body while (c); — the condition is tested in the loop's
       continue-statement position. *)
    advance lx;
    let body, _ = parse_stmt lx env fs in
    if not (eat_kw lx Kwhile) then err lx "expected while after do-body";
    expect_punct lx LParen;
    let test = parse_loop_test lx env fs in
    expect_punct lx RParen;
    expect_punct lx Semi;
    (Sloop (body, test), env)
  | KW Kfor ->
    advance lx;
    expect_punct lx LParen;
    let init, env' =
      if eat_punct lx Semi then (Sskip, env)
      else if is_type_start lx then parse_decl_stmt lx env fs
      else begin
        let s = parse_expr_stmt lx env fs in
        expect_punct lx Semi;
        (s, env)
      end
    in
    let test =
      if eat_punct lx Semi then Sifthenelse (Econst_int (1l, tint), Sskip, Sbreak)
      else begin
        let test = parse_loop_test lx env' fs in
        expect_punct lx Semi;
        test
      end
    in
    let inc =
      if eat_punct lx RParen then Sskip
      else begin
        (* The increment clause may be a comma-separated sequence. *)
        let rec more acc =
          let acc = parse_expr_stmt lx env' fs :: acc in
          if eat_punct lx Comma then more acc
          else begin
            expect_punct lx RParen;
            seq_rev acc
          end
        in
        more []
      end
    in
    let body, _ = parse_stmt lx env' fs in
    (Ssequence (init, Sloop (Ssequence (test, body), inc)), env)
  | KW Kreturn ->
    advance lx;
    if eat_punct lx Semi then (Sreturn None, env)
    else begin
      let e = parse_expr lx env fs in
      expect_punct lx Semi;
      (seq_rev (Sreturn (Some (decay e)) :: take_prelude fs), env)
    end
  | KW Kbreak ->
    advance lx;
    expect_punct lx Semi;
    (Sbreak, env)
  | KW Kcontinue ->
    advance lx;
    expect_punct lx Semi;
    (Scontinue, env)
  | KW (Kint | Klong | Kchar | Kshort | Kunsigned | Ksigned | Kdouble | Kfloat
       | Kvoid | Kconst) ->
    parse_decl_stmt lx env fs
  | _ ->
    let s = parse_expr_stmt lx env fs in
    expect_punct lx Semi;
    (s, env)

(* Local declaration: [T x = e, y;] — declares memory-resident locals.
   The initializers' preludes and assignments accumulate in
   [fs.prelude]. *)
and parse_decl_stmt lx env fs : stmt * venv =
  let bt, _ = parse_base_type lx in
  let rec decls env =
    let t = parse_pointers lx bt in
    let name, t =
      if at_punct lx LParen then parse_fptr_declarator lx t
      else
        let name = expect_ident lx in
        (name, parse_array_suffix lx t)
    in
    let id = Ident.intern name in
    fs.vars <- (id, t) :: fs.vars;
    let env = { env with locals = Ident.Map.add id t env.locals } in
    if eat_punct lx Eq then begin
      let e = parse_expr lx env fs in
      emit fs (Sassign (Evar (id, t), cast_to t (decay e)))
    end;
    if eat_punct lx Comma then decls env
    else begin
      expect_punct lx Semi;
      (seq_rev (take_prelude fs), env)
    end
  in
  decls env

(* Expression statement: assignment, compound assignment, ++/--, or call. *)
and parse_expr_stmt lx env fs : stmt =
  let e = parse_expr lx env fs in
  (match peek lx with
  | PUNCT Eq ->
    advance lx;
    check_assignable lx e;
    let rhs = parse_expr lx env fs in
    emit fs (Sassign (e, cast_to (typeof e) (decay rhs)))
  | PUNCT ((PlusPlus | MinusMinus) as p) ->
    let op = if p = PlusPlus then Cop.Oadd else Cop.Osub in
    advance lx;
    check_assignable lx e;
    let one = Econst_int (1l, tint) in
    let t = Cop.type_binop op (typeof e) tint in
    emit fs (Sassign (e, cast_to (typeof e) (Ebinop (op, e, one, t))))
  | PUNCT p -> (
    match compound_op p with
    | Some op ->
      advance lx;
      check_assignable lx e;
      let rhs = decay (parse_expr lx env fs) in
      let t = Cop.type_binop op (typeof e) (typeof rhs) in
      emit fs (Sassign (e, cast_to (typeof e) (Ebinop (op, e, rhs, t))))
    | None -> ())
  | _ ->
    (* Pure expression evaluated for side effects only: the prelude
       carries any calls; the value is dropped. *)
    ());
  seq_rev (take_prelude fs)

and parse_block lx env fs : stmt =
  expect_punct lx LBrace;
  let rec go env acc =
    if eat_punct lx RBrace then seq_rev acc
    else begin
      let s, env' = parse_stmt lx env fs in
      go env' (s :: acc)
    end
  in
  go env []

(** {1 Top level} *)

(* Global initializers: constant expressions. *)
let rec const_init lx (t : ty) : Iface.Ast.init_data list =
  let const_scalar () =
    let neg = eat_punct lx Minus in
    match peek lx with
    | INT_LIT (v, _) ->
      advance lx;
      let v = if neg then Int64.neg v else v in
      (match t with
      | Tint (I8, _) -> [ Iface.Ast.Init_int8 (Int64.to_int32 v) ]
      | Tint (I16, _) -> [ Iface.Ast.Init_int16 (Int64.to_int32 v) ]
      | Tint (I32, _) -> [ Iface.Ast.Init_int32 (Int64.to_int32 v) ]
      | Tlong _ | Tpointer _ -> [ Iface.Ast.Init_int64 v ]
      | Tfloat -> [ Iface.Ast.Init_float64 (Int64.to_float v) ]
      | Tsingle -> [ Iface.Ast.Init_float32 (Int64.to_float v) ]
      | _ -> err lx "bad initializer")
    | FLOAT_LIT (f, _) ->
      advance lx;
      let f = if neg then -.f else f in
      (match t with
      | Tfloat -> [ Iface.Ast.Init_float64 f ]
      | Tsingle -> [ Iface.Ast.Init_float32 f ]
      | _ -> err lx "bad float initializer")
    | PUNCT Amp ->
      advance lx;
      let name = expect_ident lx in
      [ Iface.Ast.Init_addrof (Ident.intern name, 0) ]
    | tok -> err lx "unsupported initializer %a" pp_token tok
  in
  match t with
  | Tarray (te, n) ->
    expect_punct lx LBrace;
    (* [acc] holds the elements' data newest first. *)
    let rec go i acc =
      if eat_punct lx RBrace then (i, acc)
      else begin
        let acc = List.rev_append (const_init lx te) acc in
        let i = i + 1 in
        if eat_punct lx Comma then
          if eat_punct lx RBrace then (i, acc) else go i acc
        else begin
          expect_punct lx RBrace;
          (i, acc)
        end
      end
    in
    let filled, rev_data = go 0 [] in
    if filled > n then err lx "too many array initializers";
    List.rev_append rev_data
      (if filled < n then [ Iface.Ast.Init_space ((n - filled) * sizeof te) ] else [])
  | _ -> const_scalar ()

let parse_program (src : string) : Csyntax.program =
  let lx = tokenize src in
  let globals = ref Ident.Map.empty in
  (* The definitions newest first, and each symbol's current one. *)
  let defs = ref [] and defined = ref Ident.Map.empty in
  (* A function definition replaces its earlier prototype, so that each
     symbol has a single entry in the program. *)
  let add_def id d =
    (match (Ident.Map.find_opt id !defined, d) with
    | Some (Iface.Ast.Gfun (Iface.Ast.External _)), Iface.Ast.Gfun (Iface.Ast.Internal _)
      ->
      defs :=
        List.map (fun (id', d') -> if Ident.equal id id' then (id, d) else (id', d')) !defs
    | Some _, _ -> err lx "duplicate definition of %s" (Ident.name id)
    | None, _ -> defs := (id, d) :: !defs);
    defined := Ident.Map.add id d !defined
  in
  while peek lx <> EOF do
    let _ = eat_kw lx Kextern in
    let _ = eat_kw lx Kstatic in
    let bt, readonly = parse_base_type lx in
    let t0 = parse_pointers lx bt in
    let name = expect_ident lx in
    let id = Ident.intern name in
    if at_punct lx LParen then begin
      (* function definition or prototype *)
      let params = parse_params lx in
      let targs = List.map snd params in
      let ftype = Tfunction (targs, t0) in
      globals := Ident.Map.add id ftype !globals;
      if eat_punct lx Semi then
        add_def id
          (Iface.Ast.Gfun
             (Iface.Ast.External
                { Iface.Ast.ef_name = id; ef_sig = signature_of_type targs t0 }))
      else begin
        let params =
          List.map
            (fun (n, t) ->
              if n = "" then err lx "parameter name required in definition"
              else (Ident.intern n, t))
            params
        in
        let fs = { vars = []; temps = []; prelude = [] } in
        let env =
          {
            locals =
              List.fold_left
                (fun m (pid, pt) -> Ident.Map.add pid pt m)
                Ident.Map.empty params;
            globals = !globals;
          }
        in
        let body = parse_block lx env fs in
        let f =
          {
            fn_return = t0;
            fn_params = params;
            fn_vars = List.rev fs.vars;
            fn_temps = List.rev fs.temps;
            fn_body = body;
          }
        in
        add_def id (Iface.Ast.Gfun (Iface.Ast.Internal f))
      end
    end
    else begin
      (* global variable(s): [T x = e, y, z = e;] *)
      let rec declare id t0 =
        let t = parse_array_suffix lx t0 in
        globals := Ident.Map.add id t !globals;
        let init =
          if eat_punct lx Eq then const_init lx t
          else [ Iface.Ast.Init_space (sizeof t) ]
        in
        add_def id
          (Iface.Ast.Gvar
             { Iface.Ast.gvar_info = t; gvar_init = init; gvar_readonly = readonly });
        if eat_punct lx Comma then begin
          let t' = parse_pointers lx bt in
          let name' = expect_ident lx in
          declare (Ident.intern name') t'
        end
        else expect_punct lx Semi
      in
      declare id t0
    end
  done;
  { Iface.Ast.prog_defs = List.rev !defs; prog_main = Ident.intern "main" }
