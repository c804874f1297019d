(** Tests for the significant-lines counter behind Tables 3 and 5: the
    scanner must lex string, quoted-string and character literals the
    way OCaml does, so that comment delimiters inside them neither open
    nor close a comment. *)

let count = Sloccount.Sloc.count_string
let checki = Alcotest.(check int)

let cases =
  [
    ( "a comment opener inside a string is code",
      "let s = \"(*\"\nlet x = 1\nlet y = 2\n",
      3 );
    ( "a printf format with (*) does not swallow the file",
      "let pp = Format.fprintf fmt \"%a(*)(%a)\" f x g y\nlet z = 3\n",
      2 );
    ( "a string inside a comment hides a closer",
      "(* the token \"*)\" ends a comment *)\nlet x = 1\n",
      1 );
    ( "a char literal quote does not start a string",
      "let q = '\"'\nlet x = 1\n(* done *)\n",
      2 );
    ( "a char literal quote inside a comment",
      "(* a quote: '\"' *)\nlet x = 1\n",
      1 );
    ( "escaped char literals",
      "let q = '\\\"' and r = '\\\\' and s = '\\'' and t = '\\065'\n(* c *)\nlet x = 1\n",
      2 );
    ( "type variables are not char literals",
      "let f (x : 'a) (y : 'b) = \"(*\"\nlet z = 1\n",
      2 );
    ( "primed identifiers are not char literals",
      "let x' = 1\nlet y'' = x' + 1\n(* \"(*\" *)\n",
      2 );
    ( "quoted strings, across lines",
      "let s = {|(* not\n a comment|}\nlet t = {id|*) |} (*|id}\n",
      3 );
    ("comments nest", "(* a (* b *) c *)\nlet x = 1\n(*\n*)\n", 1);
    ( "a multi-line string counts each line",
      "let s = \"one\n  two (*\n  three\"\nlet t = 4\n",
      4 );
    ("no trailing newline", "let x = 1", 1);
    ("blank lines are not significant", "\n  \n\t\nlet x = 1\n\n", 1);
  ]

let suite =
  ( "sloc",
    List.map
      (fun (name, src, expected) ->
        Alcotest.test_case name `Quick (fun () -> checki name expected (count src)))
      cases
    @ [
        Alcotest.test_case "every pass of the pipeline has a source file"
          `Quick (fun () ->
            List.iter
              (fun (p : Convalg.Derive.pass_info) ->
                Alcotest.(check bool)
                  (p.pass_name ^ " has significant lines")
                  true
                  (Sloccount.Sloc.measure_pass p.pass_name > 0))
              (Driver.Pipeline.passes Driver.Compiler.all_optims));
      ] )
