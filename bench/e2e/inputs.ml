(** Generated inputs: [Fuzz.Gen] draws and the C examples.

    The compile and verify mixes hold a fixed generated corpus (draws
    from a constant seed, the same in every run) plus fresh draws from
    the run's [--seed]. Random programs differ a lot in cost, so a mix
    made only of fresh draws moves its median by 15% from one seed to
    the next, and one heavy fresh draw moves the verify mix's mean cost by
    5%; the fixed part holds that spread down, and the fresh part keeps a
    change from being tuned to one fixed set. *)

let fixed_seed = 0x0cc0
let n_fixed = 600
let n_fresh = 48

(** Draw [i] of [seed], as [occo fuzz] derives it. *)
let draw seed i =
  let st = Random.State.make [| seed; 104729 * (i + 1) |] in
  QCheck.Gen.generate1 ~rand:st (QCheck.gen Fuzz.Gen.arb_program)

let fuzz_mix ~seed =
  List.init n_fixed (draw fixed_seed) @ List.init n_fresh (draw seed)

let examples_dir = "examples/c"

let examples () : (string * string) list =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (fun f ->
         (f, Corpus.read_file (Filename.concat examples_dir f)))

(** A seeded Fisher-Yates shuffle. *)
let shuffle rng (xs : 'a list) : 'a array =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
