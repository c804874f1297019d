(** The campaign kernel: one seeded campaign runner behind [occo chaos],
    [occo compromise] and its [--multi] arm.

    A campaign is its trial function plus the names of its matrix rows
    and columns. Trial [i] is deterministic in [(seed, i)] alone — never
    in a state threaded through the run — so the supervised runner can
    judge trials in isolated worker processes, in any completion order,
    resumable after a crash, and still agree with the in-process runner
    on what trial [i] is. Both runners report trials in index order and
    tally them into one matrix: per row, how many trials each column
    counts. This mirrors the split of "When Good Components Go Bad"
    between the generic development and its instances. *)

module Diag = Support.Diagnostics

(** A counted column of the matrix: its header and JSON field, its
    printed width, and the trials it counts. *)
type 'r column = { name : string; width : int; counts : 'r -> bool }

type 'r t = {
  job : string;  (** trial [i] runs as supervisor job [job-%04d] *)
  job_class : string;
  trial : seed:int -> int -> 'r option;  (** [None]: nothing to judge *)
  record : 'r -> unit;  (** per-trial metrics *)
  record_report : 'r report -> unit;  (** per-campaign gauges *)
  row_title : string;
  row_width : int;
  rows : (string * ('r -> bool)) list;  (** name, membership *)
  totals : 'r column list;  (** leading columns; the first counts the row *)
  rate : bool;  (** print the second total as a share of the first *)
  columns : 'r column list;  (** the matrix proper *)
}

and 'r report = {
  seed : int;
  requested : int;
  results : 'r list;  (** the judged trials, in index order *)
  tally : (string * (string * int) list) list;
      (** per row: the count of every total and column *)
}

(** Prepare each corpus program in order, stopping at the first error. *)
let prepare_corpus (prepare : 'a -> ('c, Diag.t) result) (corpus : 'a list) :
    ('c list, Diag.t) result =
  List.fold_left
    (fun acc x ->
      Result.bind acc (fun cs -> Result.map (fun c -> c :: cs) (prepare x)))
    (Ok []) corpus
  |> Result.map List.rev

let report (c : 'r t) ~seed ~requested (results : 'r list) : 'r report =
  let rp =
    {
      seed;
      requested;
      results;
      tally =
        List.map
          (fun (row, member) ->
            let rs = List.filter member results in
            ( row,
              List.map
                (fun col -> (col.name, List.length (List.filter col.counts rs)))
                (c.totals @ c.columns) ))
          c.rows;
    }
  in
  c.record_report rp;
  rp

(** The count of [col] in [row]; [None] when the campaign has no such
    row. *)
let cell (rp : 'r report) ~row ~col : int option =
  Option.map (List.assoc col) (List.assoc_opt row rp.tally)

(** Run trials [0 .. trials-1] in this process. *)
let run (c : 'r t) ~seed ~trials : 'r report =
  report c ~seed ~requested:trials
    (List.filter_map
       (fun i ->
         let r = c.trial ~seed i in
         Option.iter c.record r;
         r)
       (List.init trials Fun.id))

(** Run each trial as one {!Supervisor} job, so a trial that wedges or
    crashes its worker is a [Timed_out]/[Crashed] outcome instead of
    the end of the campaign; [extra] jobs run alongside. The corpus
    behind [c.trial] is prepared once in the parent; workers inherit
    it through [fork]. [on_result] fires in completion order; the
    report lists trials in index order. With a journal and [c_resume],
    trials already judged are skipped and absent from the report.
    Returns the report plus the raw outcomes. *)
let run_supervised ?(on_result = fun _ -> ()) ?(extra = []) (c : 'r t)
    ~(cfg : Supervisor.config) ~seed ~trials :
    'r report * 'r option Supervisor.outcome list =
  let jobs =
    List.init trials (fun i ->
        Supervisor.job ~cls:c.job_class
          (Printf.sprintf "%s-%04d" c.job i)
          (fun ~attempt:_ -> Ok (c.trial ~seed i)))
  in
  let on_outcome (o : 'r option Supervisor.outcome) =
    Option.iter
      (fun r ->
        c.record r;
        on_result r)
      (Option.join o.Supervisor.o_payload)
  in
  let outcomes = Supervisor.run ~on_outcome cfg (jobs @ extra) in
  ( report c ~seed ~requested:trials
      (List.filter_map (fun o -> Option.join o.Supervisor.o_payload) outcomes),
    outcomes )

(** {1 Reporting} *)

let pp_matrix (c : 'r t) fmt (rp : 'r report) =
  Format.fprintf fmt "%-*s" c.row_width c.row_title;
  List.iter (fun col -> Format.fprintf fmt " %*s" col.width col.name) c.totals;
  if c.rate then Format.fprintf fmt " %8s" "rate";
  List.iter (fun col -> Format.fprintf fmt " %12s" col.name) c.columns;
  Format.pp_print_newline fmt ();
  List.iter
    (fun (row, counts) ->
      Format.fprintf fmt "%-*s" c.row_width row;
      List.iter
        (fun col -> Format.fprintf fmt " %*d" col.width (List.assoc col.name counts))
        c.totals;
      (if c.rate then
         match counts with
         | (_, 0) :: _ -> Format.fprintf fmt " %8s" "-"
         | (_, n) :: (_, k) :: _ ->
           Format.fprintf fmt " %8s" (Printf.sprintf "%3d%%" (100 * k / n))
         | _ -> ());
      List.iter
        (fun col -> Format.fprintf fmt " %12d" (List.assoc col.name counts))
        c.columns;
      Format.pp_print_newline fmt ())
    rp.tally

(** The report as JSON: [seed], [requested], [tried], then the
    instance's [summary] fields, the [matrix], and its [extra] fields. *)
let to_json ~summary ~extra (rp : 'r report) : Obs.Json.t =
  let open Obs.Json in
  Obj
    ([
       ("seed", num_of_int rp.seed);
       ("requested", num_of_int rp.requested);
       ("tried", num_of_int (List.length rp.results));
     ]
    @ summary
    @ [
        ( "matrix",
          Obj
            (List.map
               (fun (row, counts) ->
                 (row, Obj (List.map (fun (k, n) -> (k, num_of_int n)) counts)))
               rp.tally) );
      ]
    @ extra)
