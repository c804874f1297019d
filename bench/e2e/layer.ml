(** Per-layer recording for the traced run.

    The benchmark times each public call into a layer from its own code,
    inside an [Obs.Trace] span named after the layer, and keeps the raw
    durations (microseconds) per layer name. Every span of one operation
    sits under an [op:<workload>] span carrying the op id. After each op
    the span tree is harvested: the spans the library records itself
    ([compile], [pass:*], [run:*]) feed per-layer samples too, the first
    [max_kept] op trees are kept for the Chrome trace, and the sink is
    cleared so a long run holds one op in memory at a time.

    Everything here is a no-op while [Obs.enabled] is off, which is the
    untraced, end-to-end run. *)

let on () = !Obs.enabled
let samples : (string, Stats.t) Hashtbl.t = Hashtbl.create 64

let get name =
  match Hashtbl.find_opt samples name with
  | Some s -> s
  | None ->
    let s = Stats.create () in
    Hashtbl.add samples name s;
    s

let record name v = if on () then Stats.add (get name) v

(* Per-query counts that repeat exactly, kept once per query name so
   their mean does not depend on how many ops a timed run fitted in. *)
let per_query : (string * string, float) Hashtbl.t = Hashtbl.create 64

let note ~query name v =
  if on () && not (Hashtbl.mem per_query (name, query)) then
    Hashtbl.replace per_query (name, query) v

(** [(query, value)] of every query noted under [name]. *)
let noted name =
  Hashtbl.fold (fun (n, q) v acc -> if n = name then (q, v) :: acc else acc) per_query []

(** [timed name f]: run [f] in a span [name] and record its duration. *)
let timed name f =
  if not (on ()) then f ()
  else
    Obs.Trace.with_span name (fun () ->
        let t0 = Stats.now () in
        let r = f () in
        Stats.add (get name) ((Stats.now () -. t0) *. 1e6);
        r)

let max_kept = 400
let kept : (int * Obs.Trace.span) list ref = ref []
let n_kept_ops = ref 0
let next_op = ref 0

(* Library spans become per-layer samples: a [compile] span splits into
   its [pass:*] children and [Driver.Compiler]'s glue between them. *)
let rec harvest_span (sp : Obs.Trace.span) =
  let name = sp.Obs.Trace.name in
  if name = "compile" then begin
    let passes =
      List.fold_left
        (fun acc (c : Obs.Trace.span) ->
          if String.starts_with ~prefix:"pass:" c.Obs.Trace.name then
            acc +. c.Obs.Trace.dur_us
          else acc)
        0. sp.Obs.Trace.children
    in
    Stats.add (get "driver.compile") sp.Obs.Trace.dur_us;
    Stats.add (get "driver.glue") (sp.Obs.Trace.dur_us -. passes)
  end
  else if String.starts_with ~prefix:"run:" name then
    Stats.add
      (get ("run." ^ String.sub name 4 (String.length name - 4)))
      sp.Obs.Trace.dur_us;
  List.iter harvest_span sp.Obs.Trace.children

(** Move the finished spans out of the [Obs] sinks, tagged with [op]. *)
let harvest ~op =
  let roots = Obs.Trace.roots () in
  List.iter harvest_span roots;
  if !n_kept_ops < max_kept then begin
    incr n_kept_ops;
    kept := List.rev_append (List.map (fun sp -> (op, sp)) roots) !kept
  end;
  Obs.Trace.reset ();
  Obs.Interaction_log.reset ()

(** Keep a span tree built by hand, for ops that overlap in time (the
    open loop), which the stack-shaped [Obs.Trace] sink cannot nest. *)
let keep ~op (sp : Obs.Trace.span) =
  if on () && !n_kept_ops < max_kept then begin
    incr n_kept_ops;
    kept := (op, sp) :: !kept
  end

let fresh_op () =
  incr next_op;
  !next_op

(* [Obs.Trace] stamps spans with [Obs.now_us]; hand-built spans convert
   [Stats.now] readings to that timebase. *)
let clock_offset_us = Obs.now_us () -. (Stats.now () *. 1e6)
let trace_us t = (t *. 1e6) +. clock_offset_us

(** Run one operation under an [op:<workload>] span with a fresh op id;
    set-up spans are harvested with op id 0. *)
let with_op ~workload f =
  if not (on ()) then f ()
  else begin
    let op = fresh_op () in
    let r = Obs.Trace.with_span ("op:" ^ workload) f in
    harvest ~op;
    r
  end

(** Chrome trace-event JSON of the kept op trees: one complete event per
    span, each carrying its op id. *)
let write_chrome path =
  let spans = List.rev !kept in
  let t0 =
    List.fold_left (fun acc (_, sp) -> Float.min acc sp.Obs.Trace.start_us)
      infinity spans
  in
  let rec events op (sp : Obs.Trace.span) acc =
    let ev =
      Obs.Json.Obj
        [
          ("name", Obs.Json.Str sp.Obs.Trace.name);
          ("ph", Obs.Json.Str "X");
          ("ts", Obs.Json.Num (sp.Obs.Trace.start_us -. t0));
          ("dur", Obs.Json.Num sp.Obs.Trace.dur_us);
          ("pid", Obs.Json.num_of_int 1);
          ("tid", Obs.Json.num_of_int 1);
          ( "args",
            Obs.Json.Obj (("op", Obs.Json.num_of_int op) :: sp.Obs.Trace.attrs)
          );
        ]
    in
    List.fold_left (fun acc c -> events op c acc) (ev :: acc)
      sp.Obs.Trace.children
  in
  let evs = List.fold_left (fun acc (op, sp) -> events op sp acc) [] spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj [ ("traceEvents", Obs.Json.List (List.rev evs)) ])))
