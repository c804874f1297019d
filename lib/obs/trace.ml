(** Span tracer: nested, timestamped spans with attributes.

    A span covers one dynamic region of execution — a compiler pass, an
    LTS run, a co-execution check. Spans nest: the sink keeps a stack of
    open spans, and a span closed while another is open becomes its
    child. Completed top-level spans accumulate in a process-global
    list, exportable as Chrome trace-event JSON (loadable in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}) or as a
    human-readable tree.

    Every entry point checks [Control.enabled] first, so an untraced run
    pays one boolean load per instrumentation site. *)

type span = {
  name : string;
  seq : int;  (** session-unique, monotone; orders spans when the clock can't *)
  start_us : float;
  mutable dur_us : float;
  mutable attrs : (string * Json.t) list;
  mutable children : span list;  (** reverse order while open *)
}

(* The sink: open-span stack, finished roots (reverse order), and a
   sequence counter. All process-global, like the registry in
   [Metrics]. [foreign] holds span forests grafted from other
   processes (forked workers), keyed by their real pid, so the Chrome
   export renders one lane per worker. *)
let open_stack : span list ref = ref []
let finished : span list ref = ref []
let seq_counter = ref 0
let foreign : (int * span list) list ref = ref []  (** reverse arrival order *)

let reset () =
  open_stack := [];
  finished := [];
  seq_counter := 0;
  foreign := []

let next_seq () =
  incr seq_counter;
  !seq_counter

let current () = match !open_stack with [] -> None | sp :: _ -> Some sp

(** Attach an attribute to the innermost open span (no-op when tracing
    is off or no span is open). *)
let add_attr key value =
  if !Control.enabled then
    match current () with
    | Some sp -> sp.attrs <- (key, value) :: sp.attrs
    | None -> ()

let push name attrs =
  let sp =
    {
      name;
      seq = next_seq ();
      start_us = Control.now_us ();
      dur_us = 0.;
      attrs;
      children = [];
    }
  in
  open_stack := sp :: !open_stack;
  sp

let pop sp =
  sp.dur_us <- Float.max 0. (Control.now_us () -. sp.start_us);
  sp.attrs <- List.rev sp.attrs;
  sp.children <- List.rev sp.children;
  (match !open_stack with
  | top :: rest when top == sp -> open_stack := rest
  | _ ->
    (* An exception unwound past nested spans without closing them:
       drop everything above [sp] rather than corrupt the stack. *)
    let rec unwind = function
      | top :: rest when top == sp -> rest
      | _ :: rest -> unwind rest
      | [] -> []
    in
    open_stack := unwind !open_stack);
  match !open_stack with
  | parent :: _ -> parent.children <- sp :: parent.children
  | [] -> finished := sp :: !finished

(** [with_span name f] runs [f ()] inside a span. The span is closed
    (and its duration recorded) even if [f] raises. When tracing is
    disabled this is exactly a call to [f]. *)
let with_span ?(attrs = []) name f =
  if not !Control.enabled then f ()
  else begin
    let sp = push name attrs in
    Fun.protect ~finally:(fun () -> pop sp) f
  end

(** Completed top-level spans, oldest first. *)
let roots () = List.rev !finished

(** Graft a finished span forest recorded by another process (a forked
    worker) into this trace under its real [pid]. The spans keep their
    own timestamps — parent and children share the clock domain, so
    they land correctly on the common timeline. *)
let graft ~pid (spans : span list) =
  if spans <> [] then foreign := (pid, spans) :: !foreign

(** Grafted worker forests, oldest first: [(pid, roots)] per graft. *)
let grafted () = List.rev !foreign

(* ------------------------------------------------------------------ *)
(* Exporters                                                          *)
(* ------------------------------------------------------------------ *)

(** Chrome trace-event JSON: one complete ("ph":"X") event per span,
    timestamps and durations in microseconds. This process's spans go
    on its own pid lane; grafted worker forests go on their real pid
    lanes (with a "process_name" metadata event naming each worker),
    so a multi-worker batch renders one lane per worker instead of
    everything stacked on one pid. *)
let to_chrome_json () : Json.t =
  let own_pid = Unix.getpid () in
  (* Timestamps are rebased to the earliest span of any lane so they
     stay small (and exactly representable) regardless of the epoch. *)
  let t0 =
    List.fold_left
      (fun acc sp -> Float.min acc sp.start_us)
      infinity
      (roots () @ List.concat_map snd (grafted ()))
  in
  let t0 = if Float.is_finite t0 then t0 else 0. in
  let rec events ~pid sp acc =
    let ev =
      Json.Obj
        [
          ("name", Json.Str sp.name);
          ("cat", Json.Str "occo");
          ("ph", Json.Str "X");
          ("ts", Json.Num (sp.start_us -. t0));
          ("dur", Json.Num sp.dur_us);
          ("pid", Json.num_of_int pid);
          ("tid", Json.num_of_int pid);
          ("args", Json.Obj sp.attrs);
        ]
    in
    List.fold_left
      (fun acc child -> events ~pid child acc)
      (ev :: acc) sp.children
  in
  let own =
    List.fold_left (fun acc sp -> events ~pid:own_pid sp acc) [] (roots ())
  in
  let worker_pids =
    List.sort_uniq compare (List.map fst (grafted ()))
  in
  let lane_meta =
    (* Metadata events only when worker lanes exist: a single-process
       trace keeps its original all-"X" shape. *)
    if worker_pids = [] then []
    else
      List.map
        (fun pid ->
          Json.Obj
            [
              ("name", Json.Str "process_name");
              ("ph", Json.Str "M");
              ("pid", Json.num_of_int pid);
              ("tid", Json.num_of_int pid);
              ( "args",
                Json.Obj
                  [
                    ( "name",
                      Json.Str
                        (if pid = own_pid then "occo supervisor"
                         else Printf.sprintf "occo worker %d" pid) );
                  ] );
            ])
        (List.sort_uniq compare (own_pid :: worker_pids))
  in
  let foreign_evs =
    List.fold_left
      (fun acc (pid, spans) ->
        List.fold_left (fun acc sp -> events ~pid sp acc) acc spans)
      [] (grafted ())
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (lane_meta @ List.rev own @ List.rev foreign_evs) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let export_chrome (path : string) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_chrome_json ())))
