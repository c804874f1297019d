(** The supervised executor.

    Runs jobs through forked {!Worker} processes, up to a configured
    concurrency, and degrades gracefully instead of crashing:

    - a worker that segfaults, OOMs or hangs becomes a structured
      [Job_crashed] / [Job_timeout] outcome ({!Worker});
    - transient failures ({!Support.Diagnostics.is_transient}) are
      retried with exponential backoff + jitter ({!Backoff});
    - a job class that keeps failing trips its circuit breaker and
      later jobs of the class are shed fast ({!Breaker});
    - every terminal outcome is appended, fsync'd, to the checkpoint
      journal, and a resumed run skips completed jobs
      ({!Checkpoint});
    - a job whose retries are exhausted can fall back to a {e degraded}
      variant (e.g. recompiling at [-O0], keeping partial artifacts) —
      a lesser answer beats no answer;
    - each job carries an absolute end-to-end deadline: a queued job
      past it is failed without a launch, and a timeout at or after it
      is not retried;
    - with a poison threshold, a job whose workers crash that many
      times is quarantined ([Poisoned]) instead of crash-looping.

    The jobs come from a static list ([occo batch], [fuzz], [chaos],
    [compromise]) or from a streaming {!source} ([occo serve]), which
    submits jobs as its descriptors become readable. The loop is
    single-threaded: one [select] over the workers' result pipes and
    the source's descriptors, with the timeout set to the nearest of
    (worker deadline, backoff wake-up, queued deadline). Time comes
    from the monotonic [Obs.now_us]. *)

module Diag = Support.Diagnostics

(** One unit of work. [job_run] executes in the forked child (which
    inherits the parent's memory image, so it may capture arbitrary
    state); its payload crosses back over a pipe and must therefore be
    marshalable — plain data, no closures. *)
type 'a job = {
  job_id : string;  (** stable across runs: the checkpoint key *)
  job_class : string;  (** breaker bucket, e.g. "compile" *)
  job_run : attempt:int -> ('a, Diag.t) result;
  job_degraded : (attempt:int -> ('a, Diag.t) result) option;
      (** last-resort fallback once retries are exhausted *)
  job_deadline_us : float;  (** absolute; [infinity] for none *)
}

let job ?degraded ?(deadline_us = infinity) ~cls id run =
  {
    job_id = id;
    job_class = cls;
    job_run = run;
    job_degraded = degraded;
    job_deadline_us = deadline_us;
  }

type status =
  | Completed  (** the job returned [Ok] *)
  | Degraded  (** the fallback returned [Ok] *)
  | Failed  (** a structured [Error], or the deadline passed *)
  | Crashed  (** the worker died (signal, bad exit, OOM) *)
  | Timed_out  (** the worker hit its wall-clock deadline *)
  | Shed  (** never ran: the class's breaker was open *)
  | Skipped  (** never ran: the journal says it already completed *)
  | Poisoned  (** its workers crashed [c_poison_threshold] times *)

let status_name = function
  | Completed -> "ok"
  | Degraded -> "degraded"
  | Failed -> "failed"
  | Crashed -> "crashed"
  | Timed_out -> "timeout"
  | Shed -> "shed"
  | Skipped -> "skipped"
  | Poisoned -> "poisoned"

(** Did the supervisor deliver an answer for this job (possibly a
    lesser one)? The batch exit code is the conjunction of these. *)
let status_ok = function
  | Completed | Degraded | Skipped -> true
  | Failed | Crashed | Timed_out | Shed | Poisoned -> false

type 'a outcome = {
  o_id : string;
  o_class : string;
  o_status : status;
  o_payload : 'a option;  (** present for [Completed] / [Degraded] *)
  o_diag : Diag.t option;  (** present for every non-success *)
  o_attempts : int;  (** worker launches, including the degraded one *)
  o_crashes : int;  (** launches that ended in a worker crash *)
  o_elapsed_us : float;  (** first launch to terminal outcome *)
}

type config = {
  c_jobs : int;  (** max concurrent workers *)
  c_retries : int;  (** extra attempts for transient failures *)
  c_timeout_us : float option;  (** per-attempt wall-clock deadline *)
  c_memlimit_bytes : int option;  (** per-worker major-heap cap *)
  c_backoff : Backoff.policy;
  c_breaker_threshold : int;
  c_breaker_cooldown_us : float;
  c_poison_threshold : int option;  (** worker crashes before quarantine *)
  c_seed : int;  (** jitter determinism *)
  c_journal : string option;  (** checkpoint journal path *)
  c_resume : bool;  (** skip jobs the journal completed *)
}

let default_config =
  {
    c_jobs = 1;
    c_retries = 2;
    c_timeout_us = Some 60e6;
    c_memlimit_bytes = None;
    c_backoff = Backoff.default;
    c_breaker_threshold = 5;
    c_breaker_cooldown_us = 2e6;
    c_poison_threshold = None;
    c_seed = 0;
    c_journal = None;
    c_resume = false;
  }

(* ------------------------------------------------------------------ *)
(* The executor                                                       *)
(* ------------------------------------------------------------------ *)

type 'a pending = {
  p_job : 'a job;
  p_notify : 'a outcome -> unit;
  p_attempt : int;  (** 0-based index of the attempt about to run *)
  p_degraded : bool;  (** this attempt runs the degraded fallback *)
  p_ready_us : float;  (** backoff: not before this instant *)
  p_launches : int;  (** workers already spawned for this job *)
  p_crashes : int;  (** of which crashed *)
  p_first_us : float option;  (** when the first worker started *)
  p_rng : Random.State.t Lazy.t;  (** per-job deterministic jitter *)
}

type 'a running = { r_handle : Worker.handle; r_pending : 'a pending }

(** The executor's state, as a streaming {!source} sees it. *)
type 'a t = {
  cfg : config;
  mutable queue : 'a pending list;
  mutable running : 'a running list;
  breakers : (string, Breaker.t) Hashtbl.t;
  writer : Checkpoint.writer option;
  mutable executed : int;
}

(** A streaming job source: the supervisor watches [src_fds ()] next to
    its workers' pipes and hands the ready ones to [src_ready], which
    may {!submit} or {!settle} jobs. The run ends once [src_live ()] is
    false and no job is queued or running. *)
type 'a source = {
  src_fds : unit -> Unix.file_descr list;
  src_ready : 'a t -> Unix.file_descr list -> unit;
  src_live : unit -> bool;
}

let queued t = List.length t.queue
let inflight t = List.length t.running

let breaker t cls =
  match Hashtbl.find_opt t.breakers cls with
  | Some b -> b
  | None ->
    let b =
      Breaker.create ~threshold:t.cfg.c_breaker_threshold
        ~cooldown_us:t.cfg.c_breaker_cooldown_us cls
    in
    Hashtbl.add t.breakers cls b;
    b

let pending t ?(degraded = false) job notify =
  {
    p_job = job;
    p_notify = notify;
    p_attempt = 0;
    p_degraded = degraded;
    p_ready_us = Obs.now_us ();
    p_launches = 0;
    p_crashes = 0;
    p_first_us = None;
    p_rng = lazy (Random.State.make [| t.cfg.c_seed; Hashtbl.hash job.job_id |]);
  }

let finalize t ?payload ?diag ~now (p : 'a pending) (st : status) =
  let o =
    {
      o_id = p.p_job.job_id;
      o_class = p.p_job.job_class;
      o_status = st;
      o_payload = payload;
      o_diag = diag;
      o_attempts = p.p_launches;
      o_crashes = p.p_crashes;
      o_elapsed_us =
        (match p.p_first_us with Some t0 -> now -. t0 | None -> 0.);
    }
  in
  Obs.Metrics.incr_counter ("harness.jobs." ^ status_name st);
  if st <> Skipped then begin
    t.executed <- t.executed + 1;
    Obs.Metrics.observe "harness.job_us" o.o_elapsed_us;
    Option.iter
      (fun w ->
        Checkpoint.append w
          {
            Checkpoint.e_id = o.o_id;
            e_class = o.o_class;
            e_status = status_name st;
            e_attempts = o.o_attempts;
            e_elapsed_us = o.o_elapsed_us;
          })
      t.writer
  end;
  p.p_notify o

(** Queue [job]; [notify] receives its terminal outcome. A [degraded]
    job starts on its fallback (it must have one). *)
let submit t ?degraded job notify =
  t.queue <- t.queue @ [ pending t ?degraded job notify ]

(** Conclude [job] in the parent, without a worker: the outcome is
    journaled and handed to [notify] like any other. *)
let settle t ?payload ?diag job st notify =
  finalize t ?payload ?diag ~now:(Obs.now_us ()) (pending t job notify) st

let make_diag (p : 'a pending) kind fmt =
  Diag.make ~phase:Diag.Batch ~kind ~context:[ ("job", p.p_job.job_id) ] fmt

(* Decide what a finished (or failed-to-finish) attempt leads to:
   poison, deadline, retry with backoff, degrade, or a terminal
   outcome. *)
let conclude t ~now (p : 'a pending) (v : 'a Worker.verdict) =
  let ok = match v with Worker.Returned (Ok _) -> true | _ -> false in
  Breaker.record (breaker t p.p_job.job_class) ~now_us:now ~ok;
  let requeue ?(delay = 0.) p' =
    t.queue <-
      t.queue
      @ [ { p' with p_attempt = p.p_attempt + 1; p_ready_us = now +. delay } ]
  in
  match v with
  | Worker.Returned (Ok payload) ->
    finalize t ~now ~payload p (if p.p_degraded then Degraded else Completed)
  | v -> (
    let crashed, d, st =
      match v with
      | Worker.Returned (Error d) -> (false, d, Failed)
      | Worker.Crashed why ->
        (true, make_diag p Diag.Job_crashed "worker died: %s" why, Crashed)
      | Worker.Pipe_write_failed ->
        ( true,
          make_diag p Diag.Job_crashed
            "worker completed but could not write its result to the pipe",
          Crashed )
      | Worker.Oom ->
        ( true,
          make_diag p Diag.Resource_exhausted "worker exceeded its memory limit",
          Crashed )
      | Worker.Timed_out ->
        ( false,
          make_diag p Diag.Job_timeout "worker exceeded its wall-clock limit",
          Timed_out )
      | Worker.Returned (Ok _) -> assert false
    in
    let p = if crashed then { p with p_crashes = p.p_crashes + 1 } else p in
    let transient = Diag.is_transient d.Diag.kind in
    match t.cfg.c_poison_threshold with
    | Some k when crashed && p.p_crashes >= k ->
      (* Quarantine: never retried or degraded into a crash loop. *)
      finalize t ~now p Poisoned
        ~diag:
          (make_diag p Diag.Poisoned
             "job crashed %d workers and was quarantined" p.p_crashes)
    | _ ->
      if st = Timed_out && now >= p.p_job.job_deadline_us then
        finalize t ~now p Failed
          ~diag:(make_diag p Diag.Deadline_exceeded "deadline passed while running")
      else if transient && p.p_attempt < t.cfg.c_retries then begin
        Obs.Metrics.incr_counter "harness.jobs.retries";
        requeue p
          ~delay:
            (Backoff.delay_us t.cfg.c_backoff ~rng:(Lazy.force p.p_rng)
               ~attempt:(p.p_attempt + 1))
      end
      else if
        transient && (not p.p_degraded) && Option.is_some p.p_job.job_degraded
      then begin
        Obs.Metrics.incr_counter "harness.jobs.degraded_attempts";
        requeue { p with p_degraded = true }
      end
      else finalize t ~now ~diag:d p st)

let reap t ~timed_out ~now (r : 'a running) =
  t.running <- List.filter (fun r' -> r' != r) t.running;
  if timed_out then Worker.kill r.r_handle;
  conclude t ~now r.r_pending (Worker.reap r.r_handle ~timed_out)

let launch t ~now (p : 'a pending) =
  let j = p.p_job in
  if not (Breaker.allow (breaker t j.job_class) ~now_us:now) then
    finalize t ~now p Shed
      ~diag:
        (Diag.make ~phase:Diag.Batch ~kind:Diag.Circuit_open
           ~context:[ ("class", j.job_class) ]
           "job shed: circuit breaker for class %s is open" j.job_class)
  else begin
    let run =
      if p.p_degraded then Option.get j.job_degraded else j.job_run
    in
    (* The watchdog is the per-attempt cap or what is left of the
       deadline, whichever is smaller (never under 10 ms). *)
    let timeout_us =
      if j.job_deadline_us = infinity then t.cfg.c_timeout_us
      else
        let left = Float.max 1e4 (j.job_deadline_us -. now) in
        Some (Option.fold ~none:left ~some:(Float.min left) t.cfg.c_timeout_us)
    in
    let h =
      Worker.spawn ?timeout_us ?memlimit_bytes:t.cfg.c_memlimit_bytes
        ~label:("job:" ^ j.job_id)
        ~attrs:
          [
            ("class", Obs.Json.Str j.job_class);
            ("attempt", Obs.Json.num_of_int p.p_attempt);
            ("degraded", Obs.Json.Bool p.p_degraded);
          ]
        (fun () -> run ~attempt:p.p_attempt)
    in
    Obs.Metrics.incr_counter "harness.jobs.launched";
    t.running <-
      {
        r_handle = h;
        r_pending =
          {
            p with
            p_launches = p.p_launches + 1;
            p_first_us =
              (match p.p_first_us with
              | Some _ as t0 -> t0
              | None -> Some h.Worker.started_us);
          };
      }
      :: t.running
  end

(* One turn of the loop: expire, launch, kill, then wait on every
   descriptor until the next thing is due. *)
let turn t (source : 'a source option) =
  let now = Obs.now_us () in
  (* Service gauges: what the supervisor looks like from outside, one
     write per loop turn (no-ops with observability off). *)
  Obs.Metrics.set_gauge "harness.queue_depth" (float_of_int (queued t));
  Obs.Metrics.set_gauge "harness.inflight" (float_of_int (inflight t));
  (* A queued job past its deadline must not consume a worker it can
     no longer use. *)
  let expired, alive =
    List.partition (fun p -> now >= p.p_job.job_deadline_us) t.queue
  in
  t.queue <- alive;
  List.iter
    (fun p ->
      finalize t ~now p Failed
        ~diag:(make_diag p Diag.Deadline_exceeded "deadline passed while queued"))
    expired;
  let rec fill () =
    if inflight t < t.cfg.c_jobs then
      match List.partition (fun p -> p.p_ready_us <= now) t.queue with
      | p :: rest_ready, not_ready ->
        t.queue <- rest_ready @ not_ready;
        launch t ~now p;
        fill ()
      | [], _ -> ()
  in
  fill ();
  List.iter
    (fun r ->
      if now >= r.r_handle.Worker.deadline_us then reap t ~timed_out:true ~now r)
    t.running;
  (* Wake for the next worker deadline or queued deadline, and for the
     next backoff wake-up only if a worker slot is free to take it. *)
  let free = inflight t < t.cfg.c_jobs in
  let horizon =
    List.fold_left
      (fun acc p ->
        Float.min acc
          (if free then Float.min p.p_ready_us p.p_job.job_deadline_us
           else p.p_job.job_deadline_us))
      (List.fold_left
         (fun acc r -> Float.min acc r.r_handle.Worker.deadline_us)
         infinity t.running)
      t.queue
  in
  let wait_s = Float.max 0. (Float.min 0.25 ((horizon -. now) /. 1e6)) in
  let src_fds = match source with Some s -> s.src_fds () | None -> [] in
  match List.map (fun r -> r.r_handle.Worker.fd) t.running @ src_fds with
  | [] -> if wait_s > 0. then Unix.sleepf wait_s
  | fds -> (
    match Unix.select fds [] [] wait_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ -> (
      let worker fd =
        List.find_opt (fun r -> r.r_handle.Worker.fd = fd) t.running
      in
      let pipes, from_source =
        List.partition (fun fd -> Option.is_some (worker fd)) ready
      in
      List.iter
        (fun fd ->
          Option.iter
            (fun r ->
              match Worker.read_chunk r.r_handle with
              | `More -> ()
              | `Eof -> reap t ~timed_out:false ~now:(Obs.now_us ()) r)
            (worker fd))
        pipes;
      match source with
      | Some s when from_source <> [] -> s.src_ready t from_source
      | _ -> ()))

(** Run [jobs] (and whatever [source] submits) to completion. Returns
    the outcomes of [jobs], in order; the outcomes of streamed jobs go
    only to their [notify], so a long-running source leaves no table
    behind. [on_outcome] sees every outcome of [jobs] as it happens.
    With [c_resume], jobs of [jobs] the journal completed are
    [Skipped]. *)
let run ?(on_outcome = fun (_ : 'a outcome) -> ()) ?source (cfg : config)
    (jobs : 'a job list) : 'a outcome list =
  let cfg = { cfg with c_jobs = max 1 cfg.c_jobs } in
  let completed_before =
    match (cfg.c_resume, cfg.c_journal) with
    | true, Some path when jobs <> [] ->
      Checkpoint.completed_ids (Checkpoint.load path)
    | _ -> Hashtbl.create 1
  in
  let t =
    {
      cfg;
      queue = [];
      running = [];
      breakers = Hashtbl.create 8;
      (* A fresh (non-resume) run truncates: its journal describes this
         run only. A resumed run appends to the record it is
         completing. *)
      writer =
        Option.map
          (Checkpoint.open_journal ~truncate:(not cfg.c_resume))
          cfg.c_journal;
      executed = 0;
    }
  in
  let outcomes : (string, 'a outcome) Hashtbl.t = Hashtbl.create 64 in
  let notify o =
    Hashtbl.replace outcomes o.o_id o;
    on_outcome o
  in
  let now0 = Obs.now_us () in
  List.iter
    (fun j ->
      if Hashtbl.mem completed_before j.job_id then
        finalize t ~now:now0 (pending t j notify) Skipped
      else submit t j notify)
    jobs;
  let live () =
    t.queue <> [] || t.running <> []
    || match source with Some s -> s.src_live () | None -> false
  in
  let cleanup () =
    (* On any exit — including an interrupt raised from a signal
       handler — no worker outlives the supervisor, and the journal fd
       is closed (every line already hit the disk via fsync). *)
    List.iter
      (fun r ->
        Worker.kill r.r_handle;
        ignore (Worker.reap r.r_handle ~timed_out:true))
      t.running;
    t.running <- [];
    Option.iter Checkpoint.close t.writer
  in
  Fun.protect ~finally:cleanup (fun () ->
      while live () do
        turn t source
      done);
  Obs.Metrics.set_gauge "harness.queue_depth" 0.;
  Obs.Metrics.set_gauge "harness.inflight" 0.;
  let elapsed_s = (Obs.now_us () -. now0) /. 1e6 in
  if t.executed > 0 && elapsed_s > 0. then
    Obs.Metrics.set_gauge "harness.jobs_per_s"
      (float_of_int t.executed /. elapsed_s);
  List.filter_map (fun j -> Hashtbl.find_opt outcomes j.job_id) jobs

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

let all_statuses =
  [ Completed; Degraded; Skipped; Failed; Crashed; Timed_out; Shed; Poisoned ]

let count (outcomes : 'a outcome list) (st : status) =
  List.length (List.filter (fun o -> o.o_status = st) outcomes)

(** True iff every job ended in an acceptable state. *)
let all_ok (outcomes : 'a outcome list) =
  List.for_all (fun o -> status_ok o.o_status) outcomes

let pp_summary fmt (outcomes : 'a outcome list) =
  let line st =
    let n = count outcomes st in
    if n > 0 then Format.fprintf fmt "  %-8s %d@." (status_name st) n
  in
  Format.fprintf fmt "%d job%s:@." (List.length outcomes)
    (if List.length outcomes = 1 then "" else "s");
  List.iter line all_statuses

let outcome_to_json ?payload_to_json (o : 'a outcome) : Obs.Json.t =
  let open Obs.Json in
  Obj
    ([
       ("job", Str o.o_id);
       ("class", Str o.o_class);
       ("status", Str (status_name o.o_status));
       ("attempts", num_of_int o.o_attempts);
       ("elapsed_us", Num o.o_elapsed_us);
     ]
    @ (match o.o_diag with
      | Some d -> [ ("diagnostic", Str (Diag.to_string d)) ]
      | None -> [])
    @
    match (payload_to_json, o.o_payload) with
    | Some f, Some p -> [ ("payload", f p) ]
    | _ -> [])

let report_to_json ?payload_to_json (outcomes : 'a outcome list) : Obs.Json.t =
  let open Obs.Json in
  Obj
    [
      ("jobs", num_of_int (List.length outcomes));
      ("ok", Bool (all_ok outcomes));
      ( "counts",
        Obj
          (List.map
             (fun st -> (status_name st, num_of_int (count outcomes st)))
             all_statuses) );
      ( "results",
        List (List.map (outcome_to_json ?payload_to_json) outcomes) );
    ]
