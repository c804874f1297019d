(** The compile service: a long-running daemon accepting compile
    requests over a Unix-domain socket ([occo serve]).

    The daemon is a streaming job source on {!Harness.Supervisor}: the
    supervisor's one [select] loop watches the listening socket and
    the client connections (one line-JSON request per line,
    {!Protocol}) next to the result pipes of the forked workers
    actually compiling. Retry, degrade, breaker, deadline, poison and
    journal policy are the supervisor's; this module admits requests,
    turns outcomes into replies, and drains. The daemon process
    {e never compiles}: compilation interns identifiers
    ({!Support.Ident} is positional and process-global), and keeping
    the parent's intern table frozen after startup is what makes every
    forked worker see the same table and hence makes marshaled RTL
    cache entries meaningful within a store epoch ({!Cache}). The only
    cache access the parent allows itself is the JSON summary probe —
    the warm fast path that answers a repeat request without forking
    at all.

    Failure modes, each first-class:

    - {e corrupt cache entry}: quarantined by verify-on-read, then the
      request just falls through to a worker and re-derives
      ([serve.cache.corrupt]); a corrupt entry is never served;
    - {e poison job}: a request whose workers crash
      [c_poison_threshold] times is quarantined with a [Poisoned]
      diagnostic, journaled, and never retried into a crash loop —
      repeats are rejected instantly, across restarts
      ([serve.poisoned]);
    - {e overload}: the queue is bounded; beyond the watermark new work
      degrades to the [-O0] fast path, beyond the cap it is shed with
      [Overloaded] ([serve.shed.overload]);
    - {e deadlines}: a request's [deadline_ms] is enforced end-to-end —
      while queued, and as the worker's wall-clock watchdog
      ([serve.deadline_exceeded]);
    - {e breaker}: consecutive worker failures open the compile class's
      circuit breaker; shed requests fail fast with [Circuit_open]
      ([serve.shed.breaker]);
    - {e SIGTERM}: drain — stop accepting, finish queued and in-flight
      work, compact the journal, remove the socket, exit 0;
    - {e kill -9}: the journal (fsync'd line-JSON) and the cache
      (atomic renames) survive; [--resume] reloads the poison set,
      compacts the journal, and the cache-index rebuild scan in
      {!Cache.open_store} scrubs orphan temp files.

    Chaos mode ([--inject-crash], [--inject-hang], [--inject-corrupt])
    makes workers misbehave on purpose so CI can prove each of those
    paths survives contact with reality. *)

module Json = Obs.Json
module Diag = Support.Diagnostics
module Sup = Harness.Supervisor
module Checkpoint = Harness.Checkpoint

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)
(* ------------------------------------------------------------------ *)

type chaos = {
  ch_crash : bool;  (** each compile's first attempt SIGSEGVs itself *)
  ch_crash_forever : bool;  (** ... and so does every retry (→ poison) *)
  ch_hang : bool;  (** one attempt spins until the watchdog kills it *)
  ch_corrupt : bool;  (** flip a byte in each freshly written summary *)
}

let no_chaos =
  { ch_crash = false; ch_crash_forever = false; ch_hang = false;
    ch_corrupt = false }

type config = {
  s_socket : string;  (** Unix-domain socket path *)
  s_cache_dir : string;
  s_queue_cap : int;  (** bound on queued requests; beyond: shed *)
  s_degrade_watermark : int;  (** queue depth that forces [-O0] *)
  s_chaos : chaos;
  s_supervisor : Sup.config;
      (** workers, retries, watchdog, breaker, poison, journal *)
}

let default_config =
  {
    s_socket = "occo.sock";
    s_cache_dir = ".occo-cache";
    s_queue_cap = 64;
    s_degrade_watermark = 32;
    s_chaos = no_chaos;
    s_supervisor =
      {
        Sup.default_config with
        Sup.c_jobs = 2;
        c_breaker_threshold = 10;
        c_poison_threshold = Some 3;
      };
  }

(* ------------------------------------------------------------------ *)
(* Connections                                                        *)
(* ------------------------------------------------------------------ *)

type conn = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;  (** bytes read but not yet forming a full line *)
  mutable c_closed : bool;
}

let close_conn (c : conn) =
  if not c.c_closed then begin
    c.c_closed <- true;
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()
  end

(** Write one reply line; a vanished client (EPIPE, reset) is the
    client's problem, not the daemon's. *)
let send_line (c : conn) (j : Json.t) =
  if not c.c_closed then begin
    let s = Json.to_string j ^ "\n" in
    let b = Bytes.of_string s in
    match
      let rec go off =
        if off < Bytes.length b then
          go (off + Unix.write c.c_fd b off (Bytes.length b - off))
      in
      go 0
    with
    | () -> Obs.Metrics.incr_counter "serve.replies"
    | exception Unix.Unix_error _ ->
      Obs.Metrics.incr_counter "serve.replies_dropped";
      close_conn c
  end

(* ------------------------------------------------------------------ *)
(* The daemon                                                         *)
(* ------------------------------------------------------------------ *)

(** Run the service until it drains (SIGTERM, SIGINT or a [shutdown]
    request). Returns the number of requests served. Never raises for
    request-level trouble; socket-setup failures do raise. *)
let serve (cfg : config) : int =
  let sup = cfg.s_supervisor in
  let cache = Cache.open_store cfg.s_cache_dir in
  (* Resume: compact, so the journal restarts from its snapshot rather
     than growing without bound across restarts; the poison set is
     whatever that snapshot (last status per request) says was
     poisoned. *)
  let poisoned : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  (match sup.Sup.c_journal with
  | Some path when sup.Sup.c_resume ->
    let kept, dropped = Checkpoint.compact path in
    Obs.Interaction_log.record
      (Obs.Interaction_log.Service
         (Printf.sprintf "journal: compacted on resume (%d kept, %d dropped)"
            kept dropped));
    List.iter
      (fun e ->
        if e.Checkpoint.e_status = "poisoned" then
          Hashtbl.replace poisoned e.Checkpoint.e_id ())
      (Checkpoint.load path)
  | _ -> ());
  (* The listening socket. A stale socket file from a crashed daemon
     would make bind fail; remove it first — flock-style exclusivity is
     the operator's concern, not this loop's. *)
  (try Unix.unlink cfg.s_socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.s_socket);
  Unix.listen listen_fd 16;
  (* Drain on SIGTERM/SIGINT: a flag the loop polls, not an exception —
     a signal must never tear the loop mid-reply. SIGPIPE is a write to
     a vanished client; send_line already handles the EPIPE. *)
  let draining = ref false in
  let old_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> draining := true))
  and old_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> draining := true))
  and old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let conns : conn list ref = ref [] in
  let served = ref 0 in
  let t_start = Obs.now_us () in
  (* Every reply is the outcome of a job, whether a worker ran it or
     admission settled it in the parent. *)
  let reply (c : conn) (req : Protocol.request) ~received_us ~degraded
      (o : Engine.result Sup.outcome) =
    let elapsed_us = Obs.now_us () -. received_us in
    let status = Sup.status_name o.Sup.o_status in
    if o.Sup.o_attempts > 1 then
      Obs.Metrics.incr_counter ~by:(o.Sup.o_attempts - 1) "serve.retries";
    if o.Sup.o_crashes > 0 then
      Obs.Metrics.incr_counter ~by:o.Sup.o_crashes "serve.crashes";
    (* One launch more than the retries allow is the -O0 lifeline. *)
    if (not degraded) && o.Sup.o_attempts > sup.Sup.c_retries + 1 then
      Obs.Metrics.incr_counter "serve.degraded";
    (match (o.Sup.o_status, Option.map (fun d -> d.Diag.kind) o.Sup.o_diag) with
    | Sup.Shed, Some Diag.Circuit_open ->
      Obs.Metrics.incr_counter "serve.shed.breaker"
    | Sup.Failed, Some Diag.Deadline_exceeded ->
      Obs.Metrics.incr_counter "serve.deadline_exceeded"
    | Sup.Poisoned, _ when o.Sup.o_attempts > 0 ->
      (* Quarantine the request itself: journaled, so the quarantine
         survives a restart; repeats are rejected at admission without
         ever reaching a worker again. *)
      Hashtbl.replace poisoned o.Sup.o_id ();
      Obs.Metrics.incr_counter "serve.poisoned";
      Format.eprintf "occo serve: poisoned request %s after %d worker crashes@."
        o.Sup.o_id o.Sup.o_crashes
    | _ -> ());
    match o.Sup.o_payload with
    | None ->
      send_line c
        (Protocol.reply ~id:req.Protocol.rq_id ~status ?diag:o.Sup.o_diag
           ~elapsed_us ())
    | Some r ->
      incr served;
      send_line c
        (Protocol.reply ~id:req.Protocol.rq_id ~status ~cache:r.Engine.er_cache
           ~degraded:(degraded || o.Sup.o_status = Sup.Degraded)
           ~elapsed_us ~summary:r.Engine.er_summary ());
      (* Chaos: corrupt the summary this miss just wrote, so the next
         identical request must take the quarantine-and-re-derive path. *)
      if cfg.s_chaos.ch_corrupt && r.Engine.er_cache = "miss" then
        ignore
          (Cache.corrupt_for_test cache
             ~key:(Cache.key_of ~source:req.Protocol.rq_source)
             ~pass:"summary"
             ~opts:(Engine.options_tag ~optimize:r.Engine.er_optimized))
  in
  (* What runs in the forked worker. Chaos injections happen in the
     child — the daemon only ever observes their exit statuses, exactly
     as it would observe a real crash or hang. *)
  let compile (req : Protocol.request) ~optimize ~attempt =
    let ch = cfg.s_chaos in
    if ch.ch_crash && (attempt = 0 || ch.ch_crash_forever) then
      Unix.kill (Unix.getpid ()) Sys.sigsegv;
    if ch.ch_hang && attempt = (if ch.ch_crash then 1 else 0) then
      while true do
        ignore (Sys.opaque_identity 0)
      done;
    Engine.compile_cached cache ~source:req.Protocol.rq_source ~optimize ()
  in
  (* Admission: every request gets exactly one reply, and the expensive
     ones only get as far as their failure mode allows. *)
  let admit exec (c : conn) (line : string) =
    let now = Obs.now_us () in
    Obs.Metrics.incr_counter "serve.requests";
    match Protocol.request_of_line line with
    | Error why ->
      send_line c
        (Protocol.reply ~id:"?" ~status:"failed"
           ~diag:
             (Diag.make ~phase:Diag.Service ~kind:Diag.Syntax_error
                "bad request: %s" why)
           ())
    | Ok req -> (
      match req.Protocol.rq_op with
      | Protocol.Ping ->
        send_line c (Protocol.reply ~id:req.Protocol.rq_id ~status:"pong" ())
      | Protocol.Stats ->
        send_line c
          (Json.Obj
             [
               ("id", Json.Str req.Protocol.rq_id);
               ("status", Json.Str "stats");
               ("queue_depth", Json.num_of_int (Sup.queued exec));
               ("inflight", Json.num_of_int (Sup.inflight exec));
               ("served", Json.num_of_int !served);
               ("metrics", Obs.Metrics.dump_json ());
             ])
      | Protocol.Shutdown ->
        draining := true;
        send_line c (Protocol.reply ~id:req.Protocol.rq_id ~status:"draining" ())
      | Protocol.Compile ->
        (* Overload watermark: new optimized work drops to the -O0 fast
           path before the queue fills enough to shed. *)
        let degraded =
          req.Protocol.rq_optimize
          && Sup.queued exec >= cfg.s_degrade_watermark
        in
        let optimize = req.Protocol.rq_optimize && not degraded in
        (* The job id is fixed here, so the poison set, the journal and
           admission all key on the same (content hash, options). *)
        let job =
          Sup.job ~cls:"compile"
            ~degraded:(compile req ~optimize:false)
            ?deadline_us:
              (Option.map
                 (fun ms -> now +. (float_of_int ms *. 1e3))
                 req.Protocol.rq_deadline_ms)
            (Printf.sprintf "req:%s:%s"
               (Cache.key_of ~source:req.Protocol.rq_source)
               (Engine.options_tag ~optimize))
            (compile req ~optimize)
        in
        let k = reply c req ~received_us:now ~degraded in
        let reject st kind msg =
          Sup.settle exec job st k
            ~diag:(Diag.make ~phase:Diag.Service ~kind "%s" msg)
        in
        if !draining then
          reject Sup.Shed Diag.Overloaded
            "service is draining; not accepting new work"
        else if Hashtbl.mem poisoned job.Sup.job_id then begin
          Obs.Metrics.incr_counter "serve.poisoned_rejects";
          reject Sup.Poisoned Diag.Poisoned
            "request is quarantined: it previously crashed its workers"
        end
        else if Sup.queued exec >= cfg.s_queue_cap then begin
          Obs.Metrics.incr_counter "serve.shed.overload";
          reject Sup.Shed Diag.Overloaded
            (Printf.sprintf "queue full (%d); request shed" cfg.s_queue_cap)
        end
        else begin
          if degraded then Obs.Metrics.incr_counter "serve.degraded";
          (* Warm fast path: a verified summary answers in-process —
             no fork, no interning, no queue. *)
          match
            Engine.lookup_summary cache ~source:req.Protocol.rq_source
              ~optimize
          with
          | Some summary ->
            Obs.Metrics.incr_counter "serve.cache.hit";
            Sup.settle exec job Sup.Completed k
              ~payload:
                { Engine.er_summary = summary; er_cache = "hit";
                  er_optimized = optimize }
          | None -> Sup.submit exec ~degraded job k
        end)
  in
  (* Read a connection and admit every complete line in its buffer. *)
  let read_conn exec (c : conn) =
    let chunk = Bytes.create 65536 in
    match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
    | 0 -> close_conn c
    | n ->
      Buffer.add_subbytes c.c_buf chunk 0 n;
      let data = Buffer.contents c.c_buf in
      let rec go start =
        match String.index_from_opt data start '\n' with
        | None ->
          Buffer.clear c.c_buf;
          Buffer.add_substring c.c_buf data start (String.length data - start)
        | Some nl ->
          let line = String.sub data start (nl - start) in
          if String.trim line <> "" then admit exec c line;
          go (nl + 1)
      in
      go 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn c
  in
  let source =
    {
      Sup.src_fds =
        (fun () ->
          (if !draining then [] else [ listen_fd ])
          @ List.filter_map
              (fun c -> if c.c_closed then None else Some c.c_fd)
              !conns);
      src_ready =
        (fun exec ready ->
          List.iter
            (fun fd ->
              if fd = listen_fd then
                match Unix.accept listen_fd with
                | cfd, _ ->
                  conns :=
                    { c_fd = cfd; c_buf = Buffer.create 256; c_closed = false }
                    :: !conns
                | exception Unix.Unix_error _ -> ()
              else
                List.iter
                  (fun c -> if c.c_fd = fd && not c.c_closed then read_conn exec c)
                  !conns)
            ready;
          conns := List.filter (fun c -> not c.c_closed) !conns);
      src_live = (fun () -> not !draining);
    }
  in
  let cleanup () =
    (* The supervisor has already killed its workers and closed the
       journal; compact it so the next incarnation loads a snapshot. *)
    Option.iter (fun p -> ignore (Checkpoint.compact p)) sup.Sup.c_journal;
    List.iter close_conn !conns;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink cfg.s_socket with Unix.Unix_error _ -> ());
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigpipe old_pipe
  in
  Fun.protect ~finally:cleanup (fun () -> ignore (Sup.run ~source sup []));
  let elapsed_s = (Obs.now_us () -. t_start) /. 1e6 in
  if !served > 0 && elapsed_s > 0. then
    Obs.Metrics.set_gauge "serve.jobs_per_s" (float_of_int !served /. elapsed_s);
  !served

(* ------------------------------------------------------------------ *)
(* Client                                                             *)
(* ------------------------------------------------------------------ *)

(** Connect, send one request line, read one reply line ([occo
    request] and the tests both go through this). [connect_wait_us]
    retries the connect while the daemon is still starting up. *)
let request ?(connect_wait_us = 5e6) ~(socket : string)
    (req : Protocol.request) : (Json.t, string) result =
  let deadline = Obs.now_us () +. connect_wait_us in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Ok fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Obs.now_us () < deadline ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.05;
      connect ()
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)
  in
  match connect () with
  | Error _ as e -> e
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let line = Json.to_string (Protocol.request_to_json req) ^ "\n" in
        let b = Bytes.of_string line in
        let rec put off =
          if off < Bytes.length b then
            put (off + Unix.write fd b off (Bytes.length b - off))
        in
        match put 0 with
        | exception Unix.Unix_error (e, _, _) ->
          Error ("write: " ^ Unix.error_message e)
        | () -> (
          let buf = Buffer.create 256 in
          let chunk = Bytes.create 4096 in
          let rec read_line () =
            match
              String.index_opt (Buffer.contents buf) '\n'
            with
            | Some i -> Ok (String.sub (Buffer.contents buf) 0 i)
            | None -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> Error "daemon closed the connection without replying"
              | n ->
                Buffer.add_subbytes buf chunk 0 n;
                read_line ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ()
              | exception Unix.Unix_error (e, _, _) ->
                Error ("read: " ^ Unix.error_message e))
          in
          match read_line () with
          | Error _ as e -> e
          | Ok line -> (
            match Json.parse_opt line with
            | Some j -> Ok j
            | None -> Error "daemon replied with malformed JSON")))
