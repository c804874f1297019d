(** The serve workload: an open loop of compile requests sent to an
    [occo serve --jobs 2] daemon over its socket protocol.

    Requests are due at a fixed rate; a seeded draw gives each its cache
    tier: 75% warm (a summary hit, answered in the daemon without a
    fork), 10% RTL (the summary entry was deleted, so a worker re-runs
    only the backend from the cached RTL), 15% cold (a source never seen
    before: a worker runs the whole pipeline and fsyncs two entries).
    One process drives at most two connections with a [select] loop;
    a request goes out on the first free connection once it is due, and
    its latency runs from its due time, so a stall also charges the
    requests queued behind it. *)

module Json = Obs.Json
module P = Service.Protocol

let occo = "_build/default/bin/occo.exe"
let connections = 2

(* The generator polls instead of sleeping from [poll_before_s] before a
   request is due until it is sent, and for [poll_after_s] after a
   request went out (a warm reply takes about 0.2 ms). Waking a sleeping
   process costs 0.05 to 0.3 ms on a virtual machine, as much as a warm
   request itself, and varies with the host's load; polling keeps the
   generator's own wake-ups out of the latency, while the daemon's,
   which users pay, stay in. Longer polls take enough CPU from the
   daemon's workers to slow them. *)
let poll_before_s = 0.0003
let poll_after_s = 0.0005

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(** A [/proc/<pid>/status] field in MB ([nan] where there is no /proc). *)
let proc_mb pid field =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> nan
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ k; v ] when k = field -> (
          match Scanf.sscanf v " %f kB" Fun.id with
          | kb -> kb /. 1024.
          | exception _ -> acc)
        | _ -> acc)
      nan (String.split_on_char '\n' s)

(** CPU seconds a process and its reaped children have used, from
    [/proc/<pid>/stat] ([nan] where there is no /proc). *)
let proc_cpu_s pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all
  with
  | exception Sys_error _ -> nan
  | s -> (
    (* The fields after the parenthesised command name, from the state
       (field 3) on; utime, stime, cutime and cstime are fields 14 to 17,
       in clock ticks of 1/100 s (Linux's USER_HZ). *)
    let i = String.rindex s ')' + 2 in
    match String.split_on_char ' ' (String.sub s i (String.length s - i)) with
    | fields when List.length fields > 14 ->
      List.fold_left (fun acc i -> acc +. float_of_string (List.nth fields i)) 0. [ 11; 12; 13; 14 ]
      /. 100.
    | _ -> nan)

(** {1 The daemon} *)

type daemon = {
  pid : int;
  dir : string;
  socket : string;
  cache : string;
  mutable alive : bool;
}

let live : daemon list ref = ref []

let request_line ~id ~op ~source =
  Json.to_string
    (P.request_to_json
       { P.rq_id = id; rq_op = op; rq_source = source; rq_optimize = true;
         rq_deadline_ms = None })
  ^ "\n"

(** Drain the daemon with a [shutdown] request, SIGKILL it if it has not
    exited ten seconds later, reap it, and scrub its directory. *)
let stop (d : daemon) =
  if d.alive then begin
    d.alive <- false;
    ignore
      (Service.Serve.request ~connect_wait_us:0. ~socket:d.socket
         { P.rq_id = "stop"; rq_op = P.Shutdown; rq_source = "";
           rq_optimize = true; rq_deadline_ms = None });
    let deadline = Stats.now () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Stats.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
      | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error _ -> ()
    in
    wait ()
  end;
  rm_rf d.dir;
  live := List.filter (fun d' -> d' != d) !live

let () = at_exit (fun () -> List.iter stop !live)

let start ~dir : daemon =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "occo.sock"
  and cache = Filename.concat dir "cache" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process occo
      [| occo; "serve"; "--socket"; socket; "--cache"; cache; "--jobs"; "2" |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; dir; socket; cache; alive = true } in
  live := d :: !live;
  (match
     Service.Serve.request ~socket
       { P.rq_id = "ping"; rq_op = P.Ping; rq_source = ""; rq_optimize = true;
         rq_deadline_ms = None }
   with
  | Ok j when P.reply_status j = Some "pong" -> ()
  | _ -> failwith "occo serve did not answer a ping");
  d

(** {1 Requests} *)

type tier = Warm | Rtl | Cold

let tier_index = function Warm -> 0 | Rtl -> 1 | Cold -> 2
let cache_field = function Warm -> "hit" | Rtl -> "rtl" | Cold -> "miss"

type planned = {
  due : float;  (** seconds after the phase start *)
  tier : tier;
  source : string;
  expect : Json.t;  (** the summary an in-process compile gives *)
}

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable job : [ `Idle | `Stats | `Req of int * planned * float ];
  mutable free_at : float;
}

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let connect (d : daemon) =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX d.socket);
  { fd; buf = Buffer.create 4096; job = `Idle; free_at = 0. }

(** One completed phase, times in seconds. *)
type phase = {
  lat : Stats.t;  (** due time to reply *)
  by_tier : Stats.t array;  (** [lat] split by tier: warm, rtl, cold *)
  server : Stats.t;  (** the reply's [elapsed_us] *)
  overhead : Stats.t;  (** round trip minus [elapsed_us] *)
  lateness : Stats.t;  (** send time minus when it could first go out *)
  mutable attempted : int;
  mutable failed : int;
  mutable cpu_s : float;  (** CPU the daemon and its workers used *)
  mutable max_inflight : int;
  mutable queue_max : float;
  mutable counters0 : (string * float) list;  (** the daemon's, at the start *)
  mutable counters : (string * float) list;  (** the daemon's, at the end *)
}

type env = {
  d : daemon;
  conns : conn array;
  warm : (string * Json.t) array;
  rtl : (string * Json.t) array;
  cold : (string * Json.t) array;  (** bases; each use gets a fresh tag *)
  rng : Random.State.t;
  self_test : bool;
  mutable rtl_next : int;
  mutable cold_next : int;
  mutable rss_after_setup : float;
}

let summary_entry (e : env) source =
  Filename.concat e.d.cache
    (Service.Cache.entry_name ~key:(Service.Cache.key_of ~source)
       ~pass:"summary" ~opts:"O2")

(* The expected summary of [source], from an in-process compile of a
   program with the same code. [self_test] makes it name the wrong key. *)
let expect_of (e : env) ~source (s : Json.t) =
  let key = Service.Cache.key_of ~source:(if e.self_test then source ^ " " else source) in
  match s with
  | Json.Obj (("key", _) :: rest) -> Json.Obj (("key", Json.Str key) :: rest)
  | j -> j

let counters_of (stats : Json.t) =
  match Option.bind (Json.member "metrics" stats) (Json.member "counters") with
  | Some (Json.Obj kvs) ->
    List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_num v)) kvs
  | _ -> []

(** Run the requests of [plan] (due times ascending) and wait for every
    reply. [stats_every] polls the daemon's [stats] on an idle
    connection. *)
let run_phase ?(traced = false) ?(stats_every = 1.) (e : env) (plan : planned array)
    : phase =
  let ph =
    {
      lat = Stats.create ();
      by_tier = Array.init 3 (fun _ -> Stats.create ());
      server = Stats.create ();
      overhead = Stats.create ();
      lateness = Stats.create ();
      attempted = 0;
      failed = 0;
      cpu_s = nan;
      max_inflight = 0;
      queue_max = 0.;
      counters0 = [];
      counters = [];
    }
  in
  let t0 = ref 0. in
  let busy () =
    Array.fold_left (fun n c -> if c.job = `Idle then n else n + 1) 0 e.conns
  in
  let idle () = Array.find_opt (fun c -> c.job = `Idle) e.conns in
  let send c line job =
    write_all c.fd line;
    c.job <- job;
    ph.max_inflight <- max ph.max_inflight (busy ())
  in
  let finish_request id (p : planned) ~sent ~recv (reply : Json.t option) =
    let due = !t0 +. p.due in
    let field k = Option.bind reply (fun j -> P.reply_field j k) in
    let elapsed_s =
      Option.value ~default:nan
        (Option.bind (Option.bind reply (Json.member "elapsed_us")) Json.to_num)
      /. 1e6
    in
    let ok =
      field "status" = Some "ok"
      && field "cache" = Some (cache_field p.tier)
      && Option.bind reply (Json.member "summary") = Some p.expect
    in
    ph.attempted <- ph.attempted + 1;
    if not ok then ph.failed <- ph.failed + 1;
    Stats.add ph.lat (recv -. due);
    Stats.add ph.by_tier.(tier_index p.tier) (recv -. due);
    Stats.add ph.server elapsed_s;
    Stats.add ph.overhead (recv -. sent -. elapsed_s);
    (* A served RTL-tier source gets its summary back; delete it again so
       the source stays on the RTL tier for its next turn. *)
    if ok && p.tier = Rtl then (
      try Sys.remove (summary_entry e p.source) with Sys_error _ -> ());
    if traced then
      let span name a b children attrs =
        {
          Obs.Trace.name;
          seq = 0;
          start_us = Layer.trace_us a;
          dur_us = (b -. a) *. 1e6;
          attrs;
          children;
        }
      in
      Layer.keep ~op:id
        (span "op:serve" due recv
           [
             span "loadgen.wait" due sent [] [];
             span "serve.request" sent recv []
               [
                 ("tier", Json.Str (cache_field p.tier));
                 ("elapsed_us", Json.Num (elapsed_s *. 1e6));
                 ("ok", Json.Bool ok);
               ];
           ]
           [])
  in
  let on_line c line =
    let now = Stats.now () in
    let reply = Json.parse_opt line in
    (match c.job with
    | `Req (id, p, sent) -> finish_request id p ~sent ~recv:now reply
    | `Stats ->
      Option.iter
        (fun j ->
          Option.iter
            (fun q -> ph.queue_max <- Float.max ph.queue_max q)
            (Option.bind (Json.member "queue_depth" j) Json.to_num);
          ph.counters <- counters_of j)
        reply
    | `Idle -> ());
    c.job <- `Idle;
    c.free_at <- now
  in
  let read c =
    let chunk = Bytes.create 65536 in
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "occo serve closed a connection"
    | n -> (
      Buffer.add_subbytes c.buf chunk 0 n;
      let s = Buffer.contents c.buf in
      match String.index_opt s '\n' with
      | Some i ->
        Buffer.clear c.buf;
        Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
        on_line c (String.sub s 0 i)
      | None -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let poll_stats ~final c =
    send c (request_line ~id:"stats" ~op:P.Stats ~source:"") `Stats;
    if final then
      while c.job <> `Idle do
        read c
      done
  in
  poll_stats ~final:true e.conns.(0);
  ph.counters0 <- ph.counters;
  let cpu0 = proc_cpu_s e.d.pid in
  t0 := Stats.now ();
  Array.iter (fun c -> c.free_at <- !t0) e.conns;
  let next = ref 0 and next_stats = ref (!t0 +. stats_every) in
  let finished = ref false in
  while not !finished do
    let now = Stats.now () in
    let rec issue () =
      if !next < Array.length plan && !t0 +. plan.(!next).due <= now then
        match idle () with
        | Some c ->
          let p = plan.(!next) in
          let id = Layer.fresh_op () in
          let t = Stats.now () in
          Stats.add ph.lateness (t -. Float.max (!t0 +. p.due) c.free_at);
          send c (request_line ~id:(string_of_int id) ~op:P.Compile ~source:p.source)
            (`Req (id, p, t));
          incr next;
          issue ()
        | None -> ()
    in
    issue ();
    (if now >= !next_stats then
       match idle () with
       | Some c ->
         poll_stats ~final:false c;
         next_stats := now +. stats_every
       | None -> ());
    if !next >= Array.length plan && busy () = 0 then finished := true
    else begin
      let now = Stats.now () in
      let awaiting =
        Array.exists
          (fun c ->
            match c.job with `Req (_, _, sent) -> now -. sent < poll_after_s | _ -> false)
          e.conns
      in
      let wait =
        if awaiting then 0.
        else if !next < Array.length plan && idle () <> None then
          Float.max 0. (!t0 +. plan.(!next).due -. now -. poll_before_s)
        else 0.05
      in
      let fds =
        Array.to_list e.conns
        |> List.filter_map (fun c -> if c.job = `Idle then None else Some c.fd)
      in
      match Unix.select fds [] [] (Float.min wait 0.05) with
      | ready, _, _ ->
        Array.iter (fun c -> if List.mem c.fd ready then read c) e.conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  (* The daemon reaps a worker before it replies, so after the last
     reply every worker's CPU is in the daemon's children fields. *)
  poll_stats ~final:true e.conns.(0);
  ph.cpu_s <- proc_cpu_s e.d.pid -. cpu0;
  ph

(** {1 Plans} *)

(** [rate] requests per second for [seconds], tiers drawn 75/10/15. *)
let plan (e : env) ~rate ~seconds : planned array =
  Array.init (int_of_float (rate *. seconds)) (fun i ->
      let due = float_of_int i /. rate in
      let u = Random.State.float e.rng 1. in
      if u < 0.75 then
        let source, s = e.warm.(Random.State.int e.rng (Array.length e.warm)) in
        { due; tier = Warm; source; expect = expect_of e ~source s }
      else if u < 0.85 then begin
        let source, s = e.rtl.(e.rtl_next mod Array.length e.rtl) in
        e.rtl_next <- e.rtl_next + 1;
        { due; tier = Rtl; source; expect = expect_of e ~source s }
      end
      else begin
        let base, s = e.cold.(e.cold_next mod Array.length e.cold) in
        let source = Printf.sprintf "%s\n/* cold request %d */\n" base e.cold_next in
        e.cold_next <- e.cold_next + 1;
        { due; tier = Cold; source; expect = expect_of e ~source s }
      end)

(** {1 Set-up} *)

(** Start a daemon on a fresh cache in [dir]; compile the warm and RTL
    pools through it (cold, checked), then delete the RTL pool's summary
    entries. Every source's expected summary comes from an in-process
    compile. *)
let setup ~dir ~seed ~self_test ~n_warm ~n_rtl ~n_cold : env =
  let mix = Inputs.shuffle (Random.State.make [| seed; 8 |]) (Inputs.fuzz_mix ~seed) in
  let reference source =
    match Corpus.compile source with
    | Ok arts ->
      ( source,
        Service.Engine.summary_json ~key:(Service.Cache.key_of ~source)
          ~optimize:true ~rtl:arts.Driver.Compiler.rtl ~asm:arts.Driver.Compiler.asm )
    | Error e -> failwith ("serve set-up: " ^ e)
  in
  let pick off n = Array.map reference (Array.sub mix off n) in
  let warm = pick 0 n_warm and rtl = pick n_warm n_rtl in
  let cold = pick (n_warm + n_rtl) (min n_cold (Array.length mix - n_warm - n_rtl)) in
  let d = start ~dir in
  let e =
    {
      d;
      conns = Array.init connections (fun _ -> connect d);
      warm;
      rtl;
      cold;
      rng = Random.State.make [| seed; 9 |];
      self_test = false;
      rtl_next = 0;
      cold_next = 0;
      rss_after_setup = nan;
    }
  in
  let prime =
    Array.map
      (fun (source, s) ->
        { due = 0.; tier = Cold; source; expect = expect_of e ~source s })
      (Array.append warm rtl)
  in
  let ph = run_phase ~stats_every:infinity e prime in
  if ph.failed > 0 then failwith "serve set-up: priming the cache failed";
  Array.iter (fun (source, _) -> Sys.remove (summary_entry e source)) rtl;
  { e with self_test; rss_after_setup = proc_mb d.pid "VmRSS" }

(** How much the daemon's resident set grew since set-up, in MB. *)
let rss_growth (e : env) = proc_mb e.d.pid "VmRSS" -. e.rss_after_setup

let teardown (e : env) =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) e.conns;
  stop e.d

(** Median latency in seconds, and requests per CPU-second of the
    daemon and its workers: the open loop fixes the wall-clock rate, so
    the throughput it reports is the capacity the mix leaves, not the
    rate it was offered. The work runs in the daemon's processes, which
    the calibration pass of {!Stats.read} does not track: over eight
    runs of one seed the pass time moved against the daemon's CPU time.
    So both stay unscaled. *)
let read (ph : phase) = (Stats.median ph.lat, float_of_int ph.attempted /. ph.cpu_s)

(** How much a daemon counter grew during the phase. *)
let counter (ph : phase) name =
  let get kvs = Option.value ~default:0. (List.assoc_opt name kvs) in
  get ph.counters -. get ph.counters0
