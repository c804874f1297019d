(** Cross-process telemetry snapshot (ISSUE 6 tentpole, part 1).

    A forked worker is an observability black hole unless what it
    recorded crosses its interface: in CompCertO's terms, a component is
    characterized entirely by its interactions with the environment, and
    a worker's only interaction is the marshaled payload on its result
    pipe plus an exit status. So the worker's whole telemetry state —
    its finished span forest and its full metrics registry — is captured
    into this plain, marshalable value and shipped over the same pipe,
    riding alongside the job result.

    The parent {!merge}s it on reap: counters add, gauges
    last-write-wins, histogram sketches merge bucket-wise
    ({!Metrics.absorb}), and the worker's spans graft into the parent
    trace under the worker's real pid ({!Trace.graft}), so
    [Trace.export_chrome] renders one lane per worker. *)

type t = {
  sn_pid : int;  (** the recording process: its Chrome-trace lane *)
  sn_spans : Trace.span list;  (** finished top-level spans, oldest first *)
  sn_metrics : Metrics.snap;
}

(** Capture this process's telemetry state. Spans still open at capture
    time are not included (a worker captures after its job span has
    closed, so in practice nothing is lost). *)
let capture () : t =
  {
    sn_pid = Unix.getpid ();
    sn_spans = Trace.roots ();
    sn_metrics = Metrics.snapshot ();
  }

(** Fold a snapshot into this process's sinks. [pid] overrides the lane
    the spans graft under (default: the recording process's pid). *)
let merge ?pid (s : t) : unit =
  Trace.graft ~pid:(Option.value pid ~default:s.sn_pid) s.sn_spans;
  Metrics.absorb s.sn_metrics
