(** Structured diagnostics for the driver, runners and CLI.

    The error monad of {!Errors} carries a bare string, which is enough
    for a pass to say {e why} it failed but not for the driver to say
    {e where}: which pass, in which phase of the pipeline, under what
    circumstances. A [Diagnostics.t] carries that context, so the
    hardened driver ([Compiler.compile_diag]), the campaign runner and
    [occo] can report a failure — including a caught exception or an
    exceeded per-pass budget — as data rather than as an abort with a
    raw backtrace. *)

(** Where in the lifecycle the failure happened. *)
type phase =
  | Parsing  (** lexing / parsing the C source *)
  | Frontend  (** SimplLocals through Cminorgen *)
  | Middle  (** Selection through the RTL optimizations *)
  | Backend  (** Allocation through Asmgen *)
  | Linking  (** syntactic linking *)
  | Running  (** executing a semantics / marshaling a query *)
  | Campaign  (** the fault-injection campaign harness *)
  | Batch  (** the supervised batch-execution layer *)
  | Service  (** the long-running compile service ([occo serve]) *)

(** What kind of failure it was. *)
type kind =
  | Lexical_error
  | Syntax_error
  | Pass_failure  (** a pass returned [Error] *)
  | Validation_failure  (** a translation validator rejected the output *)
  | Budget_exceeded  (** a pass exceeded its wall-clock budget *)
  | Marshal_failure  (** a simulation convention could not carry a query/reply *)
  | Oracle_refusal  (** the environment refused an external call *)
  | Oracle_violation  (** the environment answered outside the convention *)
  | Resource_exhausted  (** fuel or another bounded resource ran out *)
  | Internal_error  (** a caught exception: a bug in the compiler itself *)
  | Job_crashed  (** a supervised worker process died (signal or bad exit) *)
  | Job_timeout  (** a supervised worker exceeded its wall-clock limit *)
  | Circuit_open  (** the job was shed: its class's circuit breaker is open *)
  | Domain_overlap
      (** two horizontally composed components both accept the same
          question — linked programs must have disjoint domains, so the
          routing choice would silently mask a linker error *)
  | Cache_corrupt
      (** an on-disk artifact-cache entry failed its checksum on read;
          the entry was quarantined and the artifact re-derived *)
  | Poisoned
      (** the request crashed its workers repeatedly and was quarantined
          — it will not be retried into a crash loop *)
  | Overloaded  (** the service queue is full; the request was shed *)
  | Deadline_exceeded
      (** the request's end-to-end deadline passed before a worker
          could finish it *)

type t = {
  phase : phase;
  kind : kind;
  pass : string option;  (** the pass or component that failed, if known *)
  message : string;
  context : (string * string) list;  (** free-form key/value details *)
}

(** Results diagnosed with structured errors. *)
type 'a r = ('a, t) result

let phase_name = function
  | Parsing -> "parsing"
  | Frontend -> "frontend"
  | Middle -> "middle"
  | Backend -> "backend"
  | Linking -> "linking"
  | Running -> "running"
  | Campaign -> "campaign"
  | Batch -> "batch"
  | Service -> "service"

let kind_name = function
  | Lexical_error -> "lexical-error"
  | Syntax_error -> "syntax-error"
  | Pass_failure -> "pass-failure"
  | Validation_failure -> "validation-failure"
  | Budget_exceeded -> "budget-exceeded"
  | Marshal_failure -> "marshal-failure"
  | Oracle_refusal -> "oracle-refusal"
  | Oracle_violation -> "oracle-violation"
  | Resource_exhausted -> "resource-exhausted"
  | Internal_error -> "internal-error"
  | Job_crashed -> "job-crashed"
  | Job_timeout -> "job-timeout"
  | Circuit_open -> "circuit-open"
  | Domain_overlap -> "domain-overlap"
  | Cache_corrupt -> "cache-corrupt"
  | Poisoned -> "poisoned"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline-exceeded"

(** Transient failure classes: ones where retrying the same job can
    plausibly succeed (a slow machine, a transiently loaded box, an
    OOM-killed or wedged worker whose next incarnation draws a fresh
    address space). Deterministic rejections — a pass returning
    [Error], a validator refusal, a syntax error — are not transient:
    retrying them only burns the backoff schedule. [Circuit_open] is
    deliberately not transient either; shed load must fail fast, the
    breaker's half-open probe is the retry mechanism. *)
let is_transient = function
  | Budget_exceeded | Resource_exhausted | Job_crashed | Job_timeout
  | Cache_corrupt ->
    (* A corrupt cache entry is quarantined on detection, so the retry
       recompiles from scratch — it can plausibly succeed. *)
    true
  | Lexical_error | Syntax_error | Pass_failure | Validation_failure
  | Marshal_failure | Oracle_refusal | Oracle_violation | Internal_error
  | Circuit_open | Domain_overlap | Poisoned | Overloaded
  | Deadline_exceeded ->
    (* Poisoned requests must never re-enter the crash loop; shed load
       and blown deadlines must fail fast — the client decides. *)
    false

let make ?pass ?(context = []) ~phase ~kind fmt =
  Format.kasprintf
    (fun message -> { phase; kind; pass; message; context })
    fmt

let error ?pass ?context ~phase ~kind fmt =
  Format.kasprintf
    (fun message ->
      Error
        {
          phase;
          kind;
          pass;
          message;
          context = Option.value context ~default:[];
        })
    fmt

(** Capture an exception as an [Internal_error] diagnostic. The
    backtrace is folded into the context, never printed raw. *)
let of_exn ?pass ~phase (e : exn) : t =
  {
    phase;
    kind = Internal_error;
    pass;
    message = Printexc.to_string e;
    context = [ ("exception", Printexc.to_string e) ];
  }

let pp fmt (d : t) =
  Format.fprintf fmt "[%s/%s]%s %s" (phase_name d.phase) (kind_name d.kind)
    (match d.pass with Some p -> " " ^ p ^ ":" | None -> "")
    d.message;
  match d.context with
  | [] -> ()
  | ctx ->
    Format.fprintf fmt " (%s)"
      (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) ctx))

let to_string (d : t) = Format.asprintf "%a" pp d

(** Downgrade to the plain-string error monad of {!Errors}. *)
let to_errors (r : 'a r) : 'a Errors.t =
  match r with Ok x -> Ok x | Error d -> Error (to_string d)

(** Upgrade a plain [Errors.t] failure into a diagnostic. *)
let of_errors ?pass ~phase ~kind (r : 'a Errors.t) : 'a r =
  match r with
  | Ok x -> Ok x
  | Error msg -> Error { phase; kind; pass; message = msg; context = [] }

let ( let* ) m f = match m with Ok x -> f x | Error _ as e -> e
