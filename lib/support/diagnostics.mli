(** Structured diagnostics: the error taxonomy used by the hardened
    driver, the runners and the [occo] CLI. Each diagnostic records the
    lifecycle phase, the kind of failure, the pass (when known), a
    message, and free-form context — so failures are reported as data
    rather than as uncaught exceptions. *)

type phase =
  | Parsing
  | Frontend
  | Middle
  | Backend
  | Linking
  | Running
  | Campaign
  | Batch
  | Service

type kind =
  | Lexical_error
  | Syntax_error
  | Pass_failure
  | Validation_failure
  | Budget_exceeded
  | Marshal_failure
  | Oracle_refusal
  | Oracle_violation
  | Resource_exhausted
  | Internal_error
  | Job_crashed
  | Job_timeout
  | Circuit_open
  | Domain_overlap
  | Cache_corrupt
  | Poisoned
  | Overloaded
  | Deadline_exceeded

type t = {
  phase : phase;
  kind : kind;
  pass : string option;
  message : string;
  context : (string * string) list;
}

type 'a r = ('a, t) result

val phase_name : phase -> string
val kind_name : kind -> string

(** Is retrying a failure of this kind worthwhile? True for crashes,
    timeouts and exhausted budgets/resources; false for deterministic
    rejections (and for [Circuit_open], which must fail fast). *)
val is_transient : kind -> bool

(** [make ~phase ~kind fmt ...] builds a diagnostic with a formatted
    message. *)
val make :
  ?pass:string ->
  ?context:(string * string) list ->
  phase:phase ->
  kind:kind ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

(** [error] is [make] wrapped in [Error]. *)
val error :
  ?pass:string ->
  ?context:(string * string) list ->
  phase:phase ->
  kind:kind ->
  ('a, Format.formatter, unit, 'b r) format4 ->
  'a

(** Capture a caught exception as an [Internal_error] diagnostic. *)
val of_exn : ?pass:string -> phase:phase -> exn -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Downgrade to the plain-string error monad. *)
val to_errors : 'a r -> 'a Errors.t

(** Upgrade a plain [Errors.t] failure into a diagnostic. *)
val of_errors : ?pass:string -> phase:phase -> kind:kind -> 'a Errors.t -> 'a r

val ( let* ) : 'a r -> ('a -> 'b r) -> 'b r
