(** Interaction recorder: a replayable log of what happens at the
    interaction points of an LTS run.

    The paper's semantics only *mean* anything at interaction points —
    incoming questions, outgoing calls and their replies, final answers
    (§2) — but [Smallstep.run] discards all of that and keeps the
    outcome. This log is the executable counterpart of the paper's
    interaction traces: [Obs_lts.run] (in [Core]) records each of these
    events of a run here, already rendered to strings so this module
    stays independent of the language-interface types.

    Events are recorded in order; [Steps] counts the silent internal
    steps executed since the previous interaction point. A run's last
    events are [Fuel_consumed] and, when the fuel ran out,
    [Out_of_fuel]. *)

type event =
  | Question of string  (** incoming question activating the LTS *)
  | Steps of int  (** internal steps since the last interaction point *)
  | Call of string  (** outgoing question to the environment *)
  | Reply of string  (** environment's answer, resuming the LTS *)
  | Final of string  (** final answer; the run is over *)
  | Stuck  (** no step, no interaction: undefined behavior *)
  | Out_of_fuel
  | Fuel_consumed of int  (** total fuel a completed run burned *)
  | Service of string
      (** a service-level state transition (e.g. a circuit breaker
          opening/closing in the batch supervisor) — the harness's own
          interactions with its environment, logged in the same stream
          as the LTS's *)

let log : event list ref = ref []

let reset () = log := []
let record ev = if !Control.enabled then log := ev :: !log

(** Recorded events, oldest first. *)
let events () = List.rev !log

let event_to_json = function
  | Question q -> Json.Obj [ ("event", Json.Str "question"); ("payload", Json.Str q) ]
  | Steps n -> Json.Obj [ ("event", Json.Str "steps"); ("count", Json.num_of_int n) ]
  | Call q -> Json.Obj [ ("event", Json.Str "call"); ("payload", Json.Str q) ]
  | Reply r -> Json.Obj [ ("event", Json.Str "reply"); ("payload", Json.Str r) ]
  | Final r -> Json.Obj [ ("event", Json.Str "final"); ("payload", Json.Str r) ]
  | Stuck -> Json.Obj [ ("event", Json.Str "stuck") ]
  | Out_of_fuel -> Json.Obj [ ("event", Json.Str "out_of_fuel") ]
  | Fuel_consumed n ->
    Json.Obj [ ("event", Json.Str "fuel_consumed"); ("count", Json.num_of_int n) ]
  | Service s -> Json.Obj [ ("event", Json.Str "service"); ("payload", Json.Str s) ]

let to_json () = Json.List (List.map event_to_json (events ()))

let pp_event fmt = function
  | Question q -> Format.fprintf fmt "? %s" q
  | Steps n -> Format.fprintf fmt ". %d internal steps" n
  | Call q -> Format.fprintf fmt "! call %s" q
  | Reply r -> Format.fprintf fmt "< reply %s" r
  | Final r -> Format.fprintf fmt "= final %s" r
  | Stuck -> Format.fprintf fmt "# stuck"
  | Out_of_fuel -> Format.fprintf fmt "# out of fuel"
  | Fuel_consumed n -> Format.fprintf fmt "~ %d fuel consumed" n
  | Service s -> Format.fprintf fmt "@@ %s" s

let pp fmt () =
  List.iter (fun ev -> Format.fprintf fmt "%a@." pp_event ev) (events ())
