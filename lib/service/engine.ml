(** The compile engine behind the service: one request, compiled
    through the content-addressed cache at pass granularity.

    Lookup order, cheapest first:

    + {e summary hit} — the JSON summary of a previous full compile.
      Nothing runs; this is the warm path (and the only one the daemon
      takes in-process: everything that compiles runs in a worker).
    + {e rtl hit} — the optimized RTL program of a previous compile
      by this build of occo, in this daemon or an earlier one. Only the
      backend re-runs
      ({!Driver.Compiler.backend_from_rtl}, register-allocation
      validator included), and the summary is re-stored.
    + {e miss} — the full pipeline runs; both the RTL program and the
      summary are stored for the next request.

    Corrupt entries surface as [`Corrupt] from {!Cache.get}, which has
    already quarantined them — the engine just falls through to the
    next-cheapest derivation, so corruption costs one recompile, never
    a wrong answer. *)

module Json = Obs.Json
module Diag = Support.Diagnostics
module Compiler = Driver.Compiler
module Sizes = Driver.Sizes

(** The options component of a cache key. Requests only choose the
    optimization level, so two tags suffice; anything finer-grained
    later (per-pass toggles) extends this string. *)
let options_tag ~(optimize : bool) : string = if optimize then "O2" else "O0"

(** How the request was satisfied; [er_summary] is the reply payload. *)
type result = {
  er_summary : Json.t;
  er_cache : string;  (** ["hit"] (summary), ["rtl"] (backend only), ["miss"] *)
  er_optimized : bool;
}

let summary_json ~key ~optimize ~(rtl : Middle.Rtl.program)
    ~(asm : Backend.Asm.program) : Json.t =
  let r = Sizes.rtl rtl and a = Sizes.asm asm in
  Json.Obj
    [
      ("key", Json.Str key);
      ("optimized", Json.Bool optimize);
      ("functions", Json.num_of_int a.Sizes.functions);
      ("rtl_size", Json.num_of_int r.Sizes.size);
      ("asm_size", Json.num_of_int a.Sizes.size);
    ]

let put_summary cache ~key ~opts (j : Json.t) =
  Cache.put cache ~key ~pass:"summary" ~opts ~payload:(Json.to_string j)

(* [Marshal] checks no types: an RTL entry written by another build of
   occo can crash every worker that reads it, until the request is
   poisoned. RTL entries are named after the running executable (size
   and modification time), so another build misses them. *)
let rtl_pass () =
  match Unix.stat Sys.executable_name with
  | st -> Printf.sprintf "rtl-%d-%.0f" st.Unix.st_size (st.Unix.st_mtime *. 1e6)
  | exception Unix.Unix_error _ -> "rtl"

let put_rtl cache ~key ~opts (rtl : Middle.Rtl.program) =
  Cache.put cache ~key ~pass:(rtl_pass ()) ~opts
    ~payload:(Marshal.to_string rtl [])

(** The summary-only probe, cheap enough for the daemon process itself
    (pure JSON, no compiling). [None] means "not warm — schedule it". *)
let lookup_summary cache ~(source : string) ~(optimize : bool) : Json.t option
    =
  let key = Cache.key_of ~source in
  let opts = options_tag ~optimize in
  match Cache.get cache ~key ~pass:"summary" ~opts with
  | `Hit payload -> Json.parse_opt payload
  | `Miss | `Corrupt ->
    (* A corrupt entry is already quarantined; the caller re-derives. *)
    None

(** Compile [source], going through the cache at every pass boundary.
    Runs inside a worker; results are plain data, marshalable back over
    the result pipe. *)
let compile_cached (cache : Cache.t) ~(source : string) ~(optimize : bool)
    ?budget_us () : (result, Diag.t) Stdlib.result =
  let key = Cache.key_of ~source in
  let opts = options_tag ~optimize in
  let options = if optimize then Compiler.all_optims else Compiler.no_optims in
  match Cache.get cache ~key ~pass:"summary" ~opts with
  | `Hit payload when Json.parse_opt payload <> None ->
    Obs.Metrics.incr_counter "serve.cache.hit";
    Ok
      {
        er_summary = Option.get (Json.parse_opt payload);
        er_cache = "hit";
        er_optimized = optimize;
      }
  | `Hit _ | `Miss | `Corrupt -> (
    (* Try to resume from the cached optimized RTL: only the backend
       (with its validators) re-runs. *)
    let from_rtl =
      match Cache.get cache ~key ~pass:(rtl_pass ()) ~opts with
      | `Hit payload -> (
        match (Marshal.from_string payload 0 : Middle.Rtl.program) with
        | rtl -> (
          match Compiler.backend_from_rtl rtl with
          | Ok (_, asm) -> Some (rtl, asm)
          | Error _ -> None)
        | exception _ -> None)
      | `Miss | `Corrupt -> None
    in
    match from_rtl with
    | Some (rtl, asm) ->
      Obs.Metrics.incr_counter "serve.cache.rtl_hit";
      let s = summary_json ~key ~optimize ~rtl ~asm in
      put_summary cache ~key ~opts s;
      Ok { er_summary = s; er_cache = "rtl"; er_optimized = optimize }
    | None -> (
      Obs.Metrics.incr_counter "serve.cache.miss";
      match Compiler.compile_source_diag ~options ?budget_us source with
      | Ok arts ->
        let rtl = arts.Compiler.rtl and asm = arts.Compiler.asm in
        let s = summary_json ~key ~optimize ~rtl ~asm in
        put_rtl cache ~key ~opts rtl;
        put_summary cache ~key ~opts s;
        Ok { er_summary = s; er_cache = "miss"; er_optimized = optimize }
      | Error f -> Error f.Compiler.fail_diag))
