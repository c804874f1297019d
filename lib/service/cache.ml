(** Content-addressed on-disk artifact cache for the compile service.

    One entry per [(source hash, pass, options)] triple, at pass
    granularity: the full-pipeline result (a portable JSON summary, the
    reply payload of a warm hit) and the optimized RTL program (the
    resume point for {!Driver.Compiler.backend_from_rtl}, so a request
    whose downstream artifacts were lost re-derives only the backend).

    Robustness is the design center, in this order:

    - {e atomic writes}: an entry is written to a temp file in the
      store directory, [fsync]'d, then [rename]'d into place — a
      reader never sees a torn entry, and a crash mid-write leaves at
      worst an orphan temp file (scrubbed by the next {!open_store});
    - {e per-entry checksums}: the first line of an entry is a JSON
      header carrying an MD5 of the payload; {!get} re-hashes the
      payload on every read ({e verify-on-read}) and a mismatch —
      bit-rot, truncation, a hostile edit — {e quarantines} the entry
      (moved aside, never deleted, so it can be triaged) and reports
      [`Corrupt]; the caller re-derives and re-stores.

    Both kinds of entry survive a restart: an identifier is derived from
    its name ({!Support.Ident}), so a marshaled program means the same
    thing to every process of the same build that reads it, and a
    restarted daemon is warm at the summary and the RTL tier alike
    ({!Engine} names RTL entries after the build that wrote them).

    Every read outcome lands in the [serve.cache.*] counters. *)

module Json = Obs.Json

type t = { dir : string }

(** The quarantine corner of the store: corrupt entries are moved here
    (with a unique suffix), never silently deleted. *)
let quarantine_dir (c : t) = Filename.concat c.dir "quarantine"

let key_of ~(source : string) : string = Digest.to_hex (Digest.string source)

let entry_name ~key ~pass ~opts = Printf.sprintf "%s.%s.%s.entry" key pass opts

let entry_path (c : t) ~key ~pass ~opts =
  Filename.concat c.dir (entry_name ~key ~pass ~opts)

let header ~pass ~opts ~payload : Json.t =
  Json.Obj
    [
      ("pass", Json.Str pass);
      ("opts", Json.Str opts);
      ("checksum", Json.Str (Digest.to_hex (Digest.string payload)));
      ("bytes", Json.num_of_int (String.length payload));
    ]

let mkdir_p dir =
  if not (Sys.file_exists dir) then (
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

(* ------------------------------------------------------------------ *)
(* Opening and the rebuild scan                                       *)
(* ------------------------------------------------------------------ *)

(** Open (creating if needed) the store at [dir] and rebuild its index
    by scanning the directory: orphan temp files from a crashed writer
    are scrubbed, entries whose header line does not even parse are
    quarantined immediately, and the entry count lands in the
    [serve.cache.entries] gauge. *)
let open_store (dir : string) : t =
  mkdir_p dir;
  mkdir_p (Filename.concat dir "quarantine");
  let c = { dir } in
  let entries = ref 0 in
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      if Filename.check_suffix name ".tmp" then (
        try Sys.remove path with Sys_error _ -> ())
      else if Filename.check_suffix name ".entry" then begin
        let head_ok =
          match open_in_bin path with
          | exception Sys_error _ -> false
          | ic ->
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                match input_line ic with
                | exception End_of_file -> false
                | line -> Json.parse_opt line <> None)
        in
        if head_ok then incr entries
        else begin
          (* An unreadable header cannot even be checksummed: move it
             aside now rather than failing every future read. *)
          let dst =
            Filename.concat (quarantine_dir c)
              (Printf.sprintf "%s.%.0f" name (Unix.gettimeofday () *. 1e6))
          in
          (try Unix.rename path dst with Unix.Unix_error _ -> ());
          Obs.Metrics.incr_counter "serve.cache.corrupt";
          Format.eprintf
            "occo serve: quarantined corrupt cache entry %s (unparseable \
             header)@."
            name
        end
      end)
    (try Sys.readdir dir with Sys_error _ -> [||]);
  Obs.Metrics.set_gauge "serve.cache.entries" (float_of_int !entries);
  c

(* ------------------------------------------------------------------ *)
(* Writing (atomic: tmp + fsync + rename)                             *)
(* ------------------------------------------------------------------ *)

let write_all fd (s : string) =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(** Store [payload] under [(key, pass, opts)]. The write is atomic and
    durable before [put] returns: temp file in the store directory,
    [fsync], [rename] over the final name (and the directory itself is
    fsync'd, so the rename survives a power cut too). *)
let put (c : t) ~key ~pass ~opts ~(payload : string) : unit =
  let final = entry_path c ~key ~pass ~opts in
  let tmp = Printf.sprintf "%s.%d.tmp" final (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd
        (Json.to_string (header ~pass ~opts ~payload) ^ "\n");
      write_all fd payload;
      Unix.fsync fd);
  Unix.rename tmp final;
  (match Unix.openfile c.dir [ Unix.O_RDONLY ] 0 with
  | dfd ->
    (try Unix.fsync dfd with Unix.Unix_error _ -> ());
    (try Unix.close dfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ());
  Obs.Metrics.incr_counter "serve.cache.writes"

(* ------------------------------------------------------------------ *)
(* Reading (verify-on-read; quarantine on corruption)                 *)
(* ------------------------------------------------------------------ *)

type lookup =
  [ `Hit of string  (** checksum verified; here is the payload *)
  | `Miss  (** no such entry *)
  | `Corrupt  (** checksum mismatch; the entry was quarantined *) ]

let quarantine (c : t) ~path ~why : unit =
  let dst =
    Filename.concat (quarantine_dir c)
      (Printf.sprintf "%s.%.0f" (Filename.basename path)
         (Unix.gettimeofday () *. 1e6))
  in
  (try Unix.rename path dst with Unix.Unix_error _ -> ());
  Obs.Metrics.incr_counter "serve.cache.corrupt";
  Obs.Interaction_log.record
    (Obs.Interaction_log.Service
       (Printf.sprintf "cache: quarantined %s (%s)" (Filename.basename path)
          why));
  (* The greppable quarantine diagnostic the CI smoke asserts on. *)
  Format.eprintf "occo serve: quarantined corrupt cache entry %s (%s)@."
    (Filename.basename path) why

(** Look up [(key, pass, opts)]. A checksum mismatch quarantines the
    entry and returns [`Corrupt] — a corrupt entry is never served and
    never seen twice. *)
let get (c : t) ~key ~pass ~opts : lookup =
  let path = entry_path c ~key ~pass ~opts in
  match open_in_bin path with
  | exception Sys_error _ -> `Miss
  | ic -> (
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file -> None
          | head ->
            let rest_len = in_channel_length ic - pos_in ic in
            let payload = really_input_string ic rest_len in
            Some (head, payload))
    in
    match contents with
    | None ->
      quarantine c ~path ~why:"empty entry";
      `Corrupt
    | Some (head, payload) -> (
      match Json.parse_opt head with
      | None ->
        quarantine c ~path ~why:"unparseable header";
        `Corrupt
      | Some h -> (
        match Option.bind (Json.member "checksum" h) Json.to_str with
        | None ->
          quarantine c ~path ~why:"header carries no checksum";
          `Corrupt
        | Some sum ->
          if Digest.to_hex (Digest.string payload) <> sum then begin
            quarantine c ~path ~why:"checksum mismatch";
            `Corrupt
          end
          else `Hit payload)))

(* ------------------------------------------------------------------ *)
(* Introspection and fault injection                                  *)
(* ------------------------------------------------------------------ *)

let entry_count (c : t) : int =
  Array.fold_left
    (fun n name -> if Filename.check_suffix name ".entry" then n + 1 else n)
    0
    (try Sys.readdir c.dir with Sys_error _ -> [||])

let quarantined_count (c : t) : int =
  Array.length (try Sys.readdir (quarantine_dir c) with Sys_error _ -> [||])

(** Chaos hook ([occo serve --inject-corrupt], also used by tests): flip
    one payload byte of the entry in place, so the next read's
    verify-on-read path must fire. Returns false if the entry does not
    exist. *)
let corrupt_for_test (c : t) ~key ~pass ~opts : bool =
  let path = entry_path c ~key ~pass ~opts in
  match Unix.openfile path [ Unix.O_RDWR ] 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        if size = 0 then false
        else begin
          (* Flip the last byte: always inside the payload region. *)
          ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
          let b = Bytes.create 1 in
          ignore (Unix.read fd b 0 1);
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
          ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
          ignore (Unix.write fd b 0 1);
          true
        end)
