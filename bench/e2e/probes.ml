(** Probes of the layers outside the interpreter and the compiler, run
    at the end of every traced run: process isolation (fork, pipe, reap)
    and the [occo] command-line tool. *)

(** [Harness.Worker.run] of a job that does nothing, in seconds. *)
let fork_reap ~n : Stats.t =
  let s = Stats.create () in
  for _ = 1 to n do
    let t0 = Stats.now () in
    (match Harness.Worker.run (fun () -> Ok ()) with
    | Harness.Worker.Returned (Ok ()) -> ()
    | _ -> failwith "a no-op worker did not return");
    Stats.add s (Stats.now () -. t0)
  done;
  s

(** [occo compile FILE] as a process, its output discarded, in seconds. *)
let cli ~files ~n : Stats.t =
  let s = Stats.create () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      for i = 0 to n - 1 do
        let file = List.nth files (i mod List.length files) in
        let t0 = Stats.now () in
        let pid =
          Unix.create_process Serve_load.occo
            [| Serve_load.occo; "compile"; file |]
            Unix.stdin null null
        in
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith ("occo compile failed on " ^ file));
        Stats.add s (Stats.now () -. t0)
      done);
  s
