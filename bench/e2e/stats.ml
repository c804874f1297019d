(** Raw samples and exact order statistics.

    Every quantile the benchmark reports is read from the sorted raw
    samples, never from the [Obs.Metrics] sketches, whose buckets are 20%
    wide. *)

(** Monotonic wall clock, in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = { mutable xs : float array; mutable n : int }

let create () = { xs = Array.make 256 0.; n = 0 }

let add t x =
  if t.n = Array.length t.xs then begin
    let xs = Array.make (2 * t.n) 0. in
    Array.blit t.xs 0 xs 0 t.n;
    t.xs <- xs
  end;
  t.xs.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n
let sum t = Array.fold_left ( +. ) 0. (Array.sub t.xs 0 t.n)
let mean t = if t.n = 0 then nan else sum t /. float_of_int t.n

(** Nearest-rank quantile of the samples ([nan] when there are none). *)
let quantile t q =
  if t.n = 0 then nan
  else begin
    let s = Array.sub t.xs 0 t.n in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (q *. float_of_int t.n)) in
    s.(max 0 (min (t.n - 1) (rank - 1)))
  end

let median t = quantile t 0.5

(** The median of a list of values (used for repeated set-ups). *)
let median_of (xs : float list) =
  let t = create () in
  List.iter (add t) xs;
  median t

(** {1 Reading a phase on a shared machine}

    On the shared 2-vCPU KVM guest this benchmark was tuned on, other
    guests contend for cache and memory bandwidth: allocation-heavy code
    runs up to 1.8 times slower, for seconds or minutes at a time, while
    register-only code barely changes. A median in milliseconds then
    moves by 20% from run to run. So every closed-loop phase interleaves
    a fixed calibration pass (allocation-heavy OCaml that uses none of
    this repository's code) every 100 ms, and timings are reported in
    reference milliseconds ([ref_ms]): each op's time divided by the
    median pass time of its one-second window. A change that slows the
    code under test leaves the calibration pass alone and shows in full.
    On top of that, the slower half of the windows is left out, which
    drops what the calibration did not track, such as a descheduled
    vCPU. (The serve workload's work runs in the daemon's processes,
    which a pass in this process does not track.) *)

module Int_map = Map.Make (Int)

let calibration_pass () =
  let m = ref Int_map.empty in
  for i = 1 to 8_000 do
    m := Int_map.add (i * 7919 land 65535) i !m
  done;
  ignore (Sys.opaque_identity !m)

(** The pass time that defines a reference millisecond. A pass takes
    1.0 to 1.8 ms on the reference machine, depending on the host's
    load. *)
let reference_pass_s = 0.001

(* Empty the minor heap, so that a pass never pays for collecting the
   workload's garbage, then run one pass; returns its start and end. *)
let timed_pass () =
  Gc.minor ();
  let t0 = now () in
  calibration_pass ();
  (t0, now ())

type calibration = {
  c_at : t;  (** when each pass started, seconds into the phase *)
  c_dt : t;  (** how long it took *)
  mutable c_last : float;
}

let calibration () = { c_at = create (); c_dt = create (); c_last = neg_infinity }

(** Run a pass if the last one ended 100 ms ago or more; [since] is the
    phase start. *)
let calibrate (c : calibration) ~since =
  if now () -. c.c_last >= 0.1 then begin
    let t0, t1 = timed_pass () in
    add c.c_at (t0 -. since);
    add c.c_dt (t1 -. t0);
    c.c_last <- t1
  end

(** Run [f] between five passes before and five after; returns its
    result and its wall time in reference seconds, scaled by the median
    of the ten passes. *)
let in_reference_s f =
  let passes () =
    List.init 5 (fun _ ->
        let t0, t1 = timed_pass () in
        t1 -. t0)
  in
  let before = passes () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  (r, dt *. reference_pass_s /. median_of (before @ passes ()))

let window_s = 1.

(* The samples of [xs] grouped by the whole one-second window their
   start time [at] (seconds into the phase) falls in. *)
let windows ~(at : t) (xs : t) : t array =
  let last = Array.fold_left Float.max 0. (Array.sub at.xs 0 at.n) in
  let ws = Array.init (int_of_float (last /. window_s)) (fun _ -> create ()) in
  for i = 0 to xs.n - 1 do
    let w = int_of_float (at.xs.(i) /. window_s) in
    if w < Array.length ws then add ws.(w) xs.xs.(i)
  done;
  ws

let map f t =
  let out = create () in
  for i = 0 to t.n - 1 do
    add out (f t.xs.(i))
  done;
  out

(* The faster half of [ws], ranked by [cost]. *)
let faster_half ~cost (ws : 'a array) : 'a list =
  let ranked = Array.map (fun w -> (cost w, w)) ws in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) ranked;
  List.init ((Array.length ws + 1) / 2) (fun k -> snd ranked.(k))

(** The median op time (reference seconds) and ops per reference second
    of a phase whose ops took [xs] seconds and started (or were due) at
    [at]; [elapsed] is the phase's length. A phase under two seconds is
    read whole. *)
let read (c : calibration) ~at ~elapsed (xs : t) : float * float =
  let ws = windows ~at xs in
  let overall = median c.c_dt in
  if Array.length ws < 2 then
    ( median xs *. reference_pass_s /. overall,
      float_of_int xs.n /. elapsed *. overall /. reference_pass_s )
  else begin
    let passes = windows ~at:c.c_at c.c_dt in
    let pass w =
      if w < Array.length passes && passes.(w).n > 0 then median passes.(w) else overall
    in
    let scaled =
      Array.mapi (fun w x -> map (fun v -> v *. reference_pass_s /. pass w) x) ws
    in
    let quiet = create () in
    List.iter
      (fun w -> for i = 0 to w.n - 1 do add quiet w.xs.(i) done)
      (faster_half ~cost:median scaled);
    let rates =
      Array.mapi
        (fun w x -> float_of_int x.n /. window_s *. pass w /. reference_pass_s)
        ws
    in
    let kept = faster_half ~cost:Float.neg rates in
    (median quiet, List.fold_left ( +. ) 0. kept /. float_of_int (List.length kept))
  end
