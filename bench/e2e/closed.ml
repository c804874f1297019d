(** The closed loop: one client, each op starts as soon as the previous
    one returned, so a slower system receives less load. *)

type t = {
  items : int;  (** distinct inputs; op [i] uses input [i mod items] *)
  op : int -> bool;  (** the user path; [true] when its output is correct *)
  op_traced : int -> bool;  (** the same op, its layer calls timed *)
}

type phase = {
  lat : Stats.t;  (** seconds per op *)
  starts : Stats.t;  (** when each op started, seconds into the phase *)
  cal : Stats.calibration;
  gaps : Stats.t;  (** seconds the loop spent between two ops, calibration aside *)
  attempted : int;
  failed : int;
  elapsed : float;
  words : (int, float) Hashtbl.t;
      (** minor words of each input's first op in the phase *)
}

(** Run ops from index [start] for [seconds]; returns the phase and the
    next index. *)
let run ?(traced = false) ~seconds ~start (w : t) : phase * int =
  let op = if traced then w.op_traced else w.op in
  let lat = Stats.create () and starts = Stats.create () and gaps = Stats.create () in
  let words = Hashtbl.create 64 in
  let failed = ref 0 and i = ref start in
  let cal = Stats.calibration () in
  let t_start = Stats.now () in
  let t_end = t_start +. seconds in
  let last = ref t_start in
  while !last < t_end do
    Stats.add gaps (Stats.now () -. !last);
    Stats.calibrate cal ~since:t_start;
    let item = !i mod w.items in
    let measure_words = (not traced) && not (Hashtbl.mem words item) in
    let w0 = if measure_words then Gc.minor_words () else 0. in
    let t0 = Stats.now () in
    let ok = op !i in
    let t1 = Stats.now () in
    if measure_words then Hashtbl.replace words item (Gc.minor_words () -. w0);
    Stats.add starts (t0 -. t_start);
    Stats.add lat (t1 -. t0);
    if not ok then incr failed;
    incr i;
    last := t1
  done;
  ( {
      lat;
      starts;
      cal;
      gaps;
      attempted = !i - start;
      failed = !failed;
      elapsed = !last -. t_start;
      words;
    },
    !i )

(** Mean minor words of one op, over the inputs the phase measured. *)
let words_per_op (ph : phase) =
  Hashtbl.fold (fun _ v acc -> acc +. v) ph.words 0.
  /. float_of_int (max 1 (Hashtbl.length ph.words))

(** Median op time (reference seconds) and ops per reference second. *)
let read (ph : phase) =
  Stats.read ph.cal ~at:ph.starts ~elapsed:ph.elapsed ph.lat
