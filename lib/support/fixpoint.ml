(** Worklist fixpoint engine over dense flow graphs.

    This is the analogue of CompCert's [Kildall] library. Nodes are
    small non-negative integers (RTL nodes are allocated from 1), so a
    graph is two flat arrays in compressed rows, built once per
    function, and the engine's queue and membership flags are arrays
    too: a visit allocates nothing. The facts belong to the analysis,
    which joins them ({!forward}), so the engine never compares or
    copies one. *)

type graph = { first : int array; succ : int array }

let size g = Array.length g.first - 1

(* The predecessor rows of [g], by two passes: count each node's
   predecessors into the slot after its own and sum the counts up, so
   that [first.(m)] is where [m]'s row starts; then fill each row
   through [first.(m)] as its cursor, which leaves it at the start of
   the next row, and shift back. *)
let reverse (g : graph) : graph =
  let size = size g in
  let first = Array.make (size + 1) 0 in
  Array.iter (fun m -> if m >= 0 && m < size then first.(m + 1) <- first.(m + 1) + 1) g.succ;
  for n = 1 to size do
    first.(n) <- first.(n) + first.(n - 1)
  done;
  let pred = Array.make first.(size) 0 in
  for n = 0 to size - 1 do
    for e = g.first.(n) to g.first.(n + 1) - 1 do
      let m = g.succ.(e) in
      if m >= 0 && m < size then begin
        pred.(first.(m)) <- n;
        first.(m) <- first.(m) + 1
      end
    done
  done;
  for n = size downto 1 do
    first.(n) <- first.(n - 1)
  done;
  first.(0) <- 0;
  { first; succ = pred }

(* Into [order], the nodes of [g] in depth-first postorder: a search
   from each node, in increasing order, that no earlier search reached.
   [seen] starts all clear and ends all set. The search recurses along
   its path, as the other walks over code do. *)
let postorder (g : graph) (order : int array) (seen : Bytes.t) =
  let size = size g in
  let k = ref 0 in
  let rec search n =
    Bytes.set seen n '\001';
    for e = g.first.(n) to g.first.(n + 1) - 1 do
      let m = g.succ.(e) in
      if m >= 0 && m < size && Bytes.get seen m = '\000' then search m
    done;
    order.(!k) <- n;
    incr k
  in
  for root = 0 to size - 1 do
    if Bytes.get seen root = '\000' then search root
  done

(* The worklist over [g]: [queue] holds every node, in the order of
   their first visits, and [queued] is all set. The queue holds each
   node at most once, so a ring of [size + 1] slots never overflows. *)
let run (g : graph) queue queued ~visit ~flow =
  let size = size g in
  let ring = size + 1 in
  let head = ref 0 and tail = ref size in
  while !head <> !tail do
    let n = queue.(!head) in
    head := if !head + 1 = ring then 0 else !head + 1;
    Bytes.set queued n '\000';
    visit n;
    for e = g.first.(n) to g.first.(n + 1) - 1 do
      let m = g.succ.(e) in
      if m >= 0 && m < size && flow n m && Bytes.get queued m = '\000' then begin
        Bytes.set queued m '\001';
        queue.(!tail) <- m;
        tail := if !tail + 1 = ring then 0 else !tail + 1
      end
    done
  done

(* A node comes after its predecessors in reverse postorder, and after
   its successors in postorder, except across the edges that close
   loops. *)
let forward g ~visit ~flow =
  let size = size g in
  let queue = Array.make (size + 1) 0 and queued = Bytes.make size '\000' in
  postorder g queue queued;
  for k = 0 to (size / 2) - 1 do
    let n = queue.(k) in
    queue.(k) <- queue.(size - 1 - k);
    queue.(size - 1 - k) <- n
  done;
  run g queue queued ~visit ~flow

let backward g ~visit ~flow =
  let size = size g in
  let queue = Array.make (size + 1) 0 and queued = Bytes.make size '\000' in
  postorder g queue queued;
  run (reverse g) queue queued ~visit ~flow
