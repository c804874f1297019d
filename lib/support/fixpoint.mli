(** Worklist fixpoint engine over dense flow graphs (the analogue of
    CompCert's [Kildall]); liveness and value analysis run on it. *)

(** A flow graph over the nodes [0 .. size - 1], in compressed rows:
    node [n]'s successors are [succ.(first.(n))] to
    [succ.(first.(n + 1) - 1)], in that order, and [size] is
    [Array.length first - 1]. A successor outside the nodes (-1, say)
    is no successor: there is nothing to analyze there. It is built
    once per function. *)
type graph = { first : int array; succ : int array }

(** The number of nodes. *)
val size : graph -> int

(** The facts live with the client, one per node. [forward g ~visit
    ~flow] runs the worklist: it visits every node of [g] once, and
    again each time its fact has grown since its last visit. A visit of
    [n] calls [visit n] once, then [flow n m] for each successor [m] of
    [n]; [flow n m] joins the fact that leaves [n] into [m]'s and says
    whether [m]'s grew. With monotone transfers over lattices of finite
    height, the facts reach the least solution of the constraints the
    flows state, whatever the order of the visits. The first visits run
    in reverse postorder of a depth-first search, so that most nodes
    are visited once, with every fact that reaches them already in. *)
val forward : graph -> visit:(int -> unit) -> flow:(int -> int -> bool) -> unit

(** The same over the predecessors, for an analysis whose facts flow
    backward: the first visits run in postorder, and [flow n p] joins
    into each predecessor [p] of [n]. *)
val backward : graph -> visit:(int -> unit) -> flow:(int -> int -> bool) -> unit
