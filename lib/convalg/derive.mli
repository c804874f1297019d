(** The derivation engine reproducing the proof of Theorem 3.8
    (paper §5, Figs. 10–11): vertical composition of Table 3's per-pass
    conventions, insertion of the Clight/Asm parametricity pseudo-passes
    (Thm. 4.3 + 5.6), and direction- and type-checked rewriting to the
    uniform convention [C]. *)

open Cterm

type step = {
  step_desc : string;
  step_cite : string;  (** paper citation justifying the step *)
  step_term : t;  (** term after the step *)
}

type trace = { initial : t; steps : step list; final : t }

val pp_trace : Format.formatter -> trace -> unit

(** One rewriting step (leftmost position, first usable rule);
    [None] = normal form. *)
val rewrite_once : [ `Incoming | `Outgoing ] -> t -> (Rules.rule * t) option

(** Normalize, stopping at [uniform_c] or a normal form. *)
val normalize : [ `Incoming | `Outgoing ] -> t -> t * step list

(** One row of Table 3: a pass with its languages and conventions. *)
type pass_info = {
  pass_name : string;
  pass_source : string;
  pass_target : string;
  outgoing : t;
  incoming : t;
  optional : bool;
}

(** Vertical composition of the per-pass conventions (Thm. 3.7). *)
val composite : pass_info list -> [ `In | `Out ] -> t

type side_derivation = {
  side : [ `Incoming | `Outgoing ];
  trace : trace;
  ok : bool;  (** reached the uniform convention [C] *)
}

val derive_side : pass_info list -> [ `Incoming | `Outgoing ] -> side_derivation

(** Both sides of the Theorem 3.8 derivation over the given passes. *)
val thm_3_8 : pass_info list -> side_derivation * side_derivation

val pp_side : Format.formatter -> side_derivation -> unit
