(** The derivation engine reproducing the proof of Theorem 3.8
    (paper §5, Figures 10 and 11).

    Starting from the per-pass simulation conventions of Table 3, as
    the compiler's pipeline is configured, the engine:

    1. composes them vertically (Thm. 3.7 / Thm. 5.2 associativity);
    2. inserts the parametricity self-simulations of Clight and Asm
       (Thm. 4.3, iterated with Thm. 5.6) as pseudo-passes — this is the
       paper's "requirements of most passes on their outgoing calls are
       met using the properties of the source language, inserted as a
       pseudo-pass" (§2.5);
    3. rewrites the composite with the rule database ([Rules.all_rules]),
       each step being a valid refinement in the direction required by
       Thm. 5.2 for the side (incoming/outgoing) being normalized;
    4. checks that the result is the uniform convention
       [C = R* · wt · CL · LM · MA · vainj].

    The recorded trace is a machine-checked (type- and direction-checked)
    derivation; printing it regenerates the content of Figs. 10–11. *)

open Cterm

type step = {
  step_desc : string;  (** what happened *)
  step_cite : string;  (** paper citation *)
  step_term : t;  (** term after the step *)
}

type trace = { initial : t; steps : step list; final : t }

let pp_trace fmt (tr : trace) =
  Format.fprintf fmt "@[<v>start: %a@," pp tr.initial;
  List.iteri
    (fun i s ->
      Format.fprintf fmt "%3d. %-38s [%s]@,     = %a@," (i + 1) s.step_desc
        s.step_cite pp s.step_term)
    tr.steps;
  Format.fprintf fmt "end:   %a@]" pp tr.final

(** Apply the first usable rule at the leftmost position; [None] when the
    term is in normal form. *)
let rewrite_once (dir : [ `Incoming | `Outgoing ]) (t : t) :
    (Rules.rule * t) option =
  let rules = List.filter (Rules.usable dir) Rules.all_rules in
  let rec at_position prefix suffix =
    match suffix with
    | [] -> None
    | _ -> (
      let try_rule (r : Rules.rule) =
        let n = List.length r.Rules.lhs in
        if List.length suffix >= n then
          let seg = List.filteri (fun i _ -> i < n) suffix in
          if seg = r.Rules.lhs then
            Some (r, List.rev_append prefix (r.Rules.rhs @ List.filteri (fun i _ -> i >= n) suffix))
          else None
        else None
      in
      match List.find_map try_rule rules with
      | Some result -> Some result
      | None -> at_position (List.hd suffix :: prefix) (List.tl suffix))
  in
  at_position [] t

let normalize (dir : [ `Incoming | `Outgoing ]) (t : t) : t * step list =
  let rec go t acc fuel =
    if fuel = 0 || equal t uniform_c then (t, List.rev acc)
    else
      match rewrite_once dir t with
      | None -> (t, List.rev acc)
      | Some (r, t') ->
        go t'
          ({ step_desc = r.Rules.rule_name; step_cite = r.Rules.cite; step_term = t' }
          :: acc)
          (fuel - 1)
  in
  go t [] 1000

(** {1 The passes of Table 3} *)

(** One row of Table 3: a pass with its languages and conventions. The
    rows themselves are the compiler's pipeline, which passes them in. *)
type pass_info = {
  pass_name : string;
  pass_source : string;
  pass_target : string;
  outgoing : t;  (** outgoing simulation convention *)
  incoming : t;  (** incoming simulation convention *)
  optional : bool;
}

(** Vertical composition of the per-pass conventions (Thm. 3.7). *)
let composite (passes : pass_info list) side =
  List.concat_map
    (fun pi -> match side with `Out -> pi.outgoing | `In -> pi.incoming)
    passes

(** {1 The Theorem 3.8 derivation} *)

type side_derivation = {
  side : [ `Incoming | `Outgoing ];
  trace : trace;
  ok : bool;  (** reached the uniform convention [C] *)
}

let derive_side (passes : pass_info list) (dir : [ `Incoming | `Outgoing ]) :
    side_derivation =
  let base =
    composite passes (match dir with `Incoming -> `In | `Outgoing -> `Out)
  in
  (* Pseudo-passes: Clight self-simulation at R* (Thm. 4.3 + Thm. 5.6)
     pre-composed, Asm self-simulation at vainj post-composed. *)
  let t0 = (Rstar :: base) @ [ Vainj ] in
  let self_steps =
    [
      {
        step_desc = "pre-compose Clight self-simulation at R*";
        step_cite = "Thm. 4.3 + Thm. 5.6";
        step_term = Rstar :: base;
      };
      {
        step_desc = "post-compose Asm self-simulation at vainj";
        step_cite = "Thm. 4.3";
        step_term = t0;
      };
    ]
  in
  let final, steps = normalize dir t0 in
  {
    side = dir;
    trace = { initial = base; steps = self_steps @ steps; final };
    ok = equal final uniform_c && well_typed ~src:IC ~tgt:IA final;
  }

(** The full Theorem 3.8 derivation over [passes]: both sides normalize
    to [C]. *)
let thm_3_8 (passes : pass_info list) : side_derivation * side_derivation =
  (derive_side passes `Outgoing, derive_side passes `Incoming)

let pp_side fmt (d : side_derivation) =
  Format.fprintf fmt "@[<v>%s side:@,%a@,%s@]"
    (match d.side with `Incoming -> "Incoming" | `Outgoing -> "Outgoing")
    pp_trace d.trace
    (if d.ok then "==> reached the uniform convention C (Thm. 3.8)"
     else "==> FAILED to reach C")
