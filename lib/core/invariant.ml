(** Invariants as degenerate simulation conventions (paper, Appendix B).

    An invariant [P = ⟨W, P°, P•⟩] constrains questions and answers of a
    single language interface. Promoting it to a simulation convention
    [P̂] relates equal questions/answers that satisfy the predicates
    (Definition B.3). [strengthen] builds the strengthened transition
    system [Lᴾ] of Appendix B.4, which refuses queries violating [P°] and
    suppresses answers violating [P•]; simulations from [Lᴾ] may assume
    the invariant, and [L ≤P̂↠P̂ Lᴾ] holds by construction. *)

open Smallstep

type ('w, 'q, 'r) t = {
  inv_name : string;
  query_inv : 'w -> 'q -> bool;  (** [w ⊩ q ∈ P°] *)
  reply_inv : 'w -> 'r -> bool;  (** [w ⊩ r ∈ P•] *)
  world_of : 'q -> 'w option;  (** canonical world for an incoming question *)
}

(** Promotion [P ↦ P̂] to a simulation convention (Definition B.3). *)
let to_conv (p : ('w, 'q, 'r) t) : ('w, 'q, 'q, 'r, 'r) Simconv.t =
  {
    Simconv.name = p.inv_name;
    chk_query = (fun w q1 q2 -> q1 = q2 && p.query_inv w q1);
    chk_reply = (fun w r1 r2 -> r1 = r2 && p.reply_inv w r1);
    fwd_query =
      (fun q ->
        match p.world_of q with
        | Some w when p.query_inv w q -> Some (w, q)
        | _ -> None);
    fwd_reply = (fun w r -> if p.reply_inv w r then Some r else None);
    bwd_reply = (fun w r -> if p.reply_inv w r then Some r else None);
    bwd_query = (fun q -> Some q);
    infer_world =
      (fun q1 q2 ->
        if q1 = q2 then
          match p.world_of q1 with
          | Some w when p.query_inv w q1 -> Some w
          | _ -> None
        else None);
  }

(** The strengthened semantics [Lᴾ]: identical transitions, but incoming
    questions outside the invariant are refused and outgoing interactions
    are filtered by [P] on the outgoing interface [Pᴬ]. *)
let strengthen (p_in : ('wb, 'qi, 'ri) t) (p_out : ('wa, 'qo, 'ro) t)
    (l : ('s, 'qi, 'ri, 'qo, 'ro) lts) : ('s, 'qi, 'ri, 'qo, 'ro) lts =
  {
    l with
    name = l.name ^ "^" ^ p_in.inv_name;
    dom =
      (fun q ->
        l.dom q && match p_in.world_of q with Some w -> p_in.query_inv w q | None -> false);
    at_external =
      (fun s ->
        match l.at_external s with
        | Some q -> (
          match p_out.world_of q with
          | Some w when p_out.query_inv w q -> Some q
          | _ -> None)
        | None -> None);
    (* the filtered [at_external] must not be gone round *)
    handover = None;
  }
