(** The error monad used by compiler passes (CompCert's [Errors]):
    [Ok x] or [Error message]. *)

type 'a t = ('a, string) result

val ok : 'a -> 'a t

(** [error fmt ...] builds an [Error] with a formatted message. *)
val error : ('a, Format.formatter, unit, 'b t) format4 -> 'a

val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
val map : ('a -> 'b) -> 'a t -> 'b t
val map_list : ('a -> 'b t) -> 'a list -> 'b list t
val iter_list : ('a -> unit t) -> 'a list -> unit t
val fold_list : ('a -> 'b -> 'a t) -> 'a -> 'b list -> 'a t

(** Extract the value; raises [Invalid_argument] on [Error] (tests and
    examples only). *)
val get : 'a t -> 'a

val is_ok : 'a t -> bool
val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
