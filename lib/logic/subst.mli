(** Substitutions: finite maps from rule variables (names) to terms.

    A substitution is the working object of homomorphism search: it is
    built up by binding variables one at a time, where a conflicting
    rebinding fails. *)

type t

val empty : t
val is_empty : t -> bool
val find_opt : string -> t -> Term.t option
val mem : string -> t -> bool
val cardinal : t -> int

val bind : t -> string -> Term.t -> t option
(** [bind s v t] binds [v] to [t]; [None] if [v] is already bound to a
    different term. *)

val bind_exn : t -> string -> Term.t -> t
(** @raise Invalid_argument on a conflicting rebinding. *)

val of_list : (string * Term.t) list -> t
val to_list : t -> (string * Term.t) list
(** Bindings in ascending variable-name order (canonical). *)

val apply_term : t -> Term.t -> Term.t
(** Unbound variables are left untouched. *)

val apply_atom : t -> Atom.t -> Atom.t
val apply_atoms : t -> Atom.t list -> Atom.t list

val restrict : t -> Util.Sset.t -> t
(** Keep only the bindings of the given variables. *)

val domain : t -> Util.Sset.t
(** The set of bound variables. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** Structural: folds every bound term, so substitutions that differ in
    any binding hash apart (in general). *)

val agree_on : Util.Sset.t -> t -> t -> bool
(** Both substitutions give the same image (possibly both undefined) to
    every variable in the set — the semi-oblivious indistinguishability
    test. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
