(** Static trigger-relevance index for the semi-naive delta sweep.

    The engine's delta phase used to match every rule body against every
    newly added fact.  Most of those matches are statically impossible:
    a homomorphism seeded at fact [f] exists only if some body atom of
    the rule has [f]'s predicate and is position/constant-compatible
    with it.  This index precomputes, per predicate, the rules whose
    bodies mention it, and [relevant] filters by one-atom matchability,
    so the engine enqueues discovery work only for rules that could
    possibly produce a trigger — skipped (rule, fact) events are
    provably empty, which keeps pruned runs bit-identical to unpruned
    ones (the differential suite pins this).

    Pruning is a field of the run configuration ([Engine.config.prune]:
    off under the CLIs' [--no-prune] or [CHASE_NO_PRUNE=1] through
    [Engine.default_config]); an index built with [~prune:false] makes
    [relevant] return every rule index. *)

open Chase_logic

type t

val build : prune:bool -> Tgd.t array -> t
(** Index the body atoms of [rules] by predicate; [prune:false] builds
    the disabled index.  Total; never raises. *)

val enabled : t -> bool
(** The [prune] flag the index was built with. *)

val relevant : t -> Atom.t -> int list
(** Ascending indices of the rules with at least one body atom
    matchable against [fact] ([Hom.match_atom] from the empty
    substitution).  When pruning is disabled: every rule index. *)

val seed_order : t -> int array
(** A stratum-ordered permutation of the rule indices for the seed
    phase's discovery loop: producers before their consumers (by
    head-predicate / body-predicate overlap, condensed).  Discovery
    order over a frozen instance cannot change results — callers must
    still enqueue in plain index order. *)
