(** Strongly connected components of a directed graph over the nodes
    [0 … n-1] (Tarjan).  The one implementation behind the acyclicity
    tests' dependency graphs, the Σ-flow strata and the engine's
    stratum-ordered seed phase. *)

val tarjan : int -> (int -> int list) -> int array * int
(** [tarjan n succs] is [(comp, ncomp)]: the component id of every node
    and the number of components.  Ids are in reverse topological order
    (sink components first).  The numbering is deterministic: roots are
    visited in ascending node order and successors in list order. *)
