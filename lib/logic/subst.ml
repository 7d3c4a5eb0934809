(** Substitutions: finite maps from rule variables (names) to terms.

    A substitution is the working object of homomorphism search: it is built
    up by binding variables one at a time, where a conflicting rebinding
    fails.  Substitutions never map variables to variables during chase
    matching (targets are instances, which are variable-free), but the type
    does not forbid it — rule-to-rule unification uses that freedom. *)

module Smap = Util.Smap

type t = Term.t Smap.t

let empty : t = Smap.empty
let is_empty = Smap.is_empty
let find_opt v (s : t) = Smap.find_opt v s
let mem v (s : t) = Smap.mem v s
let cardinal = Smap.cardinal

(** [bind s v t] binds [v] to [t]; [None] if [v] is already bound to a
    different term. *)
let bind (s : t) v t =
  match Smap.find_opt v s with
  | None -> Some (Smap.add v t s)
  | Some t' -> if Term.equal t t' then Some s else None

(** [bind_exn] is [bind] but raises [Invalid_argument] on conflict. *)
let bind_exn s v t =
  match bind s v t with
  | Some s' -> s'
  | None -> invalid_arg ("Subst.bind_exn: conflicting binding for " ^ v)

let of_list l = List.fold_left (fun s (v, t) -> bind_exn s v t) empty l
let to_list (s : t) = Smap.bindings s

(** Apply to a term; unbound variables are left untouched. *)
let apply_term (s : t) t =
  match t with
  | Term.Var v -> ( match Smap.find_opt v s with Some t' -> t' | None -> t)
  | Term.Const _ | Term.Null _ -> t

let apply_atom (s : t) a = Atom.map_terms (apply_term s) a
let apply_atoms (s : t) atoms = List.map (apply_atom s) atoms

(** [restrict s vars] keeps only the bindings of [vars]. *)
let restrict (s : t) vars = Smap.filter (fun v _ -> Util.Sset.mem v vars) s

(** The set of bound variables. *)
let domain (s : t) =
  Smap.fold (fun v _ acc -> Util.Sset.add v acc) s Util.Sset.empty

let compare (s1 : t) (s2 : t) = Smap.compare Term.compare s1 s2
let equal (s1 : t) (s2 : t) = Smap.equal Term.equal s1 s2

(** Every bound term, folded in variable order as [Atom.hash] folds its
    arguments. *)
let hash (s : t) = Smap.fold (fun _ t h -> Util.hash_combine h (Term.hash t)) s 0

(** [agree_on vars s1 s2]: both substitutions give the same image (possibly
    both undefined) to every variable in [vars]. *)
let agree_on vars s1 s2 =
  Util.Sset.for_all
    (fun v ->
      match find_opt v s1, find_opt v s2 with
      | None, None -> true
      | Some t1, Some t2 -> Term.equal t1 t2
      | None, Some _ | Some _, None -> false)
    vars

let pp fm (s : t) =
  let pp_binding fm (v, t) = Fmt.pf fm "%s ↦ %a" v Term.pp t in
  Fmt.pf fm "{%a}" (Util.pp_list ", " pp_binding) (to_list s)

let to_string s = Fmt.str "%a" pp s
