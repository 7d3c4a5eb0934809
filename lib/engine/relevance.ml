(** Static trigger-relevance index (see the interface).  The engine must
    not depend on the analysis libraries, so the small producer/consumer
    condensation used for {!seed_order} is built here (over the shared
    {!Chase_logic.Scc}). *)

open Chase_logic

type t = {
  rules : Tgd.t array;
  by_pred : (string, (int * Atom.t) list) Hashtbl.t;
      (** predicate → (rule index, body atom) occurrences, ascending *)
  enabled : bool;  (** the [prune] flag given to {!build} *)
}

let build ~prune rules =
  let by_pred = Hashtbl.create 64 in
  Array.iteri
    (fun i r ->
      List.iter
        (fun a ->
          let p = Atom.pred a in
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_pred p) in
          Hashtbl.replace by_pred p ((i, a) :: prev))
        (Tgd.body r))
    rules;
  (* Stored reversed-in, so flip to ascending (rule, occurrence) order. *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) by_pred [] in
  List.iter
    (fun p -> Hashtbl.replace by_pred p (List.rev (Hashtbl.find by_pred p)))
    keys;
  { rules; by_pred; enabled = prune }

let enabled t = t.enabled

let all_rules t = List.init (Array.length t.rules) Fun.id

let relevant t fact =
  if not t.enabled then all_rules t
  else
    match Hashtbl.find_opt t.by_pred (Atom.pred fact) with
    | None -> []
    | Some occs ->
      (* [occs] is ascending by rule index; keep each rule once. *)
      let rec go last = function
        | [] -> []
        | (i, a) :: rest ->
          if last = i then go last rest
          else if Hom.match_atom Subst.empty a fact <> None then
            i :: go i rest
          else go last rest
      in
      go (-1) occs

(* ------------------------------------------------------------------ *)
(* Stratum order for the seed phase                                    *)
(* ------------------------------------------------------------------ *)

(* Rule i may feed rule j when a head predicate of i occurs in j's body.
   Condense and emit components producers-first; within a layer, index
   order. *)
let seed_order t =
  let n = Array.length t.rules in
  let succs = Array.make n [] in
  Array.iteri
    (fun i r ->
      let out = ref [] in
      List.iter
        (fun h ->
          match Hashtbl.find_opt t.by_pred (Atom.pred h) with
          | None -> ()
          | Some occs ->
            List.iter
              (fun (j, _) -> if not (List.mem j !out) then out := j :: !out)
              occs)
        (Tgd.head r);
      succs.(i) <- List.sort_uniq Int.compare !out)
    t.rules;
  let comp, _ = Scc.tarjan n (fun v -> succs.(v)) in
  (* Tarjan numbers sink components first; producers-first is therefore
     descending component number, ties broken by rule index. *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match Int.compare comp.(b) comp.(a) with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  order
