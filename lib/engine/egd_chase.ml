(** The chase with TGDs and EGDs — the full data-exchange setting.

    EGD applications are destructive: equating a null with another term
    rewrites the whole instance, so the incremental trigger bookkeeping of
    {!Engine} does not carry across them.  We therefore implement the
    standard alternation for the {e restricted} chase (the variant used in
    data exchange, where re-examining triggers is harmless because
    satisfied heads are skipped):

    {v
    repeat
      saturate the EGDs:  find a violated EGD match, merge (null ↦ term,
        preferring constants as representatives), rewrite the instance;
        fail when two distinct constants are equated;
      run the restricted TGD chase on the rewritten instance;
    until neither phase changed anything (or a limit is breached)
    v}

    One overall {!Limits.t} governs the alternation: the trigger budget
    and the wall-clock deadline are threaded through the inner TGD runs
    via {!Limits.remaining}, and the limits are re-checked at every round
    boundary (so a deadline passing during EGD saturation is honoured at
    the next boundary).  The result, on success, is a finite instance
    satisfying both the TGDs and the EGDs. *)

open Chase_logic

type status =
  | Terminated  (** fixpoint reached: the result satisfies TGDs and EGDs *)
  | Failed of string  (** an EGD equated two distinct constants *)
  | Exhausted of Limits.Exhaustion.reason
      (** a limit was breached; the run is a prefix *)

type result = {
  instance : Instance.t;
  status : status;
  merges : int;  (** null-merging EGD applications performed *)
  rounds : int;  (** TGD/EGD alternations *)
  triggers_applied : int;
}

(* One EGD saturation pass: rewrite until no violated match remains.
   Returns the (possibly rebuilt) instance and the number of merges, or
   the constant conflict. *)
let saturate_egds ~matcher egds instance =
  let merges = ref 0 in
  let conflict = ref None in
  let rec pass instance =
    (* find one violated equality, apply it, restart (the rewrite
       invalidates the iteration state) *)
    let violation = ref None in
    List.iter
      (fun egd ->
        if !violation = None && !conflict = None then
          Hom.iter ~matcher instance (Egd.body egd) (fun sub ->
              if !violation = None && !conflict = None then
                List.iter
                  (fun (x, y) ->
                    match Subst.find_opt x sub, Subst.find_opt y sub with
                    | Some tx, Some ty when not (Term.equal tx ty) -> (
                      match tx, ty with
                      | Term.Const cx, Term.Const cy ->
                        conflict :=
                          Some
                            (Fmt.str "EGD %a equates distinct constants %s and %s"
                               Egd.pp egd cx cy)
                      | Term.Null _, _ -> violation := Some (tx, ty)
                      | _, Term.Null _ -> violation := Some (ty, tx)
                      | Term.Var _, _ | _, Term.Var _ -> assert false)
                    | _ -> ())
                  (Egd.equalities egd)))
      egds;
    match !violation with
    | None -> instance
    | Some (from_term, to_term) ->
      incr merges;
      let rewrite t = if Term.equal t from_term then to_term else t in
      let rebuilt = Instance.create () in
      Instance.iter
        (fun a -> ignore (Instance.add rebuilt (Atom.map_terms rewrite a)))
        instance;
      pass rebuilt
  in
  let final = pass instance in
  match !conflict with
  | Some msg -> Error msg
  | None -> Ok (final, !merges)

let default_config =
  {
    Engine.default_config with
    variant = Variant.Restricted;
    limits = Limits.make ~max_triggers:50_000 ~max_atoms:200_000 ();
  }

(** [run ~tgds ~egds db] alternates restricted-chase rounds and EGD
    saturation until a joint fixpoint.  [config.variant] is ignored — the
    restricted chase is the only variant with sane EGD interleaving under
    re-examination (see the module comment). *)
let run ?(config = default_config) ?(obs = Chase_obs.Obs.disabled) ~tgds ~egds
    db =
  let module Obs = Chase_obs.Obs in
  let config = { config with Engine.variant = Variant.Restricted } in
  let base = config.Engine.limits in
  let monitor = Limits.Monitor.start base in
  let total_triggers = ref 0 in
  let total_merges = ref 0 in
  let rounds = ref 0 in
  let finish instance status =
    {
      instance;
      status;
      merges = !total_merges;
      rounds = !rounds;
      triggers_applied = !total_triggers;
    }
  in
  let saturate_egds egds instance =
    Obs.with_span obs "egd-saturate" (fun () ->
        saturate_egds ~matcher:config.Engine.matcher egds instance)
  in
  let rec loop instance =
    incr rounds;
    Obs.span_begin obs
      ~args:[ ("round", Chase_obs.Jsonv.Int !rounds) ]
      "round";
    let out = round instance in
    Obs.span_end obs "round";
    out
  and round instance =
    match saturate_egds egds instance with
    | Error msg -> finish instance (Failed msg)
    | Ok (instance, merges) -> (
      total_merges := !total_merges + merges;
      Obs.incr obs ~by:merges "chase.egd.merges";
      match
        Limits.Monitor.check ~force:true monitor ~steps:!total_triggers
          ~facts:(Instance.cardinal instance)
          ~nulls:(Instance.null_count instance)
          ~depth:0
      with
      | Some breach ->
        finish instance
          (Exhausted
             (Limits.Exhaustion.make ~breach ~steps:!total_triggers
                ~elapsed:(Limits.Monitor.elapsed monitor)
                ()))
      | None -> (
        let round_limits =
          Limits.remaining base ~steps:!total_triggers
            ~elapsed:(Limits.Monitor.elapsed monitor)
        in
        let r =
          Engine.run ~obs
            ~config:{ config with Engine.limits = round_limits }
            tgds (Instance.to_list instance)
        in
        total_triggers := !total_triggers + r.Engine.triggers_applied;
        match r.Engine.status with
        | Engine.Exhausted reason ->
          (* restate the breach against the overall accounting *)
          finish r.Engine.instance
            (Exhausted
               {
                 reason with
                 Limits.Exhaustion.steps = !total_triggers;
                 elapsed = Limits.Monitor.elapsed monitor;
               })
        | Engine.Terminated ->
          if r.Engine.atoms_created = 0 && merges = 0 && !rounds > 1 then
            finish r.Engine.instance Terminated
          else if r.Engine.atoms_created = 0 && merges = 0 then
            (* first round: check the EGDs once more on the TGD result *)
            check_fixpoint r.Engine.instance
          else loop r.Engine.instance))
  and check_fixpoint instance =
    match saturate_egds egds instance with
    | Error msg -> finish instance (Failed msg)
    | Ok (instance, 0) -> finish instance Terminated
    | Ok (instance, merges) ->
      total_merges := !total_merges + merges;
      loop instance
  in
  loop (Instance.of_list db)

(** [satisfies_egds egds ins]: no violated EGD match. *)
let satisfies_egds egds ins =
  List.for_all
    (fun egd ->
      let ok = ref true in
      Hom.iter ins (Egd.body egd) (fun sub ->
          if !ok then
            List.iter
              (fun (x, y) ->
                match Subst.find_opt x sub, Subst.find_opt y sub with
                | Some tx, Some ty -> if not (Term.equal tx ty) then ok := false
                | _ -> ())
              (Egd.equalities egd));
      !ok)
    egds

let pp_result fm r =
  Fmt.pf fm "@[<v>chase with EGDs: %s@ facts: %d@ merges: %d@ rounds: %d@ \
             triggers: %d@]"
    (match r.status with
    | Terminated -> "terminated"
    | Failed msg -> "failed (" ^ msg ^ ")"
    | Exhausted e ->
      Fmt.str "budget exhausted: %a" Limits.pp_breach e.Limits.Exhaustion.breach)
    (Instance.cardinal r.instance)
    r.merges r.rounds r.triggers_applied
