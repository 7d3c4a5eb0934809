(** Data exchange: computing a universal solution with the chase.

    The original home of the chase-termination question (Fagin et al.,
    "Data exchange: semantics and query answering"): a source database
    must be translated to a target schema under source-to-target and
    target constraints.  The chase of the source under the constraints
    yields a {e universal solution} — the canonical target instance over
    which certain answers to conjunctive queries can be computed directly.

    Run with: dune exec examples/data_exchange.exe *)

open Chase

let section title = Fmt.pr "@.== %s ==@.@." title

(* Source schema:  emp(name, dept)        — employees with departments
   Target schema:  dept(dname, mgr)       — departments with managers
                   works(name, dname)     — employment relation
                   mgr_of(mgr, name)      — management relation *)
let mapping =
  Parser.parse_rules_exn
    {|
      % source-to-target: every employment fact is mirrored, inventing a
      % manager for the department
      st1: emp(N, D) -> works(N, D).
      st2: emp(N, D) -> dept(D, M).
      % target constraints: managers work in their department and manage
      % its employees
      t1: dept(D, M) -> works(M, D).
      t2: works(N, D), dept(D, M) -> mgr_of(M, N).
    |}

let source =
  Parser.parse_database_exn
    "emp(ada, cs). emp(grace, cs). emp(alan, maths)."

let () =
  section "Termination: the mapping is weakly acyclic";
  Fmt.pr "  weakly acyclic: %b — every chase variant terminates on every \
          source@."
    (Weak.is_weakly_acyclic mapping);

  section "Universal solution (restricted chase)";
  let config =
    {
      Engine.default_config with variant = Variant.Restricted;
      limits = Limits.make ~max_triggers:10_000 ~max_atoms:10_000 ();
    }
  in
  let result = Engine.run ~config mapping source in
  assert (result.Engine.status = Engine.Terminated);
  List.iter
    (fun a -> Fmt.pr "  %a@." Atom.pp a)
    (Instance.to_sorted_list result.Engine.instance);

  section "Certain answers by querying the universal solution";
  (* Who certainly works in cs?  works(N, cs) with N a constant. *)
  let solution = result.Engine.instance in
  let query = Atom.of_list "works" [ Term.Var "N"; Term.Const "cs" ] in
  let answers =
    Hom.all solution [ query ]
    |> List.filter_map (fun s -> Subst.find_opt "N" s)
    |> List.filter Term.is_const (* nulls are not certain answers *)
    |> List.sort_uniq Term.compare
  in
  Fmt.pr "  works(N, cs) certainly holds for N ∈ {%a}@."
    Fmt.(hbox (list ~sep:(any ", ") Chase.Term.pp))
    answers;

  section "Universality of the solution";
  (* Any other solution, e.g. one naming the invented managers, admits a
     homomorphism from the chase result. *)
  let other =
    Instance.of_list
      (Parser.parse_database_exn
         {|
           emp(ada, cs). emp(grace, cs). emp(alan, maths).
           works(ada, cs). works(grace, cs). works(alan, maths).
           dept(cs, dijkstra). dept(maths, turing).
           works(dijkstra, cs). works(turing, maths).
           mgr_of(dijkstra, ada). mgr_of(dijkstra, grace).
           mgr_of(dijkstra, dijkstra). mgr_of(turing, alan).
           mgr_of(turing, turing).
         |})
  in
  assert (Engine.is_model mapping other);
  Fmt.pr "  chase result embeds into the hand-written solution: %b@."
    (Option.is_some (Hom.instance_hom solution other));

  section "Key constraints: the chase with EGDs";
  (* a department has at most one manager — an EGD; a rule that invents
     two managers per pairing then needs merging *)
  let program =
    match
      Parser.parse_program_full
        {|
          copair(X, Y) -> dept2(X, M1), dept2(Y, M2).
          key: dept2(D, M1), dept2(D, M2) -> M1 = M2.
          copair(cs, cs). copair(maths, physics).
        |}
    with
    | Ok p -> p
    | Error msg -> failwith msg
  in
  let r =
    Egd_chase.run ~tgds:program.Parser.tgds ~egds:program.Parser.egds
      program.Parser.facts
  in
  Fmt.pr "  %a@." Egd_chase.pp_result r;
  List.iter
    (fun a -> Fmt.pr "    %a@." Atom.pp a)
    (List.sort Atom.compare (Instance.atoms_of_pred r.Egd_chase.instance "dept2"));

  section "Cores: the lean universal solution";
  (* the oblivious chase of the mapping over-invents managers; its core
     is the canonical redundancy-free solution *)
  let ob =
    Engine.run
      ~config:
        {
          Engine.default_config with variant = Variant.Oblivious;
          limits = Limits.make ~max_triggers:10_000 ~max_atoms:10_000 ();
        }
      mapping source
  in
  let ob_core = Core_model.core ob.Engine.instance in
  Fmt.pr "  oblivious chase: %d facts; its core: %d facts; restricted \
          chase: %d facts@."
    (Instance.cardinal ob.Engine.instance)
    (Instance.cardinal ob_core)
    (Instance.cardinal solution);
  Fmt.pr "  core ≅ restricted result: %b@."
    (Core_model.equivalent ob_core solution);

  section "What would break it";
  (* Adding a feedback axiom — every manager is again an employee of some
     department — makes the mapping non-terminating. *)
  let feedback = Parser.parse_rules_exn "f: dept(D, M) -> emp(M, D2)." in
  (* On the linear core (without the join rule t2) the Theorem 2 procedure
     gives a definite answer with a pumping certificate… *)
  let linear_core =
    List.filter (fun r -> Tgd.name r <> "t2") mapping @ feedback
  in
  let v = Decide.check ~variant:Variant.Semi_oblivious linear_core in
  Fmt.pr "  linear core + feedback: %s (%s)@."
    (Verdict.answer_to_string (Verdict.answer v))
    v.Verdict.procedure;
  (* …while the full set is unguarded, where termination is undecidable in
     general: the library falls back to a budgeted simulation and answers
     honestly. *)
  let v_full = Decide.check ~variant:Variant.Semi_oblivious (mapping @ feedback) in
  Fmt.pr "  full mapping + feedback: %s (%s)@."
    (Verdict.answer_to_string (Verdict.answer v_full))
    v_full.Verdict.procedure
