(* Seeded inputs for the four workloads.

   Every generator is a pure function of a [Random.State.t] made from the
   benchmark's [--seed]; the program under test only ever receives the
   text (or the requests) built here.  Alongside each chase input the
   generator returns the size of its chase as the benchmark predicts it,
   from the generator's own parameters by set arithmetic, never by
   running the engine. *)

open Chase

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let permutation st n =
  let a = Array.init n Fun.id in
  shuffle st a;
  a

(* A program text plus the size of its chase as predicted. *)
type chase_input = { text : string; facts : int; triggers : int }

(* ------------------------------------------------------------------ *)
(* chase-tc: transitive closure with one existential over a chain      *)
(* ------------------------------------------------------------------ *)

let tc_rules = "e(X, Y) -> tc(X, Y).\ne(X, Y), tc(Y, Z) -> tc(X, Z).\ntc(X, Y) -> w(X, W).\n"

(* The semi-oblivious chase of [tc_rules] over an [n]-edge chain holds the
   n edges, the n(n+1)/2 reachable pairs and one w-fact per node with a
   successor; it fires n copy triggers, n(n-1)/2 join triggers (one per
   pair at distance >= 2) and n existential triggers. *)
let tc_expected n = (((n * (n + 1)) / 2) + (2 * n), n * (n + 3) / 2)

(* Node names and edge order are permuted; [salt] keeps the node names of
   distinct programs apart (the service workload's fresh requests). *)
let tc_program ?(salt = "") st ~n =
  let names = permutation st (n + 1) in
  let edges = permutation st n in
  let b = Buffer.create (64 + (n * 24)) in
  Buffer.add_string b tc_rules;
  Array.iter (fun i -> Printf.bprintf b "e(v%s%d, v%s%d).\n" salt names.(i) salt names.(i + 1)) edges;
  let facts, triggers = tc_expected n in
  { text = Buffer.contents b; facts; triggers }

(* ------------------------------------------------------------------ *)
(* chase-exchange: a scaled data-exchange mapping                      *)
(* ------------------------------------------------------------------ *)

(* The rules of data/company_mapping.chase, widened to carry employee
   attributes: copy rules, a three-atom source join into a six-column
   target, and the null-inventing manager and head rules.  r1 is a
   reporting star join: a sales fact table against four small dimension
   tables, five body atoms over ten variables.  The variable names are
   the ones a mapping author would write; they are not chosen for how
   the engine's dedup table hashes them. *)
let exchange_rules =
  "s1: employee(Emp, Name, Dept, Band) -> person(Emp, Name).\n\
   s2: assignment(Emp, Proj, Role) -> works_on(Emp, Proj).\n\
   s3: employee(Emp, Name, Dept, Band), assignment(Emp, Proj, Role), located(Proj, City) -> \
   site_of(Emp, Name, Dept, Proj, Role, City).\n\
   s4: located(Proj, City) -> project(Proj).\n\
   t1: project(Proj) -> managed_by(Proj, Mgr), manager(Mgr).\n\
   t2: managed_by(Proj, Mgr), manager(Mgr) -> leads(Mgr, Proj).\n\
   t3: employee(Emp, Name, Dept, Band) -> in_dept(Emp, Dept).\n\
   t4: in_dept(Emp, Dept) -> dept(Dept).\n\
   t5: dept(Dept) -> has_head(Dept, Head).\n\
   t6: has_head(Dept, Head) -> staff(Head).\n\
   r1: sale(Sale, Store, Item, Channel, Quarter, Amount), store(Store, Region), \
   item(Item, Category), channel(Channel, Medium), quarter(Quarter, Year) -> \
   sales_report(Sale, Region, Category, Medium, Year, Amount).\n"

(* Dimension table sizes of the star join. *)
let stores = 12
let items = 40
let channels = 3
let quarters = 8

(* [employees] employees in [depts] departments, each assigned to
   [per_employee] distinct projects out of [projects], every project
   located in one of [cities]; [sales] sales rows, each referencing one
   row of every dimension table.

   Oblivious chase, with E employees, A = E * per_employee assignments, P
   projects, U departments actually used and S sales: every rule fires
   once per body match, so s1, t3 and t4 fire E times, s2 and s3 A times,
   s4, t1 and t2 P times, t5 and t6 U times and r1 S times; the instance
   gains E person, A works_on, A site_of, P project, P managed_by, P
   manager, P leads, E in_dept, U each of dept, has_head and staff, and S
   sales_report facts. *)
let exchange_program st ~employees ~per_employee ~projects ~depts ~cities ~sales =
  let emp = permutation st employees in
  let proj = permutation st projects in
  let dept_of = Array.init employees (fun _ -> Random.State.int st depts) in
  let used = Hashtbl.create depts in
  Array.iter (fun d -> Hashtbl.replace used d ()) dept_of;
  let facts = ref [] in
  let add s = facts := s :: !facts in
  for i = 0 to employees - 1 do
    add
      (Printf.sprintf "employee(emp%d, name%d, dept%d, band%d).\n" emp.(i)
         (Random.State.int st 1_000_000) dept_of.(i) (Random.State.int st 12));
    let chosen = Hashtbl.create per_employee in
    while Hashtbl.length chosen < per_employee do
      Hashtbl.replace chosen (Random.State.int st projects) ()
    done;
    Hashtbl.iter
      (fun p () ->
        add
          (Printf.sprintf "assignment(emp%d, proj%d, role%d).\n" emp.(i) proj.(p)
             (Random.State.int st 4)))
      chosen
  done;
  for p = 0 to projects - 1 do
    add (Printf.sprintf "located(proj%d, city%d).\n" proj.(p) (Random.State.int st cities))
  done;
  let dim name n values prefix =
    for k = 0 to n - 1 do
      add (Printf.sprintf "%s(%s%d, %s%d).\n" name name k prefix (Random.State.int st values))
    done
  in
  dim "store" stores 4 "region";
  dim "item" items 6 "category";
  dim "channel" channels 2 "medium";
  dim "quarter" quarters 2 "year";
  for s = 0 to sales - 1 do
    add
      (Printf.sprintf "sale(sale%d, store%d, item%d, channel%d, quarter%d, amount%d).\n" s
         (Random.State.int st stores) (Random.State.int st items) (Random.State.int st channels)
         (Random.State.int st quarters) (Random.State.int st 100_000))
  done;
  let lines = Array.of_list !facts in
  shuffle st lines;
  let b = Buffer.create (String.length exchange_rules + (Array.length lines * 48)) in
  Buffer.add_string b exchange_rules;
  Array.iter (Buffer.add_string b) lines;
  let e = employees and a = employees * per_employee and p = projects in
  let u = Hashtbl.length used and dims = stores + items + channels + quarters in
  {
    text = Buffer.contents b;
    facts = (3 * e) + (3 * a) + (5 * p) + (3 * u) + dims + (2 * sales);
    triggers = (3 * e) + (2 * a) + (3 * p) + (2 * u) + sales;
  }

(* ------------------------------------------------------------------ *)
(* decide-corpus: random simple-linear, linear and guarded rule sets   *)
(* ------------------------------------------------------------------ *)

type kind = Simple_linear | Linear | Guarded

let kind_name = function
  | Simple_linear -> "simple-linear"
  | Linear -> "linear"
  | Guarded -> "guarded"

(* The library's random rule-set profile, with constants in some body
   and head positions. *)
let constant_bias = 0.2
let profile = { Random_tgds.default_profile with constant_bias }

(* [size] sets: set i is Random_tgds's set for seed i, simple-linear,
   linear or guarded as i is 0, 1 or 2 mod 3.  Every corpus of one size
   poses the same problems; the benchmark's seed only deals their order
   (the caller shuffles).  No set is filtered out, whatever its
   constants make of the exact procedures. *)
let corpus ~size =
  Array.init size (fun i ->
      let kind, gen =
        match i mod 3 with
        | 0 -> (Simple_linear, Random_tgds.simple_linear)
        | 1 -> (Linear, Random_tgds.linear)
        | _ -> (Guarded, Random_tgds.guarded)
      in
      (kind, gen ~seed:i ~profile ()))

let rules_text rules = String.concat "" (List.map (fun r -> Tgd.to_string r ^ ".\n") rules)
