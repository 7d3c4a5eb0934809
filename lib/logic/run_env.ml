type t = {
  naive : bool;
  domains : int;
  prune : bool;
}

let parse getenv =
  let flag name =
    match getenv name with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false
  in
  let domains =
    match Option.bind (getenv "CHASE_DOMAINS") (fun s ->
              int_of_string_opt (String.trim s)) with
    | Some d when d >= 1 -> d
    | Some _ | None -> 1
  in
  { naive = flag "CHASE_NAIVE"; domains; prune = not (flag "CHASE_NO_PRUNE") }

(* Evaluated eagerly at module initialisation: worker domains read the
   configuration derived from it concurrently, and a plain immutable
   value is safe to share where a lazy is not. *)
let current = parse Sys.getenv_opt
