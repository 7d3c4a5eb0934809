(** The multicore matching plane: a fixed pool of OCaml 5 domains that
    fans one batch of independent discovery events across cores.

    Shape of the machine.  The pool has [n] domains: the caller (domain
    index 0, which participates in every batch rather than idling) and
    [n - 1] spawned workers parked on a condition variable between
    batches.  {!map} publishes a batch — an event count, a closure, a
    fresh claim counter — bumps a generation number and broadcasts; every
    domain then {e work-steals} event indices off the claim counter
    ([Atomic.fetch_and_add]) until the batch is drained.  Results land
    positionally in an array slot owned by exactly one event, so which
    domain computed what is invisible to the caller: the returned array
    is [|f 0; …; f (n-1)|] no matter how the schedule fell.  That
    schedule-independence is the whole point — the engine merges shard
    results in event order and the chase stays bit-identical to the
    sequential run (DESIGN.md §3.10).

    Memory-model notes, since this is the one file where they matter:

    - Each event writes only its own result slot, and completion is
      announced by an [Atomic] decrement of the batch's [remaining]
      counter; the caller re-reads that counter until it hits zero, so
      every result write happens-before the caller's reads (atomic
      publication), with the pool mutex adding a second fence around the
      condition-variable wait.
    - Per-domain effort counters ([events], [steals], [busy]) are
      plain array slots written only by their owning domain; {!stats}
      reads them between batches.

    Completion signalling avoids the classic lost wakeup: the domain
    whose decrement drains [remaining] takes the mutex before
    broadcasting, so the caller is either not yet waiting (and will see
    zero before sleeping) or is inside [Condition.wait] holding its slot
    in the queue. *)

type task = {
  t_size : int;  (** events in this batch *)
  t_run : int -> unit;  (** compute event [i]; never raises *)
  t_next : int Atomic.t;  (** claim counter *)
  t_remaining : int Atomic.t;  (** completions outstanding *)
}

type t = {
  n : int;
  mu : Mutex.t;
  work_ready : Condition.t;
  batch_done : Condition.t;
  mutable current : task option;  (** under [mu] *)
  mutable generation : int;  (** under [mu]; bumped per batch *)
  mutable stopping : bool;  (** under [mu] *)
  mutable shut : bool;
  mutable workers : unit Domain.t list;
  mutable failure : exn option;  (** under [mu]; first exception of a batch *)
  (* effort accounting; slot [d] written only by domain [d] *)
  events : int array;
  steals : int array;
  busy : float array;
  mutable batches : int;
  mutable wall : float;
}

let live = Atomic.make 0
let live_domains () = Atomic.get live

(* ------------------------------------------------------------------ *)
(* Draining a batch                                                    *)
(* ------------------------------------------------------------------ *)

(* Claim-and-run loop shared by the caller and the workers.  An event
   whose index is not congruent to the draining domain modulo the pool
   size counts as a steal: with perfectly uniform speeds the claim
   counter deals indices round-robin, so off-share claims measure how
   much slack stealing actually absorbed. *)
let drain t d task =
  let t0 = Unix.gettimeofday () in
  let rec claim () =
    let i = Atomic.fetch_and_add task.t_next 1 in
    if i < task.t_size then begin
      let s = Faults.Parallel_delays.delay_for d in
      if s > 0. then Unix.sleepf s;
      task.t_run i;
      t.events.(d) <- t.events.(d) + 1;
      if i mod t.n <> d then t.steals.(d) <- t.steals.(d) + 1;
      if Atomic.fetch_and_add task.t_remaining (-1) = 1 then begin
        (* last completion: hold the lock so the waiter cannot miss it *)
        Mutex.lock t.mu;
        Condition.broadcast t.batch_done;
        Mutex.unlock t.mu
      end;
      claim ()
    end
  in
  claim ();
  t.busy.(d) <- t.busy.(d) +. (Unix.gettimeofday () -. t0)

(* Park until a batch this worker has not seen arrives (or shutdown).
   [current = None] with an advanced generation means the batch was
   fully drained before this worker woke — keep waiting. *)
let worker t d =
  let rec loop gen =
    Mutex.lock t.mu;
    while (not t.stopping) && (t.generation = gen || t.current = None) do
      Condition.wait t.work_ready t.mu
    done;
    if t.stopping then Mutex.unlock t.mu
    else begin
      let gen' = t.generation in
      let task = Option.get t.current in
      Mutex.unlock t.mu;
      drain t d task;
      loop gen'
    end
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Pool lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

let create ~domains =
  if domains < 1 then invalid_arg "Parallel.create: domains must be >= 1";
  let t =
    {
      n = domains;
      mu = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      current = None;
      generation = 0;
      stopping = false;
      shut = false;
      workers = [];
      failure = None;
      events = Array.make domains 0;
      steals = Array.make domains 0;
      busy = Array.make domains 0.;
      batches = 0;
      wall = 0.;
    }
  in
  (* Degrade rather than fail if the runtime refuses a spawn (domain
     limit): the pool stays correct with fewer workers. *)
  (try
     for d = 1 to domains - 1 do
       let w = Domain.spawn (fun () -> worker t d) in
       Atomic.incr live;
       t.workers <- w :: t.workers
     done
   with _ -> ());
  t

let size t = 1 + List.length t.workers

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Mutex.lock t.mu;
    t.stopping <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mu;
    List.iter
      (fun w ->
        Domain.join w;
        Atomic.decr live)
      t.workers;
    t.workers <- []
  end

(* ------------------------------------------------------------------ *)
(* Running a batch                                                     *)
(* ------------------------------------------------------------------ *)

let map t size f =
  if t.shut then invalid_arg "Parallel.map: pool is shut down";
  if size = 0 then [||]
  else begin
    let t0 = Unix.gettimeofday () in
    let results = Array.make size None in
    let run i =
      match f i with
      | v -> results.(i) <- Some v
      | exception e ->
        Mutex.lock t.mu;
        (match t.failure with None -> t.failure <- Some e | Some _ -> ());
        Mutex.unlock t.mu
    in
    let task =
      {
        t_size = size;
        t_run = run;
        t_next = Atomic.make 0;
        t_remaining = Atomic.make size;
      }
    in
    if t.n = 1 || t.workers = [] then drain t 0 task
    else begin
      Mutex.lock t.mu;
      t.current <- Some task;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mu;
      drain t 0 task;
      Mutex.lock t.mu;
      while Atomic.get task.t_remaining > 0 do
        Condition.wait t.batch_done t.mu
      done;
      t.current <- None;
      Mutex.unlock t.mu
    end;
    t.batches <- t.batches + 1;
    t.wall <- t.wall +. (Unix.gettimeofday () -. t0);
    (match t.failure with
    | Some e ->
      t.failure <- None;
      raise e
    | None -> ());
    Array.map
      (function
        | Some v -> v
        | None -> invalid_arg "Parallel.map: event produced no result")
      results
  end

(* ------------------------------------------------------------------ *)
(* Effort accounting                                                   *)
(* ------------------------------------------------------------------ *)

type stats = {
  domains : int;
  batches : int;
  events : int array;
  steals : int array;
  busy : float array;
  wall : float;
}

let stats t =
  {
    domains = t.n;
    batches = t.batches;
    events = Array.copy t.events;
    steals = Array.copy t.steals;
    busy = Array.copy t.busy;
    wall = t.wall;
  }

(* ------------------------------------------------------------------ *)
(* Domain-count validation                                             *)
(* ------------------------------------------------------------------ *)

let parse_domains s =
  match int_of_string_opt (String.trim s) with
  | Some d when d >= 1 -> Ok d
  | Some d -> Error (Printf.sprintf "domain count must be >= 1 (got %d)" d)
  | None -> Error (Printf.sprintf "domain count must be an integer (got %S)" s)
