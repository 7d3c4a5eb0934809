(** The idempotency cache: request-key → result, with single-flight
    deduplication.

    A request key ({!Proto.request_key}) covers everything that
    determines the result bytes, so two identical requests — retries
    after a dropped response, or independent clients asking the same
    question — must not both pay for the chase.  The first caller
    becomes the {e leader} and runs the work; everyone else arriving
    before it finishes {e joins} the flight and blocks until the leader
    publishes.  A leader that aborts (shed, killed, uncacheable result)
    wakes the joiners, and the first of them is promoted to leader —
    the work is retried, never lost and never duplicated.

    Retention is the caller's choice at publish time: results poisoned
    by a deadline or a cancellation are shared with the current
    joiners but not retained.  Retained entries are evicted FIFO past
    [capacity]. *)

type flight = {
  mutable outcome : Proto.result option option;
      (* [None] while in flight; [Some (Some r)] published; [Some None]
         aborted *)
}

type slot =
  | Done of Proto.result
  | Inflight of flight

type t = {
  mu : Mutex.t;
  cond : Condition.t;
  tbl : (string, slot) Hashtbl.t;
  fifo : string Queue.t;  (* insertion order of Done entries *)
  capacity : int;
  mutable done_count : int;
  mutable closed : bool;
}

let create ?(capacity = 256) () =
  {
    mu = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create 64;
    fifo = Queue.create ();
    capacity = max 1 capacity;
    done_count = 0;
    closed = false;
  }

let locked t f = Mutex.protect t.mu f

(* Evict the oldest retained results past capacity.  The FIFO may hold
   stale keys (re-published under a new flight); skip any key that is
   no longer Done. *)
let evict_locked t =
  while t.done_count > t.capacity && not (Queue.is_empty t.fifo) do
    let k = Queue.pop t.fifo in
    match Hashtbl.find_opt t.tbl k with
    | Some (Done _) ->
      Hashtbl.remove t.tbl k;
      t.done_count <- t.done_count - 1
    | _ -> ()
  done

type role =
  | Hit of Proto.result
  | Lead

(* Take the key: either a cached result, or leadership of (possibly a
   new) flight.  Joining blocks; an aborted flight loops back so a
   joiner can be promoted. *)
let rec take t key =
  Mutex.lock t.mu;
  match Hashtbl.find_opt t.tbl key with
  | Some (Done r) ->
    Mutex.unlock t.mu;
    Hit { r with Proto.cached = true }
  | None ->
    if t.closed then begin
      Mutex.unlock t.mu;
      (* a closed cache stops deduplicating but must not deadlock *)
      Lead
    end
    else begin
      Hashtbl.replace t.tbl key (Inflight { outcome = None });
      Mutex.unlock t.mu;
      Lead
    end
  | Some (Inflight f) -> (
    let rec wait () =
      match f.outcome with
      | None when t.closed -> None
      | None ->
        Condition.wait t.cond t.mu;
        wait ()
      | Some o -> o
    in
    let o = wait () in
    Mutex.unlock t.mu;
    match o with
    | Some r -> Hit { r with Proto.cached = true }
    | None -> take t key (* leader aborted: compete for leadership *))

(* The leader publishes.  [retain] keeps the result for future
   requests; either way the current joiners receive it. *)
let publish t key result ~retain =
  locked t (fun () ->
      (match Hashtbl.find_opt t.tbl key with
      | Some (Inflight f) -> (
        f.outcome <- Some result;
        match result with
        | Some r when retain ->
          Hashtbl.replace t.tbl key (Done r);
          Queue.push key t.fifo;
          t.done_count <- t.done_count + 1;
          evict_locked t
        | _ -> Hashtbl.remove t.tbl key)
      | Some (Done _) | None -> ());
      Condition.broadcast t.cond)

let abort t key = publish t key None ~retain:false

(* Hard stop: abort every flight and wake every joiner.  Retained
   results stay — they are correct — but the table stops growing. *)
let close t =
  locked t (fun () ->
      t.closed <- true;
      Hashtbl.iter
        (fun _ slot ->
          match slot with
          | Inflight f when f.outcome = None -> f.outcome <- Some None
          | _ -> ())
        t.tbl;
      Condition.broadcast t.cond)

let retained t = locked t (fun () -> t.done_count)
