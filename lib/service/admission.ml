(** The admission controller: a bounded queue in front of a fixed pool
    of worker threads, with load-shedding.

    When the queue is full the request is {e shed} — the caller gets
    [`Shed retry_after], never a silent drop — where [retry_after]
    estimates when capacity returns: the EWMA of recent service times,
    scaled by the queue depth ahead of the newcomer, divided across the
    workers.  The estimate is deliberately rough; its job is to spread
    retries out, not to be a promise.

    Jobs are closures.  Stopping is two-speed: [stop ~drain:true]
    (graceful — finish the queue) or [~drain:false] (simulated kill —
    abandon the queue; the [on_abandon] callback lets the server
    resolve each abandoned job's flight so no joiner hangs). *)

type job = {
  run : unit -> unit;
  abandon : unit -> unit;
}

type t = {
  mu : Mutex.t;
  cond : Condition.t;
  queue : job Queue.t;
  queue_cap : int;
  workers : int;
  mutable threads : Thread.t list;
  mutable stopping : bool;
  mutable draining : bool;
  mutable busy : int;  (* jobs currently running in workers *)
  mutable ewma_s : float;  (* smoothed service time, seconds *)
  mutable completed : int;
  mutable shed : int;
}

let locked t f = Mutex.protect t.mu f

let worker t =
  let rec loop () =
    Mutex.lock t.mu;
    let rec next () =
      if not (Queue.is_empty t.queue) then
        if t.stopping && not t.draining then None (* killed: abandon below *)
        else Some (Queue.pop t.queue)
      else if t.stopping then None
      else begin
        Condition.wait t.cond t.mu;
        next ()
      end
    in
    match next () with
    | None ->
      Mutex.unlock t.mu;
      ()
    | Some job ->
      t.busy <- t.busy + 1;
      Mutex.unlock t.mu;
      let t0 = Unix.gettimeofday () in
      (try job.run () with _ -> ());
      let dt = Unix.gettimeofday () -. t0 in
      locked t (fun () ->
          t.busy <- t.busy - 1;
          t.completed <- t.completed + 1;
          (* EWMA with a fast-start: the first observation seeds it *)
          t.ewma_s <-
            (if t.completed = 1 then dt
             else (0.8 *. t.ewma_s) +. (0.2 *. dt));
          Condition.broadcast t.cond);
      loop ()
  in
  loop ()

let create ~queue_cap ~workers () =
  if workers <= 0 then invalid_arg "Admission.create: workers";
  let t =
    {
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      queue_cap = max 1 queue_cap;
      workers;
      threads = [];
      stopping = false;
      draining = false;
      busy = 0;
      ewma_s = 0.05;
      completed = 0;
      shed = 0;
    }
  in
  t.threads <- List.init workers (fun _ -> Thread.create worker t);
  t

let retry_after_locked t =
  let ahead = Queue.length t.queue + t.busy in
  let est = t.ewma_s *. float_of_int (ahead + 1) /. float_of_int t.workers in
  Float.min 30.0 (Float.max 0.05 est)

let submit t ~run ~abandon =
  locked t (fun () ->
      if t.stopping then begin
        t.shed <- t.shed + 1;
        `Shed (retry_after_locked t)
      end
      else if Queue.length t.queue >= t.queue_cap then begin
        t.shed <- t.shed + 1;
        `Shed (retry_after_locked t)
      end
      else begin
        Queue.push { run; abandon } t.queue;
        Condition.broadcast t.cond;
        `Accepted
      end)

let depth t = locked t (fun () -> Queue.length t.queue)
let busy t = locked t (fun () -> t.busy)
let shed_count t = locked t (fun () -> t.shed)
let completed t = locked t (fun () -> t.completed)
let ewma_service_s t = locked t (fun () -> t.ewma_s)

let stop ?(drain = true) t =
  let abandoned =
    locked t (fun () ->
        t.stopping <- true;
        t.draining <- drain;
        let abandoned =
          if drain then []
          else begin
            let l = List.of_seq (Queue.to_seq t.queue) in
            Queue.clear t.queue;
            l
          end
        in
        Condition.broadcast t.cond;
        abandoned)
  in
  List.iter (fun j -> try j.abandon () with _ -> ()) abandoned;
  List.iter Thread.join t.threads;
  t.threads <- []
