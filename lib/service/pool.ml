(** The server-wide budget pool.

    Every worker draws its trigger budget from one shared pot of
    credits, so total concurrent chase work is bounded no matter how
    many requests are admitted: when the pot runs low, grants shrink
    (down to [min_grant]) and then block — backpressure — until either
    credits return or the request's deadline passes.

    Waiting polls under the lock at a few-millisecond cadence rather
    than using a condition variable: grants are released at request
    granularity (tens per second at most), so the poll is invisible,
    and a plain poll cannot miss a wakeup or deadlock on a lost
    signal. *)

type t = {
  mu : Mutex.t;
  total : int;
  per_request_cap : int;
  min_grant : int;
  mutable available : int;
  mutable closed : bool;
}

let locked t f = Mutex.protect t.mu f

let create ?(per_request_cap = max_int) ?(min_grant = 1) ~total () =
  if total <= 0 then invalid_arg "Pool.create: total must be positive";
  {
    mu = Mutex.create ();
    total;
    per_request_cap = max 1 per_request_cap;
    min_grant = max 1 min_grant;
    available = total;
    closed = false;
  }

let available t = locked t (fun () -> t.available)

let try_acquire t ~want =
  locked t (fun () ->
      if t.closed then None
      else
        let cap = max 1 (min want t.per_request_cap) in
        let floor = min cap t.min_grant in
        if t.available >= floor then begin
          let grant = min cap t.available in
          t.available <- t.available - grant;
          Some grant
        end
        else None)

let acquire t ~want ?deadline () =
  let rec loop () =
    match try_acquire t ~want with
    | Some _ as g -> g
    | None ->
      if locked t (fun () -> t.closed) then None
      else if
        match deadline with
        | Some d -> Unix.gettimeofday () >= d
        | None -> false
      then None
      else begin
        Thread.delay 0.004;
        loop ()
      end
  in
  loop ()

let release t grant =
  locked t (fun () -> t.available <- min t.total (t.available + max 0 grant))

let close t = locked t (fun () -> t.closed <- true)
