let tarjan n succs =
  let index = Array.make n (-1)
  and low = Array.make n 0
  and on_stack = Array.make n false
  and comp = Array.make n (-1) in
  let stack = ref [] and counter = ref 0 and ncomp = ref 0 in
  let rec strongconnect v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      (succs v);
    if low.(v) = index.(v) then begin
      let rec pop () =
        match !stack with
        | [] -> ()
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp.(w) <- !ncomp;
          if w <> v then pop ()
      in
      pop ();
      incr ncomp
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (comp, !ncomp)
