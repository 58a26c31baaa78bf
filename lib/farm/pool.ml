type reason = Exception of string | Dependency of int | Aborted

type failure = { index : int; label : string; reason : reason }

let pp_failure fmt f =
  (* A raising job ran once; a skipped or aborted one never ran. *)
  let attempts = match f.reason with Exception _ -> 1 | Dependency _ | Aborted -> 0 in
  Format.fprintf fmt "job %d (%s) failed after %d attempt%s: %s" f.index f.label attempts
    (if attempts = 1 then "" else "s")
    (match f.reason with
    | Exception msg -> msg
    | Dependency d -> Printf.sprintf "dependency %d failed" d
    | Aborted -> "aborted before dispatch (run killed)")

type 'a outcome = Done of 'a | Failed of failure

type 'a job = {
  label : string;
  cat : string;
  deps : int list;
  work : (int -> 'a) -> 'a;
}

type 'a state = {
  jobs : 'a job array;
  results : 'a outcome option array;
  remaining : int array;  (* unfinished dependency count *)
  failed_dep : int option array;  (* first failed dependency, if any *)
  dependents : int list array;
  mutable ready : int list;  (* ascending ids *)
  mutable completed : int;
  lock : Mutex.t;
  work_available : Condition.t;
}

let insert_sorted x l =
  let rec go = function [] -> [ x ] | y :: tl -> if x < y then x :: y :: tl else y :: go tl in
  go l

let run ?jobs:(nworkers = Domain.recommended_domain_count ()) ?abort ?trace
    (jobs : 'a job array) : 'a outcome array =
  let n = Array.length jobs in
  Array.iteri
    (fun i j ->
      List.iter
        (fun d ->
          if d < 0 || d >= i then
            invalid_arg (Printf.sprintf "Pool.run: job %d has illegal dep %d" i d))
        j.deps)
    jobs;
  let st =
    {
      jobs;
      results = Array.make n None;
      remaining = Array.map (fun j -> List.length j.deps) jobs;
      failed_dep = Array.make n None;
      dependents = Array.make n [];
      ready = [];
      completed = 0;
      lock = Mutex.create ();
      work_available = Condition.create ();
    }
  in
  Array.iteri
    (fun i j -> List.iter (fun d -> st.dependents.(d) <- i :: st.dependents.(d)) j.deps)
    jobs;
  let gauge_depth () =
    match trace with
    | Some t -> Trace.max_gauge t "queue.depth.max" (List.length st.ready)
    | None -> ()
  in
  Array.iteri (fun i j -> if j.deps = [] then st.ready <- insert_sorted i st.ready) jobs;
  gauge_depth ();
  (* Finish a job (lock held): record the outcome, unblock dependents, and
     propagate failures to dependents that will never run. *)
  let rec finish i outcome =
    st.results.(i) <- Some outcome;
    st.completed <- st.completed + 1;
    (match outcome with
    | Failed _ ->
      List.iter
        (fun d -> if st.failed_dep.(d) = None then st.failed_dep.(d) <- Some i)
        st.dependents.(i)
    | Done _ -> ());
    List.iter
      (fun d ->
        st.remaining.(d) <- st.remaining.(d) - 1;
        if st.remaining.(d) = 0 then
          match st.failed_dep.(d) with
          | Some dep ->
            finish d (Failed { index = d; label = st.jobs.(d).label; reason = Dependency dep })
          | None ->
            st.ready <- insert_sorted d st.ready;
            gauge_depth ())
      st.dependents.(i);
    Condition.broadcast st.work_available
  in
  let get i =
    Mutex.lock st.lock;
    let r = st.results.(i) in
    Mutex.unlock st.lock;
    match r with
    | Some (Done v) -> v
    | _ -> invalid_arg "Pool: dependency result requested before completion"
  in
  (* Run job [i] without the lock; an exception becomes its failure. *)
  let execute worker i =
    let j = st.jobs.(i) in
    let t0 = match trace with Some t -> Trace.now t | None -> 0.0 in
    let outcome, verdict =
      match j.work get with
      | v -> (Done v, "ok")
      | exception e ->
        (Failed { index = i; label = j.label; reason = Exception (Printexc.to_string e) }, "error")
    in
    (match trace with
    | Some t ->
      Trace.add_span t
        { Trace.name = j.label; cat = j.cat; worker; t_start = t0; t_end = Trace.now t;
          outcome = verdict }
    | None -> ());
    outcome
  in
  let worker_loop worker =
    Mutex.lock st.lock;
    let rec loop () =
      if st.completed >= n then (
        Condition.broadcast st.work_available;
        Mutex.unlock st.lock)
      else
        match st.ready with
        | [] ->
          Condition.wait st.work_available st.lock;
          loop ()
        | i :: rest ->
          st.ready <- rest;
          (* The abort switch models process death for crash testing: a
             job not yet dispatched when the run dies must never execute. *)
          if (match abort with Some a -> Atomic.get a | None -> false) then begin
            finish i (Failed { index = i; label = st.jobs.(i).label; reason = Aborted });
            loop ()
          end
          else begin
            Mutex.unlock st.lock;
            let outcome = execute worker i in
            Mutex.lock st.lock;
            finish i outcome;
            loop ()
          end
    in
    loop ()
  in
  let nworkers = max 1 (min nworkers (max 1 n)) in
  (* The caller is worker 1: a fresh domain starts cold and costs more
     than a small batch, so only the extra workers get one. *)
  let helpers =
    List.init (nworkers - 1) (fun w -> Domain.spawn (fun () -> worker_loop (w + 2)))
  in
  worker_loop 1;
  List.iter Domain.join helpers;
  Array.map (function Some o -> o | None -> assert false) st.results
