(* What the three workloads share: the run's tallies, the case lists,
   and the open-loop rate ladder. *)

open Fcsl_core
open Fcsl_report
open Fcsl_service

let nproc = max 1 (Domain.recommended_domain_count ())

(* The three rows the stuck-state closure dominates.  Smoke runs (the
   self-test) leave them out. *)
let heavy = [ "Ticketed lock"; "CG increment"; "CG allocator" ]

let cases ~smoke =
  List.filter (fun c -> not (smoke && List.mem c.Registry.c_name heavy)) Registry.all

(* Rows verified cheaply enough to journal outside the timed sweep. *)
let light = List.filter (fun c -> not (List.mem c.Registry.c_name heavy)) Registry.all

(* Run tallies: everything attempted, and what went wrong. *)
let attempted = ref 0
let errors : string list ref = ref []
let tally_mu = Mutex.create ()

let attempt result =
  Mutex.lock tally_mu;
  incr attempted;
  (match result with Ok () -> () | Error e -> errors := e :: !errors);
  Mutex.unlock tally_mu

let fail e = attempt (Error e)

(* Every open-loop phase of the run, for the loadgen.* totals. *)
let loadgen_totals : Loadgen.summary list ref = ref []

let reset () =
  attempted := 0;
  errors := [];
  loadgen_totals := [];
  Trace.reset ();
  Hashtbl.reset Metrics.values

let phase name ~sent ~ok ~failed =
  Printf.printf "phase %s: sent %d, succeeded %d, failed %d\n%!" name sent ok failed

(* Run [f] and print the phase line for what it attempted. *)
let counted name f =
  let a0 = !attempted and e0 = List.length !errors in
  let r = f () in
  let sent = !attempted - a0 and failed = List.length !errors - e0 in
  phase name ~sent ~ok:(sent - failed) ~failed;
  r

(* Per-rate window length: a window of the named rate lasts [seconds],
   enough samples for a p99 with ten beyond it at 100/s and 10 s; one
   window of each other rate shares half as long again. *)
let step_seconds ~seconds rate =
  let others = List.length Metrics.ladder - 1 in
  if rate = Metrics.named_rate then seconds
  else seconds /. 2. /. float_of_int others

(* The named rate runs three windows and reports the median of their
   percentiles: at the seed a 250 ms memo stall now and then cascades
   into a second one, and a single window's p99 jumps with it. *)
let windows rate = if rate = Metrics.named_rate then 3 else 1

(* p50 and p99 of a phase: the median over its windows' latencies. *)
let window_quantiles (windows : float list list) =
  let med q = Stats.median (List.map (Stats.quantile q) windows) in
  (med 0.5, med 0.99)

(* Record one ladder rate; [true] when it meets the latency limit with
   every request of every window answered correctly. *)
let ladder_step rate (ws : Loadgen.summary list) =
  let p50, p99 = window_quantiles (List.map (fun s -> s.Loadgen.lat_ms) ws) in
  Metrics.set (Printf.sprintf "memo.r%d.p50_ms" rate) p50;
  Metrics.set (Printf.sprintf "memo.r%d.p99_ms" rate) p99;
  List.for_all (fun s -> s.Loadgen.n_failed = 0 && s.n_ok = s.n_sent && s.n_sent > 0) ws
  && p99 <= Metrics.p99_limit_ms

(* The headline memo latency of one phase. *)
let headline (windows : float list list) =
  let p50, p99 = window_quantiles windows in
  Metrics.set "memo_p99_ms" p99;
  Metrics.set "memo.p50_ms" p50;
  Metrics.seti "memo.samples" (List.fold_left (fun n w -> n + List.length w) 0 windows)

let record_loadgen name (s : Loadgen.summary) =
  loadgen_totals := s :: !loadgen_totals;
  phase name ~sent:s.Loadgen.n_sent ~ok:s.n_ok ~failed:s.n_failed;
  List.iteri (fun i e -> if i < 5 then Printf.eprintf "  %s: %s\n%!" name e) s.errors;
  for _ = 1 to s.n_ok do attempt (Ok ()) done;
  List.iter (fun e -> fail (name ^ ": " ^ e)) s.errors

let finish_loadgen () =
  let all = !loadgen_totals in
  let sum f = List.fold_left (fun a s -> a + f s) 0 all in
  let sent = sum (fun s -> s.Loadgen.n_sent) and failed = sum (fun s -> s.Loadgen.n_failed) in
  Metrics.seti "loadgen.sent" sent;
  Metrics.seti "loadgen.completed" (sum (fun s -> s.Loadgen.n_ok));
  Metrics.seti "loadgen.failed" failed;
  Metrics.set "loadgen.error_rate"
    (if sent = 0 then 0. else float_of_int failed /. float_of_int sent);
  Metrics.set "loadgen.late_p99_ms"
    (Stats.quantile 0.99 (List.concat_map (fun s -> s.Loadgen.late_ms) all));
  loadgen_totals := []

(* Exploration counters summed over a verdict's reports. *)
let record_reports (reports : Verify.report list) =
  List.iter
    (fun (r : Verify.report) ->
      Metrics.add "sched.outcomes" (float_of_int r.Verify.outcomes);
      Metrics.add "sched.diverged" (float_of_int r.Verify.diverged);
      match r.Verify.expl with
      | None -> ()
      | Some x ->
        Metrics.add "sched.memo_hits" (float_of_int x.Verify.x_memo_hits);
        Metrics.add "sched.memo_misses" (float_of_int x.Verify.x_memo_misses);
        Metrics.add "por.sleep_skips" (float_of_int x.Verify.x_sleep_skips);
        Metrics.set "sched.max_bucket"
          (Float.max (Metrics.get "sched.max_bucket") (float_of_int x.Verify.x_max_bucket));
        Metrics.add "sched.minor_words" x.Verify.x_minor_words)
    reports

(* The same counters read from a verdict frame (which carries no
   bucket depth or allocation figures). *)
let record_frame_reports (frame : Json.t) =
  let int k v = Option.value (Option.bind (Json.member k v) Json.to_int) ~default:0 in
  match Option.bind (Json.member "reports" frame) Json.to_list with
  | None -> ()
  | Some rs ->
    List.iter
      (fun r ->
        Metrics.add "sched.outcomes" (float_of_int (int "outcomes" r));
        Metrics.add "sched.diverged" (float_of_int (int "diverged" r));
        match Json.member "expl" r with
        | Some (Json.Obj _ as x) ->
          Metrics.add "sched.memo_hits" (float_of_int (int "memo_hits" x));
          Metrics.add "sched.memo_misses" (float_of_int (int "memo_misses" x));
          Metrics.add "por.sleep_skips" (float_of_int (int "sleep_skips" x))
        | _ -> ())
      rs

let finish_sched () =
  let h = Metrics.get "sched.memo_hits" and m = Metrics.get "sched.memo_misses" in
  Metrics.set "sched.memo_hit_ratio" (if h +. m = 0. then 0. else h /. (h +. m))

(* Recovery and lookup cost of a drained journal directory. *)
let journal_metrics dir =
  Metrics.seti "journal.bytes" (Daemon.dir_bytes dir);
  let recover () =
    let t0 = Stats.now () in
    let j = Trace.with_span "journal.openj" (fun _ -> Journal.openj ~resume:true dir) in
    (Stats.now () -. t0, j)
  in
  let times = ref [] in
  for _ = 1 to 3 do
    let dt, j = recover () in
    times := dt :: !times;
    Journal.close j
  done;
  Metrics.set "journal.recover_s" (Stats.median !times);
  let j = Journal.openj ~resume:true dir in
  let digests =
    List.filter_map
      (function Journal.Spec_done ri -> Some ri.Journal.ri_params | _ -> None)
      (Journal.recovered j)
  in
  (match digests with
  | [] -> ()
  | _ ->
    let ds = Array.of_list digests in
    let n = 20_000 in
    let found = ref 0 in
    let t0 = Stats.now () in
    for i = 0 to n - 1 do
      let digest = ds.(i mod Array.length ds) in
      if Trace.with_span "journal.verdict_of_digest" (fun _ ->
             Journal.verdict_of_digest j ~digest)
         <> None
      then incr found
    done;
    Metrics.set "journal.lookup_us" ((Stats.now () -. t0) /. float_of_int n *. 1e6);
    if !found <> n then fail "journal: a recovered verdict digest did not resolve");
  Journal.close j
