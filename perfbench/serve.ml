(* serve-mixed and serve-memo: a real `fcsl serve` child with default
   configuration (one domain, gold QoS).  A closed-loop connection walks
   the registry cold (the journal write path); open-loop connections
   send memo hits (the read path). *)

open Fcsl_report
open Fcsl_service
open Common

(* Answers seen in this run: the cold canonical verdict per case, and
   the cases a memo request may ask for. *)
type book = {
  mu : Mutex.t;
  cold : (string, Json.t) Hashtbl.t;
  mutable answered : string array;
  mutable verdict_bytes : int list;
  mutable queue_max : int;
  mutable memo_hit_rate : float;
  mutable shed_total : int;
}

let book () =
  {
    mu = Mutex.create ();
    cold = Hashtbl.create 16;
    answered = [||];
    verdict_bytes = [];
    queue_max = 0;
    memo_hit_rate = 0.;
    shed_total = 0;
  }

let with_book b f =
  Mutex.lock b.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock b.mu) f

(* The pre-seeded rows of serve-mixed: cheap, so set-up stays short. *)
let preseed = [ "CAS-lock"; "Seq. stack"; "Prod/Cons" ]

(* One cold submission on a closed-loop connection, checked against the
   known answer and recorded for the memo checks; [true] when right. *)
let cold_submit ~known b ?parent conn (c : Registry.case) =
  let case = c.Registry.c_name in
  let t0 = Stats.now () in
  let res = Trace.with_span ?parent "client.submit" (fun _ -> Client.submit conn ~case) in
  let dt = Stats.now () -. t0 in
  Metrics.set ("server.cold." ^ Metrics.slug case ^ ".s") dt;
  match res with
  | Error e ->
    fail (Fmt.str "%s: %a" case Client.pp_submit_error e);
    false
  | Ok v ->
    record_frame_reports v.Client.v_frame;
    Metrics.add "journal.fresh_units" (float_of_int v.Client.v_fresh_units);
    let canonical = Protocol.canonical_verdict v.Client.v_frame in
    let result = Known.check_case known ~case canonical in
    attempt result;
    with_book b (fun () ->
        Hashtbl.replace b.cold case canonical;
        b.answered <- Array.append b.answered [| case |]);
    result = Ok ()

(* Walk [cases] cold on one connection and print the phase line. *)
let cold_walk ~known b ?parent conn name cases =
  let ok = List.length (List.filter (cold_submit ~known b ?parent conn) cases) in
  let sent = List.length cases in
  phase name ~sent ~ok ~failed:(sent - ok)

let memo_check ~known b (r : Loadgen.req) (v : Client.verdict) =
  let case = r.Loadgen.case in
  let canonical = Protocol.canonical_verdict v.Client.v_frame in
  let cold = with_book b (fun () ->
      b.verdict_bytes <- String.length (Json.to_string v.Client.v_frame) :: b.verdict_bytes;
      Hashtbl.find_opt b.cold case)
  in
  if v.Client.v_case <> case then Error (case ^ ": verdict names " ^ v.Client.v_case)
  else if not v.Client.v_memo then Error (case ^ ": memo hit not served from the memo")
  else if v.Client.v_fresh_units <> 0 then Error (case ^ ": memo hit added journal units")
  else if cold <> Some canonical then Error (case ^ ": memo verdict differs from the cold one")
  else Known.check_case known ~case canonical

let choose b (r : Loadgen.req) =
  with_book b (fun () -> b.answered.(r.Loadgen.pick mod Array.length b.answered))

let on_health b v =
  let int k = Option.bind (Json.member k v) Json.to_int in
  with_book b (fun () ->
      Option.iter (fun q -> b.queue_max <- max b.queue_max q) (int "queue_depth");
      Option.iter (fun s -> b.shed_total <- s) (int "shed_total");
      Option.iter
        (fun r -> b.memo_hit_rate <- r)
        (Option.bind (Json.member "memo_hit_rate" v) Json.to_float))

let pings (d : Daemon.t) =
  let conn = Client.connect ~socket:d.Daemon.socket in
  let times =
    List.init 200 (fun _ ->
        let t0 = Stats.now () in
        if not (Trace.with_span "client.ping" (fun _ -> Client.ping conn)) then
          fail "ping unanswered";
        (Stats.now () -. t0) *. 1000.)
  in
  Client.close conn;
  Metrics.set "client.ping_p50_ms" (Stats.median times)

(* The open-loop ladder on a warm daemon: nproc connections, health
   polled on the first. *)
let ladder ~known ~seconds b rng (d : Daemon.t) =
  let window rate k =
    let duration = step_seconds ~seconds rate in
    let reqs =
      Loadgen.make_reqs rng ~start:(Stats.now () +. 0.05) ~rate:(float_of_int rate) ~duration
    in
    Trace.with_span (Printf.sprintf "phase.r%d" rate) (fun parent ->
        let part k =
          Array.of_list
            (List.filter (fun r -> r.Loadgen.idx mod nproc = k) (Array.to_list reqs))
        in
        let drive k () =
          Loadgen.run_conn ~parent
            ~health_every:(if k = 0 then 0.25 else 0.)
            ~on_health:(on_health b) ~socket:d.Daemon.socket ~choose:(choose b)
            ~check:(memo_check ~known b) ~grace:30. (part k)
        in
        (* connection 0 on this thread: nproc threads in all *)
        let others = List.init (nproc - 1) (fun k -> Thread.create (drive (k + 1)) ()) in
        drive 0 ();
        List.iter Thread.join others);
    let s = Loadgen.summarize reqs in
    record_loadgen (Printf.sprintf "memo r%d window %d" rate k) s;
    s
  in
  let passing =
    List.filter
      (fun rate ->
        let ws = List.init (windows rate) (fun k -> window rate (k + 1)) in
        if rate = Metrics.named_rate then headline (List.map (fun s -> s.Loadgen.lat_ms) ws);
        ladder_step rate ws)
      Metrics.ladder
  in
  Metrics.seti "memo.max_rate" (List.fold_left max 0 passing)

let finish b (d : Daemon.t) =
  Metrics.set "peak_rss_mb" (Daemon.vmhwm_mb (string_of_int d.Daemon.pid));
  Daemon.stop d;
  with_book b (fun () ->
      Metrics.seti "server.queue_depth_max" b.queue_max;
      Metrics.seti "server.shed_total" b.shed_total;
      Metrics.set "server.memo_hit_rate" b.memo_hit_rate;
      Metrics.set "client.verdict_bytes" (Stats.median (List.map float_of_int b.verdict_bytes)));
  finish_loadgen ();
  finish_sched ();
  journal_metrics d.Daemon.journal

(* serve-mixed: set-up spawns a daemon on a fresh journal and answers
   three cheap rows cold (three times; the last daemon stays up).  Then
   connection A walks the rest of the registry cold while connection B
   sends memo hits at [mixed_rate] per second over the rows answered so
   far. *)
let mixed_rate = 50.

let run_mixed ~known ~seed ~smoke ~dir =
  let rng = Random.State.make [| seed |] in
  let setup i =
    let b = book () in
    let sub = Filename.concat dir (Printf.sprintf "setup%d" i) in
    Daemon.mkdir_p sub;
    let t0 = Stats.now () in
    let d = Daemon.spawn ~dir:sub () in
    let conn = Client.connect ~socket:d.Daemon.socket in
    cold_walk ~known b conn (Printf.sprintf "setup %d" i)
      (List.filter_map Registry.find preseed);
    Client.close conn;
    (Stats.now () -. t0, b, d)
  in
  let rec setups i acc =
    let ((_, _, d) as s) = setup i in
    if i < 3 then begin
      Daemon.stop d;
      setups (i + 1) (s :: acc)
    end
    else (s, List.map (fun (t, _, _) -> t) (s :: acc))
  in
  let (_, b, d), times = setups 1 [] in
  Metrics.set "setup_s" (Stats.median times);
  pings d;
  let walk = List.filter (fun c -> not (List.mem c.Registry.c_name preseed)) (cases ~smoke) in
  let a_done = Atomic.make false in
  let first = ref nan and last = ref nan in
  let cpu0 = Daemon.cpu_s d.Daemon.pid in
  Trace.with_span "phase.mixed" (fun parent ->
      let walker =
        Thread.create
          (fun () ->
            let conn = Client.connect ~socket:d.Daemon.socket in
            first := Stats.now ();
            (try cold_walk ~known b ~parent conn "walk" walk
             with e -> fail ("walker: " ^ Printexc.to_string e));
            last := Stats.now ();
            Atomic.set a_done true;
            Client.close conn)
          ()
      in
      let reqs =
        Loadgen.make_reqs rng ~start:(Stats.now () +. 0.05) ~rate:mixed_rate ~duration:900.
      in
      Loadgen.run_conn ~parent ~health_every:0.25 ~on_health:(on_health b)
        ~stop:(fun () -> Atomic.get a_done)
        ~socket:d.Daemon.socket ~choose:(choose b) ~check:(memo_check ~known b) ~grace:60.
        reqs;
      Thread.join walker;
      let s = Loadgen.summarize reqs in
      record_loadgen "mixed memo" s;
      headline [ s.Loadgen.lat_ms ]);
  Metrics.set "wall_s" (!last -. !first);
  Metrics.set "pool.cpu_per_wall" ((Daemon.cpu_s d.Daemon.pid -. cpu0) /. (!last -. !first));
  finish b d

(* serve-memo: a fresh daemon answers the registry cold (the fill walk,
   timed as wall_s) and drains; set-up restarts it on the warm journal
   three times; the memo-only ladder runs on the last one. *)
let run_memo ~known ~seed ~seconds ~smoke ~dir =
  let rng = Random.State.make [| seed |] in
  let b = book () in
  let d0 = Daemon.spawn ~dir () in
  let conn = Client.connect ~socket:d0.Daemon.socket in
  let cpu0 = Daemon.cpu_s d0.Daemon.pid in
  let t0 = Stats.now () in
  Trace.with_span "phase.fill" (fun parent ->
      cold_walk ~known b ~parent conn "fill" (cases ~smoke));
  let wall = Stats.now () -. t0 in
  Metrics.set "wall_s" wall;
  Metrics.set "pool.cpu_per_wall" ((Daemon.cpu_s d0.Daemon.pid -. cpu0) /. wall);
  Client.close conn;
  Daemon.stop d0;
  let rec setups i acc =
    let t0 = Stats.now () in
    let d = Daemon.spawn ~resume:true ~dir () in
    let acc = (Stats.now () -. t0) :: acc in
    if i < 3 then begin
      Daemon.stop d;
      setups (i + 1) acc
    end
    else (d, acc)
  in
  let d, times = setups 1 [] in
  Metrics.set "setup_s" (Stats.median times);
  pings d;
  ladder ~known ~seconds b rng d;
  finish b d
