(* verify-sweep: the offline verifier, in process.  Every registry row
   under POR with the analyzer's certificates on an nproc-domain pool,
   then the two known-bad injected scenarios; afterwards the light rows
   are journaled and replayed from the journal in a closed loop (the
   offline read path: what `fcsl verify --journal DIR --resume` does). *)

open Fcsl_core
open Fcsl_report
open Fcsl_analysis
open Common

let certs () =
  Trace.with_span "independence.certs_all" (fun _ ->
      let c = Independence.certs_all () in
      (* the tables are built lazily, on the first query *)
      ignore (c "" "");
      c)

let verify_case ?parent (c : Registry.case) =
  Trace.with_span ?parent "registry.c_verify" (fun _ -> c.Registry.c_verify ())

let run ~known ~seed ~seconds ~smoke ~dir =
  let rng = Random.State.make [| seed |] in
  (* set-up: the certificate tables, built nine times (one build takes
     about 15 ms, too short for a steady median of three) *)
  let setups =
    List.init 9 (fun _ ->
        let t0 = Stats.now () in
        let c = certs () in
        (Stats.now () -. t0, c))
  in
  let times = List.map fst setups in
  let por_certs = snd (List.hd setups) in
  Metrics.set "setup_s" (Stats.median times);
  Metrics.set "independence.certs_s" (Stats.median times);
  (* the fixed case list *)
  let cpu0 = Stats.cpu_s () in
  let t0 = Stats.now () in
  let answers = Hashtbl.create 16 in
  counted "sweep" (fun () ->
  Trace.with_span "phase.sweep" (fun parent ->
      Verify.with_engine ~por:true ~por_certs ~jobs:nproc (fun () ->
          List.iter
            (fun (c : Registry.case) ->
              let name = c.Registry.c_name in
              let c0 = Stats.now () in
              let reports = verify_case ~parent c in
              let dt = Stats.now () -. c0 in
              let s = Metrics.slug name in
              Metrics.set ("verify." ^ s ^ ".s") dt;
              Metrics.seti ("verify." ^ s ^ ".states")
                (List.fold_left (fun a r -> a + r.Verify.states) 0 reports);
              record_reports reports;
              let canonical = Known.offline_canonical ~case:name reports in
              Hashtbl.replace answers name canonical;
              attempt (Known.check_case known ~case:name canonical))
            (cases ~smoke));
      List.iter
        (fun sc ->
          let c0 = Stats.now () in
          let crashes =
            Trace.with_span ~parent "injected.explore_scenario" (fun _ ->
                Injected.explore_scenario sc)
          in
          Metrics.set ("injected." ^ Metrics.slug sc.Injected.dl_name ^ ".s") (Stats.now () -. c0);
          attempt (Known.check_injected known sc crashes))
        [ Injected.lock_inversion_scenario; Injected.leaked_lock_scenario ]));
  let wall = Stats.now () -. t0 in
  Metrics.set "wall_s" wall;
  Metrics.set "pool.cpu_per_wall" ((Stats.cpu_s () -. cpu0) /. wall);
  (* the read path: journal the light rows, then replay them one after
     another for [seconds]; a replay must add no journal unit and repeat
     the sweep's answer *)
  let jdir = Filename.concat dir "journal" in
  (* a replaying `fcsl verify --resume` starts with a small heap, not
     with the sweep's *)
  Gc.compact ();
  let j = Trace.with_span "journal.openj" (fun _ -> Journal.openj jdir) in
  let light = Array.of_list (List.filter (fun c -> Hashtbl.mem answers c.Registry.c_name) light) in
  let lat = ref [] and n = ref 0 and bad = ref 0 in
  Verify.with_engine ~por:true ~por_certs ~jobs:nproc ~journal:(Some j) (fun () ->
      Array.iter (fun c -> ignore (verify_case c)) light;
      Metrics.seti "journal.fresh_units" (Journal.completed_units j);
      let stop = Stats.now () +. seconds in
      Trace.with_span "phase.replay" (fun parent ->
          while Stats.now () < stop do
            let c = light.(Random.State.int rng (Array.length light)) in
            let name = c.Registry.c_name in
            let units0 = Journal.completed_units j in
            let t0 = Stats.now () in
            let reports = verify_case ~parent c in
            let dt = Stats.now () -. t0 in
            incr n;
            let result =
              if Journal.completed_units j <> units0 then
                Error (name ^ ": replay explored afresh")
              else if Known.offline_canonical ~case:name reports <> Hashtbl.find answers name
              then Error (name ^ ": replayed verdict differs from the sweep's")
              else Ok ()
            in
            if result = Ok () then lat := (dt *. 1000.) :: !lat else incr bad;
            attempt result
          done));
  Journal.close j;
  phase "replay" ~sent:!n ~ok:(!n - !bad) ~failed:!bad;
  headline [ !lat ];
  finish_sched ();
  journal_metrics jdir;
  Metrics.set "peak_rss_mb" (Daemon.vmhwm_mb "self")
