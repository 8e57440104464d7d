(* The repository benchmark (see README.md).

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --self-test
     perfbench --record-known-answers

   Run from the root of a checkout; perfbench/run.sh builds it first.
   The last line of stdout is the JSON result. *)

let workloads = [ "verify-sweep"; "serve-mixed"; "serve-memo" ]

(* Working files of a run (sockets, journals, traces), inside the checkout. *)
let work_root = ".perfbench"

let run_workload ~known ~workload ~seed ~seconds ~smoke ~dir =
  Common.reset ();
  Daemon.mkdir_p dir;
  let t0 = Stats.now () in
  (try
     match workload with
     | "verify-sweep" -> Sweep.run ~known ~seed ~seconds ~smoke ~dir
     | "serve-mixed" -> Serve.run_mixed ~known ~seed ~smoke ~dir
     | "serve-memo" -> Serve.run_memo ~known ~seed ~seconds ~smoke ~dir
     | w -> invalid_arg ("unknown workload " ^ w)
   with e ->
     Daemon.kill_all ();
     Common.fail ("run aborted: " ^ Printexc.to_string e));
  Daemon.kill_all ();
  Daemon.rm_rf dir;
  Printf.eprintf "%s: %.1f s\n%!" workload (Stats.now () -. t0)

let trace_metrics () =
  let selfs = Trace.self_times () in
  List.iter
    (fun n ->
      let count, self = Option.value (Hashtbl.find_opt selfs n) ~default:(0, 0.) in
      Metrics.set ("span." ^ n ^ ".self_s") self;
      Metrics.seti ("span." ^ n ^ ".count") count)
    Metrics.span_names;
  let spans = List.length (Trace.all ()) in
  Metrics.seti "trace.spans" spans;
  Metrics.set "trace.overhead_s" (float_of_int spans *. Trace.span_cost_s ());
  Metrics.set "trace.wall_s" (Metrics.get "wall_s")

let result_of_run ~trace =
  let failed = List.length !Common.errors in
  List.iter (fun e -> Printf.eprintf "FAILED: %s\n%!" e) (List.rev !Common.errors);
  Metrics.result_line ~correct:(failed = 0) ~attempted:!Common.attempted ~failed
    (if trace then Metrics.per_layer else Metrics.end_to_end)

(* The benchmark's own check: a smoke-sized run of each workload emits
   every metric with a well-formed name, BENCHMARK.json names the same
   metrics and workloads, and the known-answer check rejects flipped
   answers. *)
let self_test ~known =
  let problems = ref [] in
  let problem m = problems := m :: !problems in
  List.iter
    (fun (n, u) ->
      if not (Metrics.valid_name n) then problem ("malformed metric name " ^ n);
      if not (Metrics.valid_unit u) then problem ("malformed unit " ^ u ^ " of " ^ n))
    (Metrics.end_to_end @ Metrics.per_layer);
  let names = List.map fst (Metrics.end_to_end @ Metrics.per_layer) in
  if List.length (List.sort_uniq compare names) <> List.length names then
    problem "a metric name is used twice";
  (match Sys.file_exists "BENCHMARK.json" with
  | false -> problem "BENCHMARK.json not found"
  | true -> (
    let ic = open_in_bin "BENCHMARK.json" in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let open Fcsl_service in
    match Json.parse text with
    | Error e -> problem ("BENCHMARK.json: " ^ e)
    | Ok v ->
      let names k =
        List.filter_map
          (fun m -> Option.bind (Json.member "name" m) Json.to_str)
          (Option.value (Option.bind (Json.member k v) Json.to_list) ~default:[])
      in
      let same what a b = if a <> b then problem ("BENCHMARK.json " ^ what ^ " differ") in
      same "workloads" (names "workloads") workloads;
      same "end_to_end metrics" (names "end_to_end") (List.map fst Metrics.end_to_end);
      same "per_layer metrics" (names "per_layer") (List.map fst Metrics.per_layer)));
  (* flipped answers must be rejected: take a real verdict of CAS-lock
     and a real injected crash *)
  let open Fcsl_report in
  let cas = Option.get (Registry.find "CAS-lock") in
  let canonical = Known.offline_canonical ~case:"CAS-lock" (cas.Registry.c_verify ()) in
  if Known.check_case known ~case:"CAS-lock" canonical <> Ok () then
    problem "the true CAS-lock verdict is rejected";
  if Known.check_case (Known.flip_status known ~case:"CAS-lock") ~case:"CAS-lock" canonical = Ok ()
  then problem "a flipped CAS-lock status is accepted";
  let sc = Fcsl_analysis.Injected.lock_inversion_scenario in
  let crashes = Fcsl_analysis.Injected.explore_scenario sc in
  let flipped =
    {
      known with
      Known.injected =
        List.map (fun i -> { i with Known.i_kind = "postcondition" }) known.Known.injected;
    }
  in
  if Known.check_injected flipped sc crashes = Ok () then
    problem "a flipped injected-scenario kind is accepted";
  if Known.check_injected known sc [] = Ok () then problem "a crash-free injected run is accepted";
  (* smoke runs, traced and untraced *)
  List.iteri
    (fun i workload ->
      List.iter
        (fun trace ->
          Trace.enabled := trace;
          let dir = Filename.concat work_root (Printf.sprintf "selftest-%d" i) in
          run_workload ~known ~workload ~seed:(i + 1) ~seconds:1. ~smoke:true ~dir;
          if trace then trace_metrics ();
          let line = result_of_run ~trace in
          Printf.printf "%s%s: %s\n%!" workload (if trace then " (traced)" else "") line;
          if !Common.errors <> [] then problem (workload ^ ": the smoke run failed");
          match Fcsl_service.Json.parse line with
          | Error e -> problem (workload ^ ": unparseable result line: " ^ e)
          | Ok v ->
            let catalogue = if trace then Metrics.per_layer else Metrics.end_to_end in
            let metrics =
              match Fcsl_service.Json.member "metrics" v with
              | Some (Fcsl_service.Json.Obj kvs) -> kvs
              | _ -> []
            in
            if List.map fst metrics <> List.map fst catalogue then
              problem (workload ^ ": emitted metrics differ from the catalogue"))
        [ false; true ])
    workloads;
  Trace.enabled := false;
  List.iter (fun p -> Printf.printf "self-test: %s\n" p) (List.rev !problems);
  if !problems = [] then print_endline "self-test: ok";
  !problems = []

(* Regenerate known_answers.json from an offline sweep (POR off, one
   domain: the daemon's engine). *)
let record_known_answers () =
  let open Fcsl_report in
  let cases =
    List.map
      (fun c ->
        let name = c.Registry.c_name in
        (name, Known.project (Known.offline_canonical ~case:name (c.Registry.c_verify ()))))
      Registry.all
  in
  let injected =
    List.filter_map
      (fun sc -> Known.injected_answer sc (Fcsl_analysis.Injected.explore_scenario sc))
      [ Fcsl_analysis.Injected.lock_inversion_scenario; Fcsl_analysis.Injected.leaked_lock_scenario ]
  in
  Known.save cases injected;
  Printf.printf "wrote %s\n" Known.path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let self = ref false and record = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S open-loop measuring time");
      ("--trace", Arg.Set_int trace, "0|1 span the layer calls, report per-layer metrics");
      ("--self-test", Arg.Set self, " smoke-run every workload and check the checks");
      ("--record-known-answers", Arg.Set record, " regenerate " ^ Known.path);
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Daemon.kill_all;
  if !record then record_known_answers ()
  else begin
    let known = Known.load () in
    if !self then exit (if self_test ~known then 0 else 1);
    if not (List.mem !workload workloads) then begin
      prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
      exit 2
    end;
    Trace.enabled := !trace = 1;
    let dir = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
    run_workload ~known ~workload:!workload ~seed:!seed ~seconds:!seconds ~smoke:false ~dir;
    if !Trace.enabled then begin
      trace_metrics ();
      Trace.write
        (Filename.concat work_root
           (Printf.sprintf "trace-%s-seed%d.json" !workload !seed))
    end;
    print_endline (result_of_run ~trace:!Trace.enabled)
  end
