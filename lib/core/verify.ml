(* The verifier: discharges a Hoare triple {pre} prog {post} against a
   world of concurroids by exhaustive exploration of schedules and
   environment interference from every supplied initial state.

   This is the semantic replacement for Coq type checking (see
   DESIGN.md): the same obligations FCSL discharges by dependent types —
   safety of every atomic action, the postcondition in every terminal
   state, under every admissible interference — are established by
   enumeration over finite configurations.

   Resource resilience (see docs/ROBUSTNESS.md): when a {!Budget.limits}
   is supplied, exhaustion never hangs and never returns a silent
   partial answer.  Instead the verifier walks a degradation ladder —
   exhaustive, then footprint-pruned, then seeded-randomized sampling —
   re-arming per-tier state/heap ceilings under one shared absolute
   deadline, and records which tier produced the verdict, the consumed
   budget, and (for sampled verdicts) the seed. *)

type tier = Exhaustive | Pruned | Sampled

let tier_name = function
  | Exhaustive -> "exhaustive"
  | Pruned -> "pruned"
  | Sampled -> "sampled"

let tier_of_name = function
  | "exhaustive" -> Some Exhaustive
  | "pruned" -> Some Pruned
  | "sampled" -> Some Sampled
  | _ -> None

let pp_tier ppf t = Fmt.string ppf (tier_name t)

type failure = {
  initial : State.t;
  crash : Crash.t;
}

(* Exploration counters aggregated across a verdict's initial states —
   {!Sched.explore_stats} summed (bucket depth: maxed) over the fanned-
   out explorations.  Always collected on the exhaustive-shaped rungs;
   [None] for sampled verdicts and for reports replayed from a journal
   (the journal image formats predate the counters and deliberately do
   not carry them — a replayed verdict is the same verdict, and its
   original run's perf profile is not reproducible data). *)
type expl_stats = {
  x_memo_hits : int;
  x_memo_misses : int;
  x_sleep_skips : int;
  x_max_bucket : int;
  x_minor_words : float;
  x_stuck_calls : int;
  x_stuck_steps : int;
  x_stuck_hits : int;
  x_stuck_cutoffs : int;
}

let expl_of_sched (s : Sched.explore_stats) : expl_stats =
  {
    x_memo_hits = s.Sched.es_memo_hits;
    x_memo_misses = s.Sched.es_memo_misses;
    x_sleep_skips = s.Sched.es_sleep_skips;
    x_max_bucket = s.Sched.es_max_bucket;
    x_minor_words = s.Sched.es_minor_words;
    x_stuck_calls = s.Sched.es_stuck_calls;
    x_stuck_steps = s.Sched.es_stuck_steps;
    x_stuck_hits = s.Sched.es_stuck_hits;
    x_stuck_cutoffs = s.Sched.es_stuck_cutoffs;
  }

let merge_expl a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b ->
    Some
      {
        x_memo_hits = a.x_memo_hits + b.x_memo_hits;
        x_memo_misses = a.x_memo_misses + b.x_memo_misses;
        x_sleep_skips = a.x_sleep_skips + b.x_sleep_skips;
        x_max_bucket = max a.x_max_bucket b.x_max_bucket;
        x_minor_words = a.x_minor_words +. b.x_minor_words;
        x_stuck_calls = a.x_stuck_calls + b.x_stuck_calls;
        x_stuck_steps = a.x_stuck_steps + b.x_stuck_steps;
        x_stuck_hits = a.x_stuck_hits + b.x_stuck_hits;
        x_stuck_cutoffs = a.x_stuck_cutoffs + b.x_stuck_cutoffs;
      }

let pp_expl_stats ppf (x : expl_stats) =
  let pl n suffix = if n = 1 then "" else suffix in
  Fmt.pf ppf
    "memo %d hit%s / %d miss%s, %d sleep skip%s, bucket depth %d, %.0fk minor \
     words, %d stuck check%s (%d closure step%s, %d cache hit%s, %d \
     cutoff%s)"
    x.x_memo_hits (pl x.x_memo_hits "s") x.x_memo_misses
    (pl x.x_memo_misses "es") x.x_sleep_skips (pl x.x_sleep_skips "s")
    x.x_max_bucket
    (x.x_minor_words /. 1000.)
    x.x_stuck_calls (pl x.x_stuck_calls "s") x.x_stuck_steps
    (pl x.x_stuck_steps "s") x.x_stuck_hits (pl x.x_stuck_hits "s")
    x.x_stuck_cutoffs (pl x.x_stuck_cutoffs "s")

type report = {
  spec_name : string;
  tier : tier; (* the ladder tier that produced this verdict *)
  seed : int option; (* base seed of a Sampled verdict *)
  initial_states : int; (* initial states satisfying the precondition *)
  outcomes : int; (* terminal outcomes examined *)
  diverged : int; (* paths cut by fuel (partial correctness: not failures) *)
  complete : bool; (* exploration exhausted every path *)
  states : int; (* configurations explored under the active reductions
                   (0 for sampled verdicts: runs, not a search space) *)
  failures : failure list;
  worker_crashes : failure list; (* quarantined pool items (engine, not spec) *)
  budget : Budget.stats option; (* consumed budget, when one was armed *)
  expl : expl_stats option; (* exploration counters; None when sampled/replayed *)
}

let ok r = r.failures = [] && r.worker_crashes = []

(* Degraded-inconclusive: no counterexample was found, but a budget trip
   forced the verdict below a complete exploration, so "no failures" is
   not a proof.  Unbudgeted incomplete runs (a [max_outcomes] cap) keep
   their historical exit-0 behaviour: nothing was demanded, nothing was
   degraded. *)
let degraded r =
  ok r
  &&
  match r.budget with
  | Some s -> s.Budget.st_tripped <> None
  | None -> false

(* A verdict cut short because every waiter went away (the service's
   client-disconnect path), as opposed to one that ran out of a
   resource.  Cancelled verdicts are an artifact of who was listening,
   not a property of the triple. *)
let cancelled r =
  match r.budget with
  | Some s -> s.Budget.st_tripped = Some (Budget.reason_name Budget.Cancelled)
  | None -> false

(* Stable CLI exit codes.  Counterexamples dominate: a failure found
   under any tier (or alongside worker losses) is sound.  Worker crashes
   dominate degradation: an "ok" claim with quarantined workers is
   untrustworthy. *)
let exit_ok = 0
let exit_failed = 1
let exit_degraded = 2
let exit_internal = 3

let exit_code reports =
  if List.exists (fun r -> r.failures <> []) reports then exit_failed
  else if List.exists (fun r -> r.worker_crashes <> []) reports then
    exit_internal
  else if List.exists degraded reports then exit_degraded
  else exit_ok

(* Engine defaults, overridable per call: configuration memoization in
   the scheduler (see [Sched.explore ~dedup]), the number of domains
   verification fans initial states out over, footprint-based env
   pruning, the resource budget, and the sampling base seed.  The CLI
   and the bench harness set these process-wide; [with_engine] scopes an
   override. *)
let default_dedup = ref true
let default_jobs = ref 1
let default_prune = ref false
let default_budget = ref Budget.no_limits
let default_seed = ref 1
let default_journal : Journal.t option ref = ref None
let default_por = ref false
let default_por_certs : (string -> string -> bool) ref = ref (fun _ _ -> false)
let set_default_dedup b = default_dedup := b
let set_default_jobs j = default_jobs := max 1 j
let set_default_prune b = default_prune := b
let set_default_budget l = default_budget := l
let set_default_seed s = default_seed := s
let set_default_journal j = default_journal := j
let set_default_por b = default_por := b
let set_default_por_certs f = default_por_certs := f

let with_engine ?dedup ?jobs ?prune ?budget ?seed ?journal ?por ?por_certs f =
  let saved_d = !default_dedup
  and saved_j = !default_jobs
  and saved_p = !default_prune
  and saved_b = !default_budget
  and saved_s = !default_seed
  and saved_jr = !default_journal
  and saved_po = !default_por
  and saved_pc = !default_por_certs in
  Option.iter set_default_dedup dedup;
  Option.iter set_default_jobs jobs;
  Option.iter set_default_prune prune;
  Option.iter set_default_budget budget;
  Option.iter set_default_seed seed;
  Option.iter set_default_journal journal;
  Option.iter set_default_por por;
  Option.iter set_default_por_certs por_certs;
  Fun.protect
    ~finally:(fun () ->
      default_dedup := saved_d;
      default_jobs := saved_j;
      default_prune := saved_p;
      default_budget := saved_b;
      default_seed := saved_s;
      default_journal := saved_jr;
      default_por := saved_po;
      default_por_certs := saved_pc)
    f

let pp_failure ppf f =
  Fmt.pf ppf "@[<v2>from %a:@ %a@]" State.pp f.initial Crash.pp f.crash

let pp_report ppf r =
  let tier_note =
    match r.tier with
    | Exhaustive -> ""
    | t -> Fmt.str ", tier %s" (tier_name t)
  in
  let seed_note =
    match r.seed with Some s -> Fmt.str ", seed %d" s | None -> ""
  in
  let budget_note =
    match r.budget with
    | Some s -> (
      match s.Budget.st_tripped with
      | Some reason -> Fmt.str ", budget tripped: %s" reason
      | None -> "")
    | None -> ""
  in
  if r.worker_crashes <> [] then
    Fmt.pf ppf "@[<v2>%s: ENGINE CRASH (%d worker%s quarantined%s)@ %a@]"
      r.spec_name
      (List.length r.worker_crashes)
      (if List.length r.worker_crashes = 1 then "" else "s")
      budget_note
      Fmt.(list ~sep:cut pp_failure)
      (List.filteri (fun i _ -> i < 3) r.worker_crashes)
  else if r.failures <> [] then
    Fmt.pf ppf "@[<v2>%s: FAILED (%d failures%s%s)@ %a@]" r.spec_name
      (List.length r.failures) tier_note seed_note
      Fmt.(list ~sep:cut pp_failure)
      (List.filteri (fun i _ -> i < 3) r.failures)
  else if degraded r then
    Fmt.pf ppf "%s: INCONCLUSIVE (%d initial states, %d outcomes%s%s%s%s)"
      r.spec_name r.initial_states r.outcomes
      (if r.states > 0 then Fmt.str ", %d states" r.states else "")
      tier_note seed_note budget_note
  else
    Fmt.pf ppf "%s: OK (%d initial states, %d outcomes%s%s%s%s%s)" r.spec_name
      r.initial_states r.outcomes
      (if r.states > 0 then Fmt.str ", %d states" r.states else "")
      (if r.diverged > 0 then Fmt.str ", %d fuel-cut" r.diverged else "")
      (if r.complete then "" else ", exploration capped")
      tier_note seed_note

(* [check_triple ~world ~init prog spec] explores every schedule of
   [prog] (with environment interference at all world labels unless
   [interference] is [false]) from every coherent initial state in
   [init] satisfying the precondition.

   Initial states are independent explorations, so with [jobs > 1] they
   are fanned out over a supervised domain pool and the per-state
   results merged in input order.  The merge reproduces the sequential
   accounting exactly: states after the first one that produced failures
   are not counted (the sequential loop skips them once [failures] is
   non-empty), so the report is identical whatever [jobs] is — parallel
   runs merely waste the work done past the first failing state.

   Supervision is per initial state: an exploration that raises is
   retried once (absorbing transient faults — exploration is pure) and
   then quarantined into [worker_crashes] instead of destroying its
   siblings' verdicts. *)

type state_result = {
  sr_outcomes : int;
  sr_diverged : int;
  sr_complete : bool;
  sr_states : int;
  sr_failures : failure list; (* capped at [max_failures], in order *)
  sr_expl : expl_stats option; (* not journaled; replayed units get None *)
}

type core = {
  c_initial_states : int;
  c_outcomes : int;
  c_diverged : int;
  c_complete : bool;
  c_states : int;
  c_failures : failure list;
  c_worker_crashes : failure list;
  c_expl : expl_stats option;
}

let crash_of_pool_error (e : Pool.error) =
  let c = Crash.of_exn e.Pool.e_exn in
  Crash.make (Crash.kind c)
    (Fmt.str "worker quarantined after %d attempt%s%s: %s" e.Pool.e_attempts
       (if e.Pool.e_attempts = 1 then "" else "s")
       (if e.Pool.e_backoff_s > 0. then
          Fmt.str " (%.0fms backoff)" (e.Pool.e_backoff_s *. 1000.)
        else "")
       (Crash.message c))

(* --- Journal integration ---------------------------------------------

   Durability granularity is the verification unit: one eligible initial
   state under one ladder tier ([Journal.State_done], keyed by its index
   in the eligible list) plus the whole spec verdict
   ([Journal.Spec_done]).  Resume replays journaled units and
   re-explores the rest; exploration is deterministic, so the assembled
   report is the uninterrupted run's.

   A journaled unit is only replayable under the engine parameters it
   was computed with, captured as a digest string.  [dedup] and [jobs]
   are deliberately excluded: both are report-invariant by construction
   (exact memo replay; sequential merge).  The eligible-state count is
   included so failure indices always re-anchor within bounds. *)

type jctx = { jc_j : Journal.t; jc_spec : string; jc_tier : string }

let params_digest ~mode ~fuel ~max_outcomes ~trials ~interference ~env_budget
    ~max_failures ~prune ~por ~seed ~(lim : Budget.limits) ~eligible =
  (* A structural digest of the eligible initial states: two triples
     can share a spec name (e.g. the same rooted-spanning spec checked
     over several catalogue graphs), and only the initial states tell
     them apart.  [State.hash] is semantic — no addresses — so it is
     stable across processes of the same binary; a recompile may shift
     it, which merely invalidates replay (the safe direction). *)
  let init_digest =
    List.fold_left (fun acc st -> (acc * 33) lxor State.hash st) 5381 eligible
  in
  (* [por] is included even though verdicts are POR-invariant: the
     replayed [states] count is not, and silently reporting a reduced
     count for an unreduced run (or vice versa) would poison baselines. *)
  Fmt.str
    "mode=%s,fuel=%d,outs=%d,trials=%d,intf=%b,envb=%d,maxf=%d,prune=%b,por=%b,seed=%d,dl=%a,words=%a,states=%a,init=%d,inith=%x"
    mode fuel max_outcomes trials interference env_budget max_failures prune
    por seed
    Fmt.(option ~none:(any "-") float)
    lim.Budget.l_deadline_s
    Fmt.(option ~none:(any "-") int)
    lim.Budget.l_max_major_words
    Fmt.(option ~none:(any "-") int)
    lim.Budget.l_max_states
    (List.length eligible) init_digest

let stats_image (s : Budget.stats) : Journal.budget_image =
  {
    Journal.bi_elapsed_s = s.Budget.st_elapsed_s;
    bi_states = s.Budget.st_states;
    bi_major_words = s.Budget.st_major_words;
    bi_tripped = s.Budget.st_tripped;
  }

let stats_of_image (b : Journal.budget_image) : Budget.stats =
  {
    Budget.st_elapsed_s = b.Journal.bi_elapsed_s;
    st_states = b.Journal.bi_states;
    st_major_words = b.Journal.bi_major_words;
    st_tripped = b.Journal.bi_tripped;
  }

let sr_image (sr : state_result) : Journal.state_image =
  {
    Journal.si_outcomes = sr.sr_outcomes;
    si_diverged = sr.sr_diverged;
    si_complete = sr.sr_complete;
    si_states = sr.sr_states;
    si_failures = List.map (fun f -> f.crash) sr.sr_failures;
  }

let sr_of_image (st : State.t) (si : Journal.state_image) : state_result =
  {
    sr_outcomes = si.Journal.si_outcomes;
    sr_diverged = si.Journal.si_diverged;
    sr_complete = si.Journal.si_complete;
    sr_states = si.Journal.si_states;
    sr_failures =
      List.map (fun crash -> { initial = st; crash }) si.Journal.si_failures;
    sr_expl = None;
  }

(* Failures are serialized with the index of their initial state in the
   eligible list (the states themselves are closures over heaps and not
   serializable); resume re-anchors them by index.  The digest pins the
   eligible count, so indices stay within bounds — an out-of-range index
   (a hand-edited journal) makes the image non-replayable, never a
   panic. *)
let failure_indices ~(eligible : State.t list) (fs : failure list) =
  List.map
    (fun f ->
      let ix = ref (-1) in
      List.iteri (fun i st -> if !ix < 0 && st == f.initial then ix := i) eligible;
      (!ix, f.crash))
    fs

let image_of_report ~params ~eligible (r : report) : Journal.report_image =
  {
    Journal.ri_spec = r.spec_name;
    ri_params = params;
    ri_tier = tier_name r.tier;
    ri_seed = r.seed;
    ri_initial_states = r.initial_states;
    ri_outcomes = r.outcomes;
    ri_diverged = r.diverged;
    ri_complete = r.complete;
    ri_states = r.states;
    ri_failures = failure_indices ~eligible r.failures;
    ri_worker_crashes = failure_indices ~eligible r.worker_crashes;
    ri_budget = Option.map stats_image r.budget;
  }

let report_of_image ~(eligible : State.t list) (ri : Journal.report_image) :
    report option =
  let anchor (i, crash) =
    if i < 0 then None
    else Option.map (fun initial -> { initial; crash }) (List.nth_opt eligible i)
  in
  let anchored l =
    let xs = List.filter_map anchor l in
    if List.length xs = List.length l then Some xs else None
  in
  match (tier_of_name ri.Journal.ri_tier, anchored ri.Journal.ri_failures,
         anchored ri.Journal.ri_worker_crashes)
  with
  | Some tier, Some failures, Some worker_crashes ->
    Some
      {
        spec_name = ri.Journal.ri_spec;
        tier;
        seed = ri.Journal.ri_seed;
        initial_states = ri.Journal.ri_initial_states;
        outcomes = ri.Journal.ri_outcomes;
        diverged = ri.Journal.ri_diverged;
        complete = ri.Journal.ri_complete;
        states = ri.Journal.ri_states;
        failures;
        worker_crashes;
        budget = Option.map stats_of_image ri.Journal.ri_budget;
        expl = None;
      }
  | _ -> None

(* Replay a journaled unit, or compute it and journal the result.
   [keep] decides whether the computed result is durable: a unit cut
   short by a budget trip is timing-dependent (a resumed process with a
   fresh budget would legitimately explore further), so only results the
   budget didn't interfere with are journaled.  Runs on pool worker
   domains; the journal handle is domain-safe. *)
let unit_cached (jctx : jctx option) ~index ~(keep : state_result -> bool)
    (st : State.t) (compute : unit -> state_result) : state_result =
  match jctx with
  | None -> compute ()
  | Some { jc_j; jc_spec; jc_tier } -> (
    match
      Journal.find_state_done jc_j ~spec:jc_spec ~tier:jc_tier ~index
    with
    | Some si -> sr_of_image st si
    | None ->
      let sr = compute () in
      if keep sr then
        Journal.append jc_j
          (Journal.State_done
             { spec = jc_spec; tier = jc_tier; index; state = sr_image sr });
      sr)

(* One ladder attempt: a full (possibly footprint-pruned) exploration of
   every eligible state under an optional armed budget. *)
let exhaustive_attempt ~fuel ~max_outcomes ~interference ~env_budget
    ~max_failures ~dedup ~jobs ~prune ~por ~por_certs ~stuck_cache
    ~(budget : Budget.t option) ?(jctx : jctx option) ~(world : World.t)
    ~(eligible : State.t list) (prog : 'a Prog.t) (spec : 'a Spec.t) : core =
  (* Env-step pruning oracle: interference at a label neither the program
     nor its spec touches cannot change any verdict (program moves never
     read it, the postcondition never observes it), so when the joined
     footprint is known the interference set shrinks to it.  The pruned
     run additionally arms the scheduler's envelope monitor, so an
     unsound declared footprint surfaces as an explicit crash instead of
     a silently narrowed search. *)
  let triple_fp =
    if not prune then Footprint.top
    else Footprint.join (Prog.footprint prog) (Spec.footprint spec)
  in
  let interfere =
    if not interference then []
    else
      match Footprint.labels triple_fp with
      | None -> World.labels world
      | Some fp_labels ->
        List.filter (fun l -> Label.Set.mem l fp_labels) (World.labels world)
  in
  let monitor_envelope = Footprint.labels triple_fp in
  let jwriter =
    Option.map
      (fun { jc_j; jc_spec; jc_tier } ->
        Journal.writer jc_j ~spec:jc_spec ~tier:jc_tier ())
      jctx
  in
  let explore_state st : state_result =
    let genv, mine = Sched.genv_of_state ~interfere world st in
    (* One oracle and one stats record per initial state: explorations
       fan out over pool domains, and both are mutated by the run. *)
    let stats = Sched.new_stats () in
    let oracle = if por then Some (Por.make ~extra:por_certs ()) else None in
    let outs, compl =
      Sched.explore ~fuel ~max_outcomes ~interference ~env_budget ~dedup
        ?monitor_envelope ?budget ?journal:jwriter ?por:oracle ~stats
        ~stuck_cache genv mine prog
    in
    Option.iter
      (fun p ->
        List.iter
          (fun c ->
            Logs.warn (fun m ->
                m "%s: POR demoted to full exploration: %a" (Spec.name spec)
                  Crash.pp c))
          (Por.lies p))
      oracle;
    let outcomes = ref 0 in
    let diverged = ref 0 in
    let failures = ref [] in
    let add_failure crash =
      if List.length !failures < max_failures then
        failures := { initial = st; crash } :: !failures
    in
    List.iter
      (fun out ->
        incr outcomes;
        match out with
        | Sched.Finished (r, final) ->
          if not (Spec.post spec r st final) then
            add_failure
              (Crash.make Crash.Postcondition
                 (Fmt.str "postcondition violated in final state %a" State.pp
                    final))
        | Sched.Crashed c -> add_failure c
        | Sched.Diverged -> incr diverged)
      outs;
    {
      sr_outcomes = !outcomes;
      sr_diverged = !diverged;
      sr_complete = compl;
      sr_states = stats.Sched.es_configs;
      sr_failures = List.rev !failures;
      sr_expl = Some (expl_of_sched stats);
    }
  in
  (* Unbudgeted results are deterministic whatever the outcome (even a
     [max_outcomes] cut replays identically); under a budget, anything
     computed while (or after) the budget tripped is not durable. *)
  let keep _sr =
    match budget with None -> true | Some b -> Budget.tripped b = None
  in
  let check_state (index, st) : state_result =
    unit_cached jctx ~index ~keep st (fun () -> explore_state st)
  in
  let indexed = List.mapi (fun i st -> (i, st)) eligible in
  let results = Pool.map_result ~jobs ~retries:1 check_state indexed in
  let initial_states = ref 0 in
  let outcomes = ref 0 in
  let diverged = ref 0 in
  let complete = ref true in
  let states = ref 0 in
  let failures = ref [] in
  let worker_crashes = ref [] in
  let expl = ref None in
  List.iter2
    (fun (_, st) r ->
      if !failures = [] && !worker_crashes = [] then
        match r with
        | Ok sr ->
          incr initial_states;
          outcomes := !outcomes + sr.sr_outcomes;
          diverged := !diverged + sr.sr_diverged;
          if not sr.sr_complete then complete := false;
          states := !states + sr.sr_states;
          expl := merge_expl !expl sr.sr_expl;
          failures := sr.sr_failures
        | Error e ->
          (* The state's verdict is lost: record the quarantine and mark
             the run incomplete — like a failure, later states are not
             merged (the sequential accounting). *)
          complete := false;
          worker_crashes := [ { initial = st; crash = crash_of_pool_error e } ])
    indexed results;
  {
    c_initial_states = !initial_states;
    c_outcomes = !outcomes;
    c_diverged = !diverged;
    c_complete = !complete;
    c_states = !states;
    c_failures = !failures;
    c_worker_crashes = !worker_crashes;
    c_expl = !expl;
  }

(* One sampled attempt: [trials] random schedules per eligible state,
   with consecutive seeds from [seed].  Never complete by construction;
   a budget trip stops further trials (and states) promptly. *)
let sampled_attempt ~fuel ~trials ~interference ~max_failures ~seed
    ~(budget : Budget.t option) ?(jctx : jctx option) ~(world : World.t)
    ~(eligible : State.t list) (prog : 'a Prog.t) (spec : 'a Spec.t) : core =
  let interfere = if interference then World.labels world else [] in
  let initial_states = ref 0 in
  let outcomes = ref 0 in
  let diverged = ref 0 in
  let failures = ref [] in
  let add_failure st crash =
    if List.length !failures < max_failures then
      failures := { initial = st; crash } :: !failures
  in
  let tripped () =
    match budget with
    | None -> false
    | Some b -> Budget.tripped b <> None
  in
  let jwriter =
    Option.map
      (fun { jc_j; jc_spec; jc_tier } ->
        Journal.writer jc_j ~spec:jc_spec ~tier:jc_tier ())
      jctx
  in
  (* One durable unit per eligible state: all [trials] seeded runs.
     Seeds are consecutive from [seed] per state, so a replayed unit is
     exactly what re-running it would produce; a unit cut short by a
     budget trip is timing-dependent and is not journaled. *)
  let sample_state (index, st) : state_result =
    let keep sr = sr.sr_complete in
    unit_cached jctx ~index ~keep st (fun () ->
        let genv, mine = Sched.genv_of_state ~interfere world st in
        let outs = ref 0 and div = ref 0 and fs = ref [] in
        let add crash =
          if List.length !fs < max_failures then
            fs := { initial = st; crash } :: !fs
        in
        let s = ref seed in
        while !s < seed + trials && not (tripped ()) do
          incr outs;
          (match
             Sched.run_random ~fuel ~interference ?budget ?journal:jwriter
               ~seed:!s genv mine prog
           with
          | Sched.Finished (r, final) ->
            if not (Spec.post spec r st final) then
              add
                (Crash.make Crash.Postcondition
                   (Fmt.str "postcondition violated (seed %d) in %a" !s
                      State.pp final))
          | Sched.Crashed c -> add c
          | Sched.Diverged -> incr div);
          incr s
        done;
        (* [sr_complete] here means "all trials ran" — the unit is
           durable — not exploration completeness (sampled cores are
           never complete; [c_complete] below stays [false]). *)
        {
          sr_outcomes = !outs;
          sr_diverged = !div;
          sr_complete = !s >= seed + trials;
          sr_states = 0;
          sr_failures = List.rev !fs;
          sr_expl = None;
        })
  in
  List.iteri
    (fun index st ->
      if not (tripped ()) then begin
        incr initial_states;
        let sr = sample_state (index, st) in
        outcomes := !outcomes + sr.sr_outcomes;
        diverged := !diverged + sr.sr_diverged;
        List.iter (fun f -> add_failure f.initial f.crash) sr.sr_failures
      end)
    eligible;
  {
    c_initial_states = !initial_states;
    c_outcomes = !outcomes;
    c_diverged = !diverged;
    c_complete = false;
    c_states = 0;
    c_failures = List.rev !failures;
    c_worker_crashes = [];
    c_expl = None;
  }

let assemble ~spec_name ~tier ~seed ~budget (c : core) : report =
  {
    spec_name;
    tier;
    seed;
    initial_states = c.c_initial_states;
    outcomes = c.c_outcomes;
    diverged = c.c_diverged;
    complete = c.c_complete;
    states = c.c_states;
    failures = c.c_failures;
    worker_crashes = c.c_worker_crashes;
    budget;
    expl = c.c_expl;
  }

(* Fold the per-tier budget stats into one record for the report:
   elapsed and states accumulate across attempts; the trip reason is the
   last one observed, so a verdict that was ever forced down a tier
   keeps the reason even when the final attempt finished within its own
   ceilings (that is what makes it {!degraded}). *)
let merge_stats (ss : Budget.stats list) : Budget.stats =
  match ss with
  | [] -> invalid_arg "merge_stats"
  | s0 :: rest ->
    List.fold_left
      (fun acc s ->
        {
          Budget.st_elapsed_s = acc.Budget.st_elapsed_s +. s.Budget.st_elapsed_s;
          st_states = acc.Budget.st_states + s.Budget.st_states;
          st_major_words = s.Budget.st_major_words;
          st_tripped =
            (match s.Budget.st_tripped with
            | Some _ as t -> t
            | None -> acc.Budget.st_tripped);
        })
      s0 rest

(* Trials used by the Sampled rung of the ladder (check_triple has no
   [trials] parameter of its own; [check_triple_random] does). *)
let ladder_trials = 100

let check_triple ?(fuel = 64) ?(max_outcomes = 200_000) ?(interference = true)
    ?(env_budget = max_int) ?(max_failures = 5) ?dedup ?jobs ?prune ?por
    ?por_certs ?budget ?seed ?journal ~(world : World.t)
    ~(init : State.t list) (prog : 'a Prog.t) (spec : 'a Spec.t) : report =
  let dedup = Option.value dedup ~default:!default_dedup in
  let jobs = max 1 (Option.value jobs ~default:!default_jobs) in
  let prune = Option.value prune ~default:!default_prune in
  let por = Option.value por ~default:!default_por in
  let por_certs = Option.value por_certs ~default:!default_por_certs in
  let lim = Option.value budget ~default:!default_budget in
  let seed = Option.value seed ~default:!default_seed in
  let journal =
    match journal with Some _ as j -> j | None -> !default_journal
  in
  let spec_name = Spec.name spec in
  let eligible =
    List.filter (fun st -> World.coh world st && Spec.pre spec st) init
  in
  (* Pruning only bites when the joined footprint is below top. *)
  let fp_known =
    Footprint.labels (Footprint.join (Prog.footprint prog) (Spec.footprint spec))
    <> None
  in
  let params =
    params_digest ~mode:"exh" ~fuel ~max_outcomes ~trials:ladder_trials
      ~interference ~env_budget ~max_failures ~prune ~por ~seed ~lim ~eligible
  in
  (* A journaled verdict for this spec under these exact engine
     parameters replays wholesale — the memoization that makes resumed
     registry runs skip completed rows. *)
  let replayed =
    Option.bind journal (fun j ->
        Option.bind
          (Journal.find_spec_done j ~spec:spec_name ~params)
          (report_of_image ~eligible))
  in
  match replayed with
  | Some r -> r
  | None ->
    Option.iter
      (fun j -> Journal.append j (Journal.Spec_begin { spec = spec_name; params }))
      journal;
    (* Read after the Spec_begin append: the journal index invalidates
       unit records on a params change, so a surviving tier marker is
       one recorded under exactly these parameters. *)
    let resume_tier =
      Option.bind journal (fun j ->
          Option.bind (Journal.last_tier j ~spec:spec_name) (fun (t, _) ->
              tier_of_name t))
    in
    let jctx tier seed =
      Option.map
        (fun j ->
          Journal.append j
            (Journal.Tier_begin
               { spec = spec_name; tier = tier_name tier; seed });
          { jc_j = j; jc_spec = spec_name; jc_tier = tier_name tier })
        journal
    in
    let finish r =
      Option.iter
        (fun j ->
          (* A cancelled verdict must not be memoized: replaying it for
             the next submission of the same digest would serve the
             aborted answer as if it were a real exploration.  The
             unit-level records are already excluded by the tripped-
             budget [keep] predicate; skip the verdict record too. *)
          if not (cancelled r) then
            Journal.append j
              (Journal.Spec_done (image_of_report ~params ~eligible r));
          Journal.flush j)
        journal;
      r
    in
    (* POR rides every exhaustive-shaped rung: it composes with pruning
       (orthogonal reductions — labels cut vs. interleavings cut) and
       with budgets (fewer configurations per tick).  The sampled rung
       runs single schedules, where there is nothing to reduce. *)
    (* One stuck-closure cache for the whole call: blocked
       configurations of different initial states and rungs share most
       of their per-label closures.  Dropped when the call returns. *)
    let stuck_cache = Sched.new_stuck_cache () in
    let attempt ~prune ?jctx b =
      exhaustive_attempt ~fuel ~max_outcomes ~interference ~env_budget
        ~max_failures ~dedup ~jobs ~prune ~por ~por_certs ~stuck_cache
        ~budget:b ?jctx ~world ~eligible prog spec
    in
    let tier1 = if prune && fp_known then Pruned else Exhaustive in
    if Budget.is_unlimited lim then
      (* No budget: exactly the historical single-attempt path. *)
      finish
        (assemble ~spec_name ~tier:tier1 ~seed:None ~budget:None
           (attempt ~prune ?jctx:(jctx tier1 None) None))
    else begin
      (* The degradation ladder.  Each rung re-arms fresh state/heap
         ceilings but every rung shares the first rung's absolute
         deadline, so the whole ladder observes one wall-clock budget.
         Failures found on a tripped rung are sound counterexamples and
         are reported as-is; only failure-free tripped rungs degrade.

         A resumed run re-enters the ladder at the last journaled rung:
         rungs the interrupted run already fell past are not repeated
         (their failure-free trip is what pushed it down). *)
      let b1 = Budget.arm lim in
      let deadline_at = Budget.deadline_at b1 in
      let rearm () = Budget.arm ?deadline_at lim in
      (* Like the budget stats, exploration counters are cumulative
         across rungs: the work the earlier failure-free tripped rungs
         burned is part of what this verdict cost. *)
      let sample_with b stats_so_far expl_so_far =
        let c =
          sampled_attempt ~fuel:(max fuel 256) ~trials:ladder_trials
            ~interference ~max_failures ~seed ~budget:(Some b)
            ?jctx:(jctx Sampled (Some seed)) ~world ~eligible prog spec
        in
        assemble ~spec_name ~tier:Sampled ~seed:(Some seed)
          ~budget:(Some (merge_stats (stats_so_far @ [ Budget.stats b ])))
          { c with c_expl = expl_so_far }
      in
      (* A cancel trip aborts the ladder at the current rung:
         degradation is for resource exhaustion, and descending would
         journal lower-rung markers that a later resubmission of the
         same digest would wrongly resume into (serving a sampled
         verdict where an exhaustive one was never even attempted). *)
      let conclusive c s =
        s.Budget.st_tripped = None
        || c.c_failures <> []
        || s.Budget.st_tripped = Some (Budget.reason_name Budget.Cancelled)
      in
      (* Which rung to start on: 0 = tier1, 1 = pruned (only reachable
         when tier1 is exhaustive and the footprint is known), 2 =
         sampled. *)
      let start =
        match resume_tier with
        | Some Sampled -> 2
        | Some Pruned when tier1 = Exhaustive && fp_known -> 1
        | _ -> 0
      in
      finish
        (if start >= 2 then sample_with b1 [] None
         else begin
           let first_tier = if start = 1 then Pruned else tier1 in
           let first_prune = if start = 1 then true else prune in
           let c1 =
             attempt ~prune:first_prune ?jctx:(jctx first_tier None) (Some b1)
           in
           let s1 = Budget.stats b1 in
           if conclusive c1 s1 then
             assemble ~spec_name ~tier:first_tier ~seed:None ~budget:(Some s1)
               c1
           else if first_tier = Exhaustive && fp_known then begin
             let b2 = rearm () in
             let c2 = attempt ~prune:true ?jctx:(jctx Pruned None) (Some b2) in
             let s2 = Budget.stats b2 in
             if conclusive c2 s2 then
               assemble ~spec_name ~tier:Pruned ~seed:None
                 ~budget:(Some (merge_stats [ s1; s2 ]))
                 { c2 with c_expl = merge_expl c1.c_expl c2.c_expl }
             else
               sample_with (rearm ()) [ s1; s2 ]
                 (merge_expl c1.c_expl c2.c_expl)
           end
           else sample_with (rearm ()) [ s1 ] c1.c_expl
         end)
    end

(* Randomized checking for configurations too large to exhaust: [trials]
   random schedules per initial state, with consecutive seeds from
   [seed] (so a report's recorded seed replays bit-identically). *)
let check_triple_random ?(fuel = 2000) ?(trials = 100) ?(interference = false)
    ?(max_failures = 5) ?budget ?seed ?journal ~(world : World.t)
    ~(init : State.t list) (prog : 'a Prog.t) (spec : 'a Spec.t) : report =
  let lim = Option.value budget ~default:!default_budget in
  let seed = Option.value seed ~default:!default_seed in
  let journal =
    match journal with Some _ as j -> j | None -> !default_journal
  in
  let b = if Budget.is_unlimited lim then None else Some (Budget.arm lim) in
  let spec_name = Spec.name spec in
  let eligible =
    List.filter (fun st -> World.coh world st && Spec.pre spec st) init
  in
  let params =
    params_digest ~mode:"rand" ~fuel ~max_outcomes:0 ~trials ~interference
      ~env_budget:0 ~max_failures ~prune:false ~por:false ~seed ~lim ~eligible
  in
  let replayed =
    Option.bind journal (fun j ->
        Option.bind
          (Journal.find_spec_done j ~spec:spec_name ~params)
          (report_of_image ~eligible))
  in
  match replayed with
  | Some r -> r
  | None ->
    let jctx =
      Option.map
        (fun j ->
          Journal.append j
            (Journal.Spec_begin { spec = spec_name; params });
          Journal.append j
            (Journal.Tier_begin
               { spec = spec_name; tier = tier_name Sampled; seed = Some seed });
          { jc_j = j; jc_spec = spec_name; jc_tier = tier_name Sampled })
        journal
    in
    let c =
      sampled_attempt ~fuel ~trials ~interference ~max_failures ~seed ~budget:b
        ?jctx ~world ~eligible prog spec
    in
    let r =
      assemble ~spec_name ~tier:Sampled ~seed:(Some seed)
        ~budget:(Option.map Budget.stats b) c
    in
    Option.iter
      (fun j ->
        if not (cancelled r) then
          Journal.append j (Journal.Spec_done (image_of_report ~params ~eligible r));
        Journal.flush j)
      journal;
    r
