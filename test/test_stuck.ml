(* The stuck-state closure: [Sched.confirms_stuck] computes its answer
   from per-label closures (a product bound plus a shared cache), and
   must agree bit for bit with the reference below — the straightforward
   breadth-first walk over whole shared states.  Checked on every
   blocked configuration the registry rows and both injected deadlock
   scenarios reach (POR on and off, 1 and 4 domains), and on synthetic
   multi-label worlds sized exactly around the cap. *)

open Fcsl_heap
open Fcsl_core
open Fcsl_analysis
module Aux = Fcsl_pcm.Aux
module Registry = Fcsl_report.Registry

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* The reference: a list-based BFS over whole shared states.          *)
(* ------------------------------------------------------------------ *)

let genv_same (a : Sched.genv) (b : Sched.genv) =
  a.ghash = b.ghash
  && Label.Map.equal Heap.equal a.joints b.joints
  && Contrib.equal a.jauxs b.jauxs
  && Contrib.equal a.ext_other b.ext_other

exception Not_stuck

let reference_stuck genv0 mine rt =
  let visited = ref [ genv0 ] in
  let nvisited = ref 1 in
  let rec bfs = function
    | [] -> ()
    | g :: rest ->
      let fresh =
        List.filter_map
          (fun (_, g') ->
            if Sched.moves g' Contrib.empty mine rt <> [] then raise Not_stuck;
            if List.exists (genv_same g') !visited then None
            else begin
              if !nvisited >= Sched.stuck_closure_cap then raise Not_stuck;
              visited := g' :: !visited;
              incr nvisited;
              Some g'
            end)
          (Sched.env_moves g mine rt)
      in
      bfs (rest @ fresh)
  in
  match bfs [ genv0 ] with () -> true | exception Not_stuck -> false

(* ------------------------------------------------------------------ *)
(* Every blocked configuration real explorations reach.               *)
(* ------------------------------------------------------------------ *)

(* Runs [f] with a probe re-deciding every blocked configuration with
   the reference; returns how many configurations it saw, how many of
   them were stuck, and how many answers disagreed. *)
let with_reference_probe f =
  let seen = Atomic.make 0 and stuck = Atomic.make 0 in
  let bad = Atomic.make 0 in
  let on_blocked genv mine rt got =
    Atomic.incr seen;
    if got then Atomic.incr stuck;
    if reference_stuck genv mine rt <> got then Atomic.incr bad
  in
  Sched.set_stuck_probe (Some { Sched.on_blocked });
  Fun.protect ~finally:(fun () -> Sched.set_stuck_probe None) f;
  (Atomic.get seen, Atomic.get stuck, Atomic.get bad)

let registry_agrees ~por ~jobs () =
  let seen, _, bad =
    with_reference_probe (fun () ->
        Verify.with_engine ~por ~jobs (fun () ->
            List.iter
              (fun (c : Registry.case) -> ignore (c.Registry.c_verify ()))
              Registry.all))
  in
  check
    (Fmt.str "registry reaches blocked configurations (%d)" seen)
    true (seen > 0);
  Alcotest.(check int) "disagreements with the reference" 0 bad

let test_injected () =
  let seen, stuck, bad =
    with_reference_probe (fun () ->
        List.iter
          (fun sc ->
            check
              (sc.Injected.dl_name ^ " still deadlocks")
              true
              (Injected.explore_scenario sc <> []))
          [ Injected.lock_inversion_scenario; Injected.leaked_lock_scenario ])
  in
  check "injected scenarios reach blocked configurations" true (seen > 0);
  check "some of them are genuinely stuck" true (stuck > 0);
  Alcotest.(check int) "disagreements with the reference" 0 bad

(* ------------------------------------------------------------------ *)
(* Synthetic worlds sized around the cap.                             *)
(* ------------------------------------------------------------------ *)

let cell = Ptr.of_int 1

let count_of s =
  Option.bind (Heap.find cell (Slice.joint s)) Value.as_int
  |> Option.value ~default:0

(* A [k]-state cyclic counter in the label's joint heap cell.  Every
   environment step rebuilds the heap, so wrapping back to 0 yields a
   structurally equal but physically fresh heap, and writes an explicit
   [Aux.Unit] external contribution where the start has none bound:
   both must read as the start state again, or the closure would count
   [k + 1] states. *)
let counter ~k name =
  let l = Label.make name in
  let inc s =
    [
      Slice.make_jaux ~jaux:(Slice.jaux s) ~self:Aux.Unit ~other:(Slice.other s)
        ~joint:(Heap.singleton cell (Value.int ((count_of s + 1) mod k)));
    ]
  in
  ( l,
    Concurroid.make ~label:l ~name ~coh:(fun _ -> true)
      ~transitions:[ Concurroid.internal ~name:"inc" inc ]
      ~enum:(fun () -> [])
      () )

(* A world of counters started at [starts] (default all 0), every
   label open to interference and every external contribution unbound,
   with a program blocked on one action that the [until] counter values
   (if any) enable. *)
let counter_world ?until ?starts cs =
  let labels = List.map fst cs in
  let starts =
    match starts with Some ns -> ns | None -> List.map (fun _ -> 0) cs
  in
  let st =
    List.fold_left2
      (fun st l n ->
        State.add l
          (Slice.make_jaux ~self:Aux.Unit ~jaux:Aux.Unit ~other:Aux.Unit
             ~joint:(Heap.singleton cell (Value.int n)))
          st)
      State.empty labels starts
  in
  let genv, mine =
    Sched.genv_of_state ~interfere:labels (World.of_list (List.map snd cs)) st
  in
  let genv =
    {
      genv with
      Sched.ext_other =
        List.fold_left
          (fun c l -> Contrib.remove l c)
          genv.Sched.ext_other labels;
    }
  in
  let enabled view =
    match until with
    | None -> false
    | Some targets ->
      List.for_all2
        (fun l n ->
          Option.bind (Heap.find cell (State.joint l view)) Value.as_int
          = Some n)
        labels targets
  in
  let wait =
    Action.make ~enabled ~name:"wait"
      ~safe:(fun _ -> true)
      ~step:(fun st -> ((), st))
      ~phys:(fun _ -> Action.Id)
      ()
  in
  (genv, mine, Sched.inject (Prog.act wait))

let blocked_world ?until sizes =
  counter_world ?until
    (List.mapi (fun i k -> counter ~k (Fmt.str "ctr%d_%d" i k)) sizes)

let expect ?until sizes want () =
  let genv, mine, rt = blocked_world ?until sizes in
  let name = String.concat " x " (List.map string_of_int sizes) in
  check (name ^ ": reference") want (reference_stuck genv mine rt);
  check (name ^ ": product") want (Sched.confirms_stuck genv mine rt)

let test_single_label () =
  expect [ 511 ] true ();
  expect [ 512 ] true ();
  expect [ 513 ] false ()

let test_product_at_cap () =
  expect [ 16; 32 ] true ();
  expect [ 16; 33 ] false ();
  expect [ 8; 8; 8 ] true ();
  expect [ 8; 8; 9 ] false ();
  expect [ 1; 512; 1 ] true ()

let test_reenabled () =
  expect ~until:[ 15; 31 ] [ 16; 32 ] false ();
  expect ~until:[ 15; 32 ] [ 16; 32 ] true ();
  (* over the cap, re-enabling or not, the answer is "not stuck" *)
  expect ~until:[ 0; 99 ] [ 16; 33 ] false ()

(* A shared cache changes effort, never answers: repeated and
   overlapping queries agree with the reference, and the counters show
   the product short-circuit and the cache at work. *)
let test_cache_and_counters () =
  let cache = Sched.new_stuck_cache () in
  let stats = Sched.new_stats () in
  let ask sizes =
    let genv, mine, rt = blocked_world sizes in
    let got = Sched.confirms_stuck ~cache ~stats genv mine rt in
    check "agrees with the reference" (reference_stuck genv mine rt) got
  in
  ask [ 16; 33 ];
  ask [ 16; 32 ];
  Alcotest.(check int) "calls" 2 stats.Sched.es_stuck_calls;
  Alcotest.(check int) "one product short-circuit" 1
    stats.Sched.es_stuck_cutoffs;
  Alcotest.(check int) "per-label states expanded" (16 + 33 + 16 + 32)
    stats.Sched.es_stuck_steps;
  (* fresh labels each time: nothing to share yet *)
  Alcotest.(check int) "no hits across worlds" 0 stats.Sched.es_stuck_hits;
  let genv, mine, rt = blocked_world [ 4; 600 ] in
  check "over the cap" false (Sched.confirms_stuck ~cache ~stats genv mine rt);
  check "again, from the cache" false
    (Sched.confirms_stuck ~cache ~stats genv mine rt);
  check "cache hits counted" true (stats.Sched.es_stuck_hits >= 2)

(* A walk that reaches a slice whose closure is cached as over the cap
   stops there: that closure is part of its own. *)
let test_over_propagates () =
  let cache = Sched.new_stuck_cache () in
  let stats = Sched.new_stats () in
  let c = counter ~k:max_int "unbounded" in
  let ask n =
    let genv, mine, rt = counter_world ~starts:[ n ] [ c ] in
    let got = Sched.confirms_stuck ~cache ~stats genv mine rt in
    check "agrees with the reference" (reference_stuck genv mine rt) got;
    check "over the cap" false got
  in
  ask 600;
  Alcotest.(check int) "first walk runs to the cap" Sched.stuck_closure_cap
    stats.Sched.es_stuck_steps;
  ask 100;
  Alcotest.(check int) "second walk stops at the cached slice" 1
    stats.Sched.es_stuck_hits;
  Alcotest.(check int) "having expanded only the slices before it"
    (Sched.stuck_closure_cap + 500)
    stats.Sched.es_stuck_steps

let suite =
  [
    Alcotest.test_case "closure sizes 511 / 512 / 513" `Quick test_single_label;
    Alcotest.test_case "product at the cap (16x32 vs 16x33)" `Quick
      test_product_at_cap;
    Alcotest.test_case "re-enabled program move" `Quick test_reenabled;
    Alcotest.test_case "shared cache and counters" `Quick
      test_cache_and_counters;
    Alcotest.test_case "cached over-cap closures propagate" `Quick
      test_over_propagates;
    Alcotest.test_case "injected scenarios agree" `Quick test_injected;
    Alcotest.test_case "registry agrees (POR off, -j 1)" `Slow
      (registry_agrees ~por:false ~jobs:1);
    Alcotest.test_case "registry agrees (POR on, -j 1)" `Slow
      (registry_agrees ~por:true ~jobs:1);
    Alcotest.test_case "registry agrees (POR off, -j 4)" `Slow
      (registry_agrees ~por:false ~jobs:4);
    Alcotest.test_case "registry agrees (POR on, -j 4)" `Slow
      (registry_agrees ~por:true ~jobs:4);
  ]
