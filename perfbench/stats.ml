(* Order statistics and the seeded open-loop arrival schedule. *)

let now = Unix.gettimeofday

(* Nearest-rank quantile of an unsorted sample; [nan] when empty. *)
let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

let median xs = quantile 0.5 xs

(* Arrival offsets (seconds from the phase start) of a Poisson process
   of [rate] per second over [duration] seconds: exponential gaps drawn
   from [rng], so one seed gives one schedule. *)
let poisson rng ~rate ~duration =
  let rec go t acc =
    let u = Random.State.float rng 1.0 in
    let t = t -. (log (1. -. u) /. rate) in
    if t >= duration then List.rev acc else go t (t :: acc)
  in
  Array.of_list (go 0. [])

(* Process CPU seconds (all threads and domains, user + system). *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
