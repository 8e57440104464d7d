(* The metric catalogue and the result line.  BENCHMARK.json names the
   same metrics; the self-test checks that the two agree. *)

open Fcsl_report

(* "Ticketed lock" -> "ticketed-lock", "Prod/Cons" -> "prod-cons". *)
let slug s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as c -> Buffer.add_char b c
      | _ ->
        if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '-'
        then Buffer.add_char b '-')
    s;
  let r = Buffer.contents b in
  if r <> "" && r.[String.length r - 1] = '-' then
    String.sub r 0 (String.length r - 1)
  else r

let ladder = [ 100; 200; 400; 800; 1600 ]
let named_rate = 100
let p99_limit_ms = 10.

(* The layer calls the traced run spans. *)
let span_names =
  [
    "registry.c_verify";
    "independence.certs_all";
    "injected.explore_scenario";
    "journal.openj";
    "journal.verdict_of_digest";
    "client.submit";
    "client.ping";
    "client.health";
    "daemon.spawn";
  ]

let injected_names = [ "lock inversion"; "leaked lock" ]

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("memo_p99_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  let cases = List.map (fun c -> slug c.Registry.c_name) Registry.all in
  List.concat
    [
      [ ("independence.certs_s", "s") ];
      List.map (fun c -> ("verify." ^ c ^ ".s", "s")) cases;
      List.map (fun c -> ("verify." ^ c ^ ".states", "count")) cases;
      List.map (fun n -> ("injected." ^ slug n ^ ".s", "s")) injected_names;
      [
        ("sched.memo_hits", "count");
        ("sched.memo_misses", "count");
        ("sched.memo_hit_ratio", "ratio");
        ("sched.max_bucket", "count");
        ("sched.minor_words", "words");
        ("sched.outcomes", "count");
        ("sched.diverged", "count");
        ("por.sleep_skips", "count");
        ("pool.cpu_per_wall", "ratio");
        ("journal.fresh_units", "count");
        ("journal.bytes", "B");
        ("journal.recover_s", "s");
        ("journal.lookup_us", "us");
      ];
      List.map (fun c -> ("server.cold." ^ c ^ ".s", "s")) cases;
      [
        ("server.memo_hit_rate", "ratio");
        ("server.queue_depth_max", "count");
        ("server.shed_total", "count");
        ("client.ping_p50_ms", "ms");
        ("client.verdict_bytes", "B");
        ("loadgen.sent", "count");
        ("loadgen.completed", "count");
        ("loadgen.failed", "count");
        ("loadgen.error_rate", "ratio");
        ("loadgen.late_p99_ms", "ms");
        ("memo.samples", "count");
        ("memo.p50_ms", "ms");
        ("memo.max_rate", "1/s");
      ];
      List.concat_map
        (fun r ->
          [
            (Printf.sprintf "memo.r%d.p50_ms" r, "ms");
            (Printf.sprintf "memo.r%d.p99_ms" r, "ms");
          ])
        ladder;
      List.concat_map
        (fun n -> [ ("span." ^ n ^ ".self_s", "s"); ("span." ^ n ^ ".count", "count") ])
        span_names;
      [ ("trace.spans", "count"); ("trace.overhead_s", "s"); ("trace.wall_s", "s") ];
    ]

let valid_name n =
  let ok_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  String.length n >= 1
  && String.length n <= 64
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char n

let valid_unit u =
  let ok_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  String.length u >= 1 && String.length u <= 16 && String.for_all ok_char u

(* Values recorded during a run; [get] of an unrecorded metric is 0. *)
let values : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace values name v
let seti name v = set name (float_of_int v)
let add name v = set name (Option.value (Hashtbl.find_opt values name) ~default:0. +. v)
let get name = Option.value (Hashtbl.find_opt values name) ~default:0.

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* The result line: [catalogue] picks the end-to-end or the per-layer
   metrics.  Non-finite values (an empty sample) print as 0. *)
let result_line ~correct ~attempted ~failed catalogue =
  let fields =
    List.map
      (fun (n, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (number (get n)) u)
      catalogue
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct (max 1 attempted) failed
    (String.concat ", " fields)
