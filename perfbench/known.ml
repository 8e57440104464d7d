(* Known answers: every verdict a run produces is checked against
   known_answers.json.  A registry row's answer is its service-canonical
   verdict projection (Protocol.canonical_verdict) without the
   exploration-effort counters, which legitimately differ between the
   offline sweep (POR on, a domain pool) and the daemon (POR off, one
   domain); the injected scenarios' answer is the crash kind and the
   witness lock names. *)

open Fcsl_core
open Fcsl_analysis
open Fcsl_service

let path = "perfbench/known_answers.json"

(* Counters that depend on the engine's reductions, not on the verdict. *)
let effort_keys = [ "states"; "outcomes"; "diverged" ]

let project (canonical : Json.t) : Json.t =
  match canonical with
  | Json.Obj kvs ->
    Json.Obj
      (List.map
         (fun (k, v) ->
           match (k, v) with
           | "reports", Json.Arr rs ->
             ( k,
               Json.Arr
                 (List.map
                    (function
                      | Json.Obj r ->
                        Json.Obj
                          (List.filter (fun (k, _) -> not (List.mem k effort_keys)) r)
                      | r -> r)
                    rs) )
           | _ -> (k, v))
         kvs)
  | v -> v

(* The canonical verdict of an offline run, rendered through the same
   verdict-frame function the daemon uses. *)
let offline_canonical ~case (reports : Verify.report list) : Json.t =
  let frame =
    Protocol.verdict ~job:0 ~case
      ~digest:(Protocol.digest ~case ~qos:Protocol.Gold)
      ~memo:false ~fresh_units:0 ~cancelled:false ~reports ()
  in
  match Json.parse frame with
  | Ok v -> Protocol.canonical_verdict v
  | Error e -> failwith ("unparseable verdict frame: " ^ e)

type injected = { i_name : string; i_kind : string; i_locks : string list }

type t = { cases : (string * Json.t) list; injected : injected list }

let load () : t =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let fail m = failwith (path ^ ": " ^ m) in
  let v = match Json.parse text with Ok v -> v | Error e -> fail e in
  let list k o =
    match Option.bind (Json.member k o) Json.to_list with
    | Some l -> l
    | None -> fail ("missing list " ^ k)
  in
  let str k o =
    match Option.bind (Json.member k o) Json.to_str with
    | Some s -> s
    | None -> fail ("missing string " ^ k)
  in
  {
    cases = List.map (fun c -> (str "case" c, c)) (list "cases" v);
    injected =
      List.map
        (fun i ->
          {
            i_name = str "name" i;
            i_kind = str "kind" i;
            i_locks = List.map (fun l -> Option.value (Json.to_str l) ~default:"") (list "locks" i);
          })
        (list "injected" v);
  }

let save (cases : (string * Json.t) list) (injected : injected list) =
  let oc = open_out_bin path in
  let strs l = "[" ^ String.concat ", " (List.map (Printf.sprintf "%S") l) ^ "]" in
  Printf.fprintf oc "{\"cases\": [\n%s\n],\n\"injected\": [\n%s\n]}\n"
    (String.concat ",\n" (List.map (fun (_, j) -> Json.to_string j) cases))
    (String.concat ",\n"
       (List.map
          (fun i ->
            Printf.sprintf "{\"name\": %S, \"kind\": %S, \"locks\": %s}" i.i_name
              i.i_kind (strs i.i_locks))
          injected));
  close_out oc

(* [Ok ()] when [canonical] (a verdict's canonical projection) carries
   the known answer for [case]. *)
let check_case (k : t) ~case (canonical : Json.t) : (unit, string) result =
  match List.assoc_opt case k.cases with
  | None -> Error (Printf.sprintf "%s: no known answer" case)
  | Some expected ->
    let got = project canonical in
    if got = expected then Ok ()
    else
      Error
        (Printf.sprintf "%s: verdict %s, known answer %s" case (Json.to_string got)
           (Json.to_string expected))

let injected_answer (sc : Injected.deadlock_scenario) (crashes : Crash.t list) =
  match crashes with
  | [] -> None
  | c :: _ ->
    Some
      {
        i_name = sc.Injected.dl_name;
        i_kind = Crash.kind_name (Crash.kind c);
        i_locks = Deadlock.witness_locks c;
      }

(* Every crash must carry the known kind and witness locks, and there
   must be at least one. *)
let check_injected (k : t) (sc : Injected.deadlock_scenario) (crashes : Crash.t list) :
    (unit, string) result =
  let name = sc.Injected.dl_name in
  match List.find_opt (fun i -> i.i_name = name) k.injected with
  | None -> Error (name ^ ": no known answer")
  | Some expected ->
    if crashes = [] then Error (name ^ ": no crash found, a crash is the known answer")
    else
      List.fold_left
        (fun acc c ->
          match acc with
          | Error _ -> acc
          | Ok () ->
            let kind = Crash.kind_name (Crash.kind c) in
            let locks = Deadlock.witness_locks c in
            if kind = expected.i_kind && locks = expected.i_locks then Ok ()
            else
              Error
                (Printf.sprintf "%s: crash %s on locks [%s], known answer %s on [%s]"
                   name kind (String.concat "," locks) expected.i_kind
                   (String.concat "," expected.i_locks)))
        (Ok ()) crashes

(* The self-test's mutation: the same answers with [case]'s expected
   status flipped. *)
let flip_status (k : t) ~case : t =
  {
    k with
    cases =
      List.map
        (fun (c, j) ->
          if c <> case then (c, j)
          else
            match j with
            | Json.Obj kvs ->
              ( c,
                Json.Obj
                  (List.map
                     (fun (key, v) ->
                       match (key, v) with
                       | "status", Json.Int s -> (key, Json.Int (if s = 0 then 1 else 0))
                       | _ -> (key, v))
                     kvs) )
            | j -> (c, j))
        k.cases;
  }
