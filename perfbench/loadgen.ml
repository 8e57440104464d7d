(* The open-loop generator.  Requests are due on a seeded Poisson
   schedule and are sent when due whether or not earlier ones were
   answered (pipelined on the connection), so a stalled daemon receives
   the same load as a fast one; latency is timed from the due time.
   One thread per connection. *)

open Fcsl_service

type req = {
  idx : int;
  due : float;  (* absolute *)
  pick : int;  (* seeded choice among the answered cases *)
  mutable case : string;
  mutable sent : float;
  mutable done_ : float;
  mutable ok : bool;
  mutable err : string option;
}

let make_reqs rng ~start ~rate ~duration =
  Array.mapi
    (fun idx off ->
      {
        idx;
        due = start +. off;
        pick = Random.State.bits rng;
        case = "";
        sent = nan;
        done_ = nan;
        ok = false;
        err = None;
      })
    (Stats.poisson rng ~rate ~duration)

let latency_ms r = (r.done_ -. r.due) *. 1000.
let late_ms r = (r.sent -. r.due) *. 1000.

let int_field k v = Option.bind (Json.member k v) Json.to_int
let str_field k v = Option.bind (Json.member k v) Json.to_str
let bool_field k v = Option.value (Option.bind (Json.member k v) Json.to_bool) ~default:false

let verdict_of_frame v : Client.verdict option =
  match (int_field "job" v, str_field "case" v, int_field "status" v) with
  | Some v_job, Some v_case, Some v_status ->
    Some
      {
        Client.v_job;
        v_case;
        v_status;
        v_memo = bool_field "memo" v;
        v_fresh_units = Option.value (int_field "fresh_units" v) ~default:0;
        v_cancelled = bool_field "cancelled" v;
        v_frame = v;
      }
  | _ -> None

(* Drive [reqs] (sorted by due time) over one connection.  [choose r]
   names the case request [r] asks for at send time; [check] judges a
   verdict; [stop ()] returns true once no further request may be sent.
   [on_health] sees health frames polled every [health_every] seconds.
   Unanswered requests [grace] seconds after the last send fail as timed
   out. *)
let run_conn ?(parent = 0) ?(health_every = 0.) ?(on_health = fun _ -> ())
    ?(stop = fun () -> false) ~socket ~choose ~check ~grace (reqs : req array) =
  let conn = Client.connect ~socket in
  let unacked = Queue.create () in
  let by_job : (int, req Queue.t) Hashtbl.t = Hashtbl.create 256 in
  let orphans : (int, (float * Json.t) Queue.t) Hashtbl.t = Hashtbl.create 16 in
  let health_sent = Queue.create () in
  let next = ref 0 and open_ = ref 0 in
  let next_health = ref (Stats.now () +. health_every) in
  let last_send = ref (Stats.now ()) in
  let finish r ~t ~result =
    r.done_ <- t;
    decr open_;
    (match result with Ok () -> r.ok <- true | Error e -> r.err <- Some e);
    if !Trace.enabled then
      Trace.record
        {
          Trace.id = Atomic.fetch_and_add Trace.next_id 1;
          name = "client.submit";
          parent;
          req = r.idx;
          t0 = r.sent;
          t1 = t;
        }
  in
  let resolve r ~t frame =
    let result =
      match str_field "type" frame with
      | Some "verdict" -> (
        match verdict_of_frame frame with
        | Some v -> check r v
        | None -> Error "verdict frame missing fields")
      | Some "shed" -> Error ("shed: " ^ Option.value (str_field "reason" frame) ~default:"?")
      | _ -> Error ("error frame: " ^ Json.to_string frame)
    in
    finish r ~t ~result
  in
  let on_frame t v =
    match str_field "type" v with
    | Some "ack" -> (
      match (Queue.take_opt unacked, int_field "job" v) with
      | Some r, Some job -> (
        match Hashtbl.find_opt orphans job with
        | Some q when not (Queue.is_empty q) ->
          let t', frame = Queue.pop q in
          resolve r ~t:t' frame
        | _ ->
          let q =
            match Hashtbl.find_opt by_job job with
            | Some q -> q
            | None ->
              let q = Queue.create () in
              Hashtbl.replace by_job job q;
              q
          in
          Queue.push r q)
      | _ -> ())
    | Some ("verdict" | "error") when int_field "job" v <> None -> (
      let job = Option.get (int_field "job" v) in
      match Hashtbl.find_opt by_job job with
      | Some q when not (Queue.is_empty q) -> resolve (Queue.pop q) ~t v
      | _ ->
        (* the verdict overtook its ack *)
        let q =
          match Hashtbl.find_opt orphans job with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.replace orphans job q;
            q
        in
        Queue.push (t, v) q)
    | Some ("shed" | "error") -> (
      (* answers a submission in place of its ack *)
      match Queue.take_opt unacked with Some r -> resolve r ~t v | None -> ())
    | Some "health" ->
      (match Queue.take_opt health_sent with
      | Some t0 when !Trace.enabled ->
        Trace.record
          {
            Trace.id = Atomic.fetch_and_add Trace.next_id 1;
            name = "client.health";
            parent;
            req = 0;
            t0;
            t1 = t;
          }
      | _ -> ());
      on_health v
    | _ -> ()
  in
  let read ~timeout_s =
    match Client.read_frame ~timeout_s conn with
    | Ok v ->
      on_frame (Stats.now ()) v;
      true
    | Error _ -> false
  in
  let n = Array.length reqs in
  let sending () = !next < n && not (stop ()) in
  let rec loop () =
    let t = Stats.now () in
    if health_every > 0. && t >= !next_health && sending () then begin
      next_health := t +. health_every;
      Queue.push t health_sent;
      Client.send conn Protocol.Health;
      loop ()
    end
    else if sending () && reqs.(!next).due <= t then begin
      let r = reqs.(!next) in
      incr next;
      r.case <- choose r;
      r.sent <- Stats.now ();
      last_send := r.sent;
      Queue.push r unacked;
      incr open_;
      Client.send conn (Protocol.Submit { case = r.case; qos = Protocol.Gold });
      (* keep the reply stream drained while catching up *)
      ignore (read ~timeout_s:1e-4);
      loop ()
    end
    else if sending () then begin
      let until = reqs.(!next).due in
      let until = if health_every > 0. then Float.min until !next_health else until in
      ignore (read ~timeout_s:(Float.max 1e-4 (until -. t)));
      loop ()
    end
    else if !open_ > 0 && t < !last_send +. grace then begin
      ignore (read ~timeout_s:(Float.min 0.5 (!last_send +. grace -. t)));
      loop ()
    end
  in
  (try loop ()
   with e ->
     Array.iter
       (fun r ->
         if Float.is_nan r.done_ && not (Float.is_nan r.sent) then
           finish r ~t:(Stats.now ()) ~result:(Error (Printexc.to_string e)))
       reqs);
  Array.iter
    (fun r ->
      if (not (Float.is_nan r.sent)) && Float.is_nan r.done_ then
        finish r ~t:(Stats.now ()) ~result:(Error "timed out"))
    reqs;
  Client.close conn

type summary = {
  n_sent : int;
  n_ok : int;
  n_failed : int;
  lat_ms : float list;  (* answered-ok requests *)
  late_ms : float list;
  errors : string list;
}

let summarize (reqs : req array) =
  let sent = List.filter (fun r -> not (Float.is_nan r.sent)) (Array.to_list reqs) in
  let ok = List.filter (fun r -> r.ok) sent in
  {
    n_sent = List.length sent;
    n_ok = List.length ok;
    n_failed = List.length sent - List.length ok;
    lat_ms = List.map latency_ms ok;
    late_ms = List.map late_ms sent;
    errors = List.filter_map (fun r -> r.err) sent;
  }
