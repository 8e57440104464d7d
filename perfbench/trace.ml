(* Spans around the benchmark's calls into each layer.  Off unless
   [--trace 1]: an untraced run pays one branch per call.  Spans are
   kept in memory and written out once, when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* 0: no parent *)
  req : int;  (* request id, 0 when the call serves no request *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let next_id = Atomic.make 1
let mu = Mutex.create ()
let spans : span list ref = ref []

let record s =
  Mutex.lock mu;
  spans := s :: !spans;
  Mutex.unlock mu

(* [with_span name f] runs [f id]; children pass [id] as [~parent]. *)
let with_span ?(parent = 0) ?(req = 0) name f =
  if not !enabled then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = Stats.now () in
    Fun.protect
      ~finally:(fun () -> record { id; name; parent; req; t0; t1 = Stats.now () })
      (fun () -> f id)
  end

let all () = List.rev !spans
let reset () = spans := []

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | None -> (total, Some (a, b))
        | Some (la, lb) ->
          if a <= lb then (total, Some (la, Float.max lb b))
          else (total +. (lb -. la), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Per span name: (count, self seconds).  Self time is a span's
   duration minus the part of it its child spans cover. *)
let self_times () =
  let all = all () in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    all;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0
        -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id)
      in
      let n, t = Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0.) in
      Hashtbl.replace acc s.name (n + 1, t +. self))
    all;
  acc

(* Cost of recording one span, measured on a private buffer so the run's
   trace is untouched. *)
let span_cost_s () =
  let n = 20_000 in
  let buf = ref [] in
  let t0 = Stats.now () in
  for i = 1 to n do
    let a = Stats.now () in
    buf := { id = i; name = "calibrate"; parent = 0; req = 0; t0 = a; t1 = Stats.now () }
           :: !buf
  done;
  let dt = Stats.now () -. t0 in
  ignore (Sys.opaque_identity !buf);
  dt /. float_of_int n

let write path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"name\": %S, \"parent\": %d, \"req\": %d, \"start\": %.6f, \"end\": %.6f}\n"
        (if i = 0 then "" else ",")
        s.id s.name s.parent s.req s.t0 s.t1)
    (all ());
  output_string oc "]\n";
  close_out oc
