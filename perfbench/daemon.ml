(* A real `fcsl serve` child process: spawned from the workspace build,
   stopped with a drain frame (SIGKILL as the last resort) and always
   reaped.  Its peak RSS and CPU time come from /proc/<pid>. *)

open Fcsl_service

type t = { pid : int; socket : string; journal : string; mutable alive : bool }

let live : t list ref = ref []

(* built by run.sh next to the benchmark *)
let fcsl_bin = "_build/default/bin/fcsl_cli.exe"

(* Field [key] of /proc/<pid>/status, in kB. *)
let status_kb pid key =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        let k = String.length key in
        if String.length line > k && String.sub line 0 k = key then
          Scanf.sscanf (String.sub line k (String.length line - k)) " %d" Fun.id
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

let vmhwm_mb pid = float_of_int (status_kb pid "VmHWM:") /. 1024.

(* utime + stime of a process, in seconds. *)
let cpu_s pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
    let line = input_line ic in
    close_in ic;
    (* fields after the parenthesised command name *)
    let rest =
      let i = String.rindex line ')' in
      String.sub line (i + 2) (String.length line - i - 2)
    in
    let f = Array.of_list (String.split_on_char ' ' rest) in
    let ticks = float_of_string f.(11) +. float_of_string f.(12) in
    ticks /. 100.

let spawn ?(resume = false) ~dir () =
  let socket = Filename.concat dir "sock" and journal = Filename.concat dir "journal" in
  (try Sys.remove socket with Sys_error _ -> ());
  let args =
    [ fcsl_bin; "serve"; "--socket"; socket; "--journal"; journal ]
    @ if resume then [ "--resume" ] else []
  in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Trace.with_span "daemon.spawn" (fun _ ->
        let pid =
          Unix.create_process fcsl_bin (Array.of_list args) Unix.stdin log log
        in
        let d = { pid; socket; journal; alive = true } in
        live := d :: !live;
        if not (Client.wait_ready ~timeout_s:30. ~socket ()) then
          failwith "fcsl serve did not become ready within 30 s";
        pid)
  in
  Unix.close log;
  List.find (fun d -> d.pid = pid) !live

let rec waitpid_timeout pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
    if Stats.now () > deadline then false
    else begin
      Unix.sleepf 0.01;
      waitpid_timeout pid deadline
    end
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let kill d =
  if d.alive then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (waitpid_timeout d.pid (Stats.now () +. 10.));
    d.alive <- false
  end

(* Graceful stop: a drain frame, then wait for the exit. *)
let stop d =
  if d.alive then begin
    (try
       let c = Client.connect ~socket:d.socket in
       ignore (Client.drain ~timeout_s:30. c);
       Client.close c
     with _ -> ());
    if waitpid_timeout d.pid (Stats.now () +. 30.) then d.alive <- false else kill d
  end

let kill_all () = List.iter kill !live

(* Files of a journal directory, in bytes. *)
let dir_bytes dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
    Array.fold_left
      (fun acc n ->
        match Unix.stat (Filename.concat dir n) with
        | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
        | _ -> acc
        | exception Unix.Unix_error _ -> acc)
      0 names

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
