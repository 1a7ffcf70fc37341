(* One child process, measured from outside: monotonic wall time, CPU
   time from the child fields of [Unix.times], and peak resident memory
   from [/proc/<pid>/status].

   RSS blind spot: VmHWM is polled every [poll_s] until the child is
   reaped, and a zombie no longer reports it, so growth in the last
   poll interval before exit is missed.  The checker's live state peaks
   well before its last few milliseconds, so the reading is a lower
   bound that is tight in practice. *)

let poll_s = 0.005

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = {
  status : Unix.process_status;
  timed_out : bool;
  wall_s : float;
  cpu_s : float;
  peak_rss_mb : float;
  stdout : string list;
}

let vm_hwm_kb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
      (String.split_on_char '\n' text)

let child_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let run ~timeout_s ~stdout_path prog args =
  let fd =
    Unix.openfile stdout_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let cpu0 = child_cpu () in
  let t0 = now_s () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd
          Unix.stderr)
  in
  let hwm = ref 0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      Option.iter (fun kb -> hwm := max !hwm kb) (vm_hwm_kb pid);
      if now_s () -. t0 > timeout_s then begin
        Unix.kill pid Sys.sigkill;
        (snd (Unix.waitpid [] pid), true)
      end
      else begin
        Unix.sleepf poll_s;
        wait ()
      end
    | _, status -> (status, false)
  in
  let status, timed_out = wait () in
  let wall_s = now_s () -. t0 in
  let cpu_s = child_cpu () -. cpu0 in
  let stdout =
    In_channel.with_open_text stdout_path In_channel.input_lines
  in
  {
    status;
    timed_out;
    wall_s;
    cpu_s;
    peak_rss_mb = float_of_int !hwm /. 1024.;
    stdout;
  }

let exit_code t =
  match t.status with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
