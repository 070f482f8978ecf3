(* Host fingerprint, process counters and the copy-bandwidth probe. *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (String.trim (In_channel.input_all ic)))

let lines path = match read_file path with Some s -> String.split_on_char '\n' s | None -> []

let field_after_colon line =
  match String.index_opt line ':' with
  | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
  | None -> ""

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let cpu_model () =
  match List.find_opt (starts_with ~prefix:"model name") (lines "/proc/cpuinfo") with
  | Some l -> field_after_colon l
  | None -> "unknown"

(* Unified/data cache sizes of cpu0 by level, as /sys reports them. *)
let cache_size level =
  let rec go i =
    let dir = Printf.sprintf "/sys/devices/system/cpu/cpu0/cache/index%d" i in
    if not (Sys.file_exists dir) then "unknown"
    else
      match read_file (dir ^ "/level"), read_file (dir ^ "/type"), read_file (dir ^ "/size") with
      | Some l, Some ty, Some size when l = string_of_int level && ty <> "Instruction" -> size
      | _ -> go (i + 1)
  in
  go 0

let fingerprint_json () =
  Printf.sprintf
    "{\"cores\":%d,\"cpu\":\"%s\",\"ocaml\":\"%s\",\"flambda\":%b,\"l2\":\"%s\",\"l3\":\"%s\"}"
    (Domain.recommended_domain_count ())
    (String.escaped (cpu_model ()))
    Sys.ocaml_version Build_info.flambda (cache_size 2) (cache_size 3)

let status_mb key =
  match List.find_opt (starts_with ~prefix:key) (lines "/proc/self/status") with
  | Some l -> float_of_int (Scanf.sscanf (field_after_colon l) "%d" Fun.id) /. 1024.0
  | None -> nan

(* Resident high-water mark of this process, and its current resident
   set, in MiB. *)
let peak_rss_mb () = status_mb "VmHWM:"
let rss_mb () = status_mb "VmRSS:"

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* memcpy bandwidth over a buffer of [bytes], counting the bytes read and
   the bytes written; the median of [reps] copies. *)
let copy_gbps ~bytes ~reps =
  let len = bytes / 8 in
  let src = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
  let dst = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
  Bigarray.Array1.fill src 1.0;
  Bigarray.Array1.fill dst 0.0;
  let samples =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        Bigarray.Array1.blit src dst;
        let dt = Unix.gettimeofday () -. t0 in
        2.0 *. float_of_int (8 * len) /. dt /. 1e9)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (reps / 2)

(* --- order statistics -------------------------------------------------- *)

(* Linear interpolation between closest ranks (the usual "type 7"). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let h = q *. float_of_int (Array.length a - 1) in
    let lo = truncate h in
    let hi = Int.min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
