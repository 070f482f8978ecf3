(* Spans the benchmark records around its calls into the program, in
   traced runs only. Each span has a name, a start, an end, the span that
   caused it (0 for none) and the id of the job it belongs to; they stay in
   memory and are written out once, when the run ends. Recording happens
   on the benchmark's own thread only. *)

type t = { id : int; parent : int; job : string; name : string; start : float; stop : float }

let on = ref false
let next = ref 1
let spans : t list ref = ref []
let stack : int list ref = ref []

let enable b = on := b
let now = Unix.gettimeofday

let current () = match !stack with p :: _ -> p | [] -> 0

let reserve () =
  let id = !next in
  incr next;
  id

(* A span timed by the caller; [id] comes from [reserve] when children
   must name their parent before the span ends. *)
let record ?(id = reserve ()) ?(parent = current ()) ~job name ~start ~stop =
  if !on then spans := { id; parent; job; name; start; stop } :: !spans

(* [within ~job name f] times [f ()] as a span nested under the innermost
   open one; with tracing off it is [f ()]. *)
let within ?parent ~job name f =
  if not !on then f ()
  else begin
    let id = reserve () in
    let parent = match parent with Some p -> p | None -> current () in
    stack := id :: !stack;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
          stack := List.tl !stack;
          spans := { id; parent; job; name; start; stop = now () } :: !spans)
      f
  end

(* Self time: a span's duration minus the part of it its children cover. *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) !spans;
  let covered s =
    let ivs =
      List.sort compare
        (List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
           (Hashtbl.find_all children s.id))
    in
    let total, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
           let a = Float.max a reach in
           if b > a then (acc +. (b -. a), b) else (acc, reach))
        (0.0, neg_infinity) ivs
    in
    total
  in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
       let self = s.stop -. s.start -. covered s in
       let prev = Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0 in
       Hashtbl.replace by_name s.name (prev +. self))
    !spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       output_string oc "[\n";
       List.iteri
         (fun i s ->
            Printf.fprintf oc "%s{\"id\":%d,\"parent\":%d,\"job\":\"%s\",\"name\":\"%s\",\"start\":%.6f,\"end\":%.6f}\n"
              (if i = 0 then "" else ",")
              s.id s.parent s.job s.name s.start s.stop)
         (List.rev !spans);
       output_string oc "]\n")
