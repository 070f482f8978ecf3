(* perfbench: the FlatDD benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe reference --workload NAME --seed N --out DIR

   The first form runs one workload for S seconds of whole rounds and
   prints, as its last line, one JSON object with [correct], [attempted],
   [failed] and [metrics]: the end-to-end metrics with [--trace 0], the
   per-layer ones with [--trace 1]. The second writes the dense reference
   states of a flat workload's jobs to DIR; a run calls it in a child
   process, so the reference never counts toward the measured process's
   memory.

   Load: one process, never more OCaml domains than cores (main + pool
   workers + scheduler slots <= 2 here), closed loops only. The in-process
   workloads run one job at a time; serve-mix keeps [window] jobs
   outstanding on its one connection. *)

open Perfbench_lib

let out_root = Filename.concat "perfbench" "_out"
let now = Unix.gettimeofday

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* --- arguments ---------------------------------------------------------- *)

type args = {
  mode : [ `Run | `Reference ];
  workload : Inputs.workload;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;
}

let parse_args () =
  let argv = Array.to_list Sys.argv |> List.tl in
  let mode, argv =
    match argv with "reference" :: rest -> (`Reference, rest) | _ -> (`Run, argv)
  in
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> die "unexpected argument %S" x
  in
  let kv = go [] argv in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> die "missing --%s" k in
  let int_of k = match int_of_string_opt (get k) with Some v -> v | None -> die "--%s: not an integer" k in
  let workload =
    match Inputs.find (get "workload") with
    | Some w -> w
    | None -> die "unknown workload %S" (get "workload")
  in
  match mode with
  | `Reference ->
    { mode; workload; seed = int_of "seed"; seconds = 0.0; trace = false; out = get "out" }
  | `Run ->
    let seconds = float_of_int (int_of "seconds") in
    if seconds <= 0.0 then die "--seconds must be positive";
    let trace = match get "trace" with "0" -> false | "1" -> true | _ -> die "--trace is 0 or 1" in
    { mode; workload; seed = int_of "seed"; seconds; trace; out = "" }

(* --- shared bookkeeping ------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable correct : bool }

let tally = { attempted = 0; failed = 0; correct = true }

let fail_check what =
  prerr_endline ("perfbench: check failed: " ^ what);
  tally.correct <- false

(* Rounds of the same jobs until [seconds] have passed; at least two, so
   that one follows the warm-up round. *)
let rounds ~seconds f =
  let t0 = now () in
  let k = ref 0 in
  while !k < 2 || now () -. t0 < seconds do
    f !k;
    incr k
  done

(* A per-round figure, reported as its median over the rounds. *)
type series = (string, float list) Hashtbl.t

let push (s : series) name v =
  Hashtbl.replace s name (v :: Option.value (Hashtbl.find_opt s name) ~default:[])

let med (s : series) name = match Hashtbl.find_opt s name with Some l -> Host.median l | None -> 0.0

(* Obs counters, fcounters and span seconds accumulated over one round. *)
let obs_round f =
  let before = Obs.Metrics.snapshot () in
  f ();
  Obs.Metrics.diff before (Obs.Metrics.snapshot ())

let cnt d name = float_of_int (Option.value (Obs.Metrics.counter_value d name) ~default:0)
let fcnt d name = Option.value (Obs.Metrics.fcounter_value d name) ~default:0.0
let gauge d name = float_of_int (Option.value (Obs.Metrics.gauge_value d name) ~default:0)

let span_s d name =
  match Obs.Metrics.span_value d name with Some s -> s.Obs.Metrics.seconds | None -> 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Per-round figures every workload reports from the Obs delta. *)
let push_obs_layers (s : series) d =
  push s "dense.gates" (cnt d "dmav.dispatch.dense");
  push s "convert.amplitudes" (cnt d "convert.filled_amplitudes");
  push s "fusion.gates_in" (cnt d "fusion.gates_in");
  push s "fusion.gates_out" (cnt d "fusion.gates_out");
  push s "fusion.ddmm_calls" (cnt d "fusion.ddmm_calls");
  push s "fusion.macs_saved" (fcnt d "fusion.macs_saved");
  push s "pool.busy_s" (span_s d "pool.worker_busy");
  push s "pool.admission_wait_s" (span_s d "pool.admission_wait");
  push s "dd.vnodes_peak" (gauge d "dd.unique.vnodes.peak");
  push s "dd.mnodes_peak" (gauge d "dd.unique.mnodes.peak");
  let created = cnt d "dd.unique.vnodes.created" +. cnt d "dd.unique.mnodes.created" in
  let reused = cnt d "dd.unique.vnodes.reused" +. cnt d "dd.unique.mnodes.reused" in
  push s "dd.unique_reuse_ratio" (ratio reused (created +. reused));
  push s "dd.gc_runs" (cnt d "dd.gc.runs");
  push s "ctable.lookups" (cnt d "ctable.lookups");
  push s "ctable.hit_ratio" (ratio (cnt d "ctable.hits") (cnt d "ctable.lookups"));
  push s "ctable.collisions" (cnt d "ctable.collisions");
  push s "serve.journal_writes" (cnt d "serve.journal.writes");
  push s "serve.warm_hit_ratio"
    (ratio (cnt d "serve.warm_hits") (cnt d "serve.warm_hits" +. cnt d "serve.warm_misses"))

(* The process-level figures of one round. *)
let with_process (s : series) f =
  let c0 = Host.cpu_seconds () and g0 = Gc.quick_stat () in
  f ();
  let g1 = Gc.quick_stat () in
  push s "process.cpu_s" (Host.cpu_seconds () -. c0);
  push s "process.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  push s "process.major_gcs" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections))

(* The per-layer metrics, in the order BENCHMARK.json lists them. *)
let layer_names =
  [ ("dmav.gates_uncached", "count"); ("dmav.gates_cached", "count");
    ("dmav.cache_hits", "count"); ("dmav.macs_modeled", "count");
    ("dmav.ns_per_amp_gate", "ns"); ("dmav.gate_p50_s", "s"); ("dmav.gate_p99_s", "s");
    ("dmav.bytes_computed", "bytes"); ("dmav.roofline_ratio", "ratio");
    ("dense.gates", "count"); ("convert.s", "s"); ("convert.amplitudes", "count");
    ("fusion.s", "s"); ("fusion.gates_in", "count"); ("fusion.gates_out", "count");
    ("fusion.ddmm_calls", "count"); ("fusion.macs_saved", "count");
    ("pool.busy_s", "s"); ("pool.admission_wait_s", "s"); ("pool.busy_share", "ratio");
    ("dd.vnodes_peak", "count"); ("dd.mnodes_peak", "count");
    ("dd.unique_reuse_ratio", "ratio"); ("dd.gc_runs", "count");
    ("ctable.lookups", "count"); ("ctable.hit_ratio", "ratio"); ("ctable.collisions", "count");
    ("engine.dd_s", "s"); ("engine.convert_s", "s"); ("engine.flat_s", "s");
    ("engine.setup_s", "s"); ("engine.gates_dd", "count"); ("engine.gates_flat", "count");
    ("engine.peak_model_mb", "MB");
    ("circuit.parse_s", "s"); ("circuit.gates_parsed", "count");
    ("sched.queue_wait_s", "s"); ("sched.run_s", "s"); ("sched.jobs", "count");
    ("serve.overhead_p50_s", "s"); ("serve.journal_write_s", "s");
    ("serve.journal_writes", "count"); ("serve.warm_hit_ratio", "ratio");
    ("host.copy_gbps", "GB/s"); ("process.cpu_s", "s"); ("process.minor_words", "count");
    ("process.major_gcs", "count"); ("trace.overhead_s", "s");
    ("self.bench_s", "s"); ("self.parse_s", "s"); ("self.warm_s", "s");
    ("self.driver_s", "s"); ("self.check_s", "s"); ("self.client_s", "s");
    ("self.journal_s", "s") ]

(* Span names, one per layer the benchmark calls into. *)
let sp_bench = "bench" and sp_parse = "parse" and sp_warm = "warm" and sp_driver = "driver"
and sp_check = "check" and sp_client = "client" and sp_journal = "journal"

let push_self_times (s : series) ~rounds =
  let selfs = Span.self_times () in
  List.iter
    (fun name ->
       let v = Option.value (List.assoc_opt name selfs) ~default:0.0 in
       push s ("self." ^ name ^ "_s") (v /. float_of_int (Int.max 1 rounds)))
    [ sp_bench; sp_parse; sp_warm; sp_driver; sp_check; sp_client; sp_journal ]

let metric_json (name, unit, v) =
  let v = if Float.is_finite v then v else 0.0 in
  Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" name v unit

let print_result metrics =
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    tally.correct tally.attempted tally.failed
    (String.concat "," (List.map metric_json metrics))

(* Job latencies are summarized per round — the round's median and 95th
   percentile job — and each summary is reported as its median over the
   measured rounds. *)
let push_latencies (s : series) lat =
  push s "job_p50_s" (Host.median lat);
  push s "job_p95_s" (Host.quantile 0.95 lat)

(* The resident high-water mark is read at the end of this round in every
   run: the resident set keeps growing over rounds of identical jobs, so a
   reading at the end of the run would depend on how many rounds the run's
   speed allowed. *)
let rss_round = 2

let end_to_end ~setup ~run ~rss (lat : series) =
  [ ("setup_s", "s", Host.median setup);
    ("run_s", "s", Host.median run);
    ("peak_rss_mb", "MB", rss);
    ("job_p50_s", "s", med lat "job_p50_s");
    ("job_p95_s", "s", med lat "job_p95_s") ]

let per_layer (s : series) = List.map (fun (name, unit) -> (name, unit, med s name)) layer_names

(* --- the reference child process ----------------------------------------- *)

let ref_path dir (j : Inputs.job) = Filename.concat dir (j.Inputs.label ^ ".ref")

let write_references w ~seed ~out =
  List.iter
    (fun (j : Inputs.job) -> Refsim.save (Refsim.simulate j.Inputs.circuit) (ref_path out j))
    (Inputs.jobs w ~seed)

let build_references w ~seed ~dir =
  let args =
    [| Sys.executable_name; "reference"; "--workload"; w.Inputs.name;
       "--seed"; string_of_int seed; "--out"; dir |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> die "reference build failed for %s seed %d" w.Inputs.name seed

(* --- in-process workloads: flat-random, flat-fused, dd-regular ------------ *)

type setup = {
  pool : Pool.t;
  warm : Warm.t;
  resolved : (Inputs.job * Manifest.resolved) list;
}

(* One cold warm handle per qubit count (released so the rounds reuse
   it), manifest parsing and pool creation — everything before the first
   gate. Returns the set-up with the seconds its warm handles and its
   parsing took. The pool comes last: while a second domain is alive, the
   GC cycles the warm handles' large allocations set off need both domains,
   and a set-up then takes either about 8 or about 25 ms, at random. *)
let setup_inprocess (w : Inputs.workload) jobs ~dir =
  let warm = Warm.create () in
  let ns = List.sort_uniq compare (List.map (fun (j : Inputs.job) -> j.Inputs.spec.Inputs.n) jobs) in
  let t0 = now () in
  List.iter (fun n -> Warm.release warm (Warm.acquire warm ~n ())) ns;
  let t1 = now () in
  let default_config = Config.with_threads w.Inputs.pool Config.default in
  let resolved =
    List.mapi
      (fun index (j : Inputs.job) ->
         ( j,
           Manifest.parse_line ~default_config ~dir ~index
             (Inputs.with_id j.Inputs.label j.Inputs.line) ))
      jobs
  in
  let t2 = now () in
  let pool = Pool.create w.Inputs.pool in
  ({ pool; warm; resolved }, t1 -. t0, t2 -. t1)

let teardown st =
  Warm.drop_all st.warm;
  Pool.shutdown st.pool

(* The closed-form check of a DD-only job, through single amplitudes. *)
let check_regular (j : Inputs.job) (r : Driver.result) =
  let n = j.Inputs.spec.Inputs.n in
  let amp = Driver.amplitude r in
  match j.Inputs.spec.Inputs.family with
  | Suite.Ghz -> Refsim.ghz_ok ~n amp
  | Suite.Bv -> Refsim.bv_ok ~n ~secret:j.Inputs.seed amp
  | Suite.Qft -> Refsim.qft_ok ~n ~probes:32 amp
  | Suite.Adder -> Refsim.adder_ok j.Inputs.circuit amp
  | Suite.Grover ->
    Refsim.grover_ok ~n ~marked:0 ~iterations:(Refsim.grover_optimal_iterations n) amp
  | _ -> invalid_arg "check_regular: no closed form for this family"

let check_flat ~refdir (j : Inputs.job) (r : Driver.result) =
  let v = Refsim.compare_file (ref_path refdir j) (Driver.amplitudes r).Buf.data in
  if not v.Refsim.ok then
    Printf.eprintf "perfbench: %s: fidelity %.17g, norm %.17g (reference norm %.17g)\n%!"
      j.Inputs.label v.Refsim.fidelity v.Refsim.norm_out v.Refsim.norm_ref;
  v.Refsim.ok

(* Per-job figures of a traced round, from the Driver results. *)
let push_driver_layers (s : series) (results : (Inputs.job * Driver.result) list) =
  let sum f = List.fold_left (fun acc (_, r) -> acc +. f r) 0.0 results in
  let flat_gates (r : Driver.result) =
    float_of_int (r.Driver.dmav_gates_cached + r.Driver.dmav_gates_uncached)
  in
  let amp_gates = sum (fun r -> flat_gates r *. float_of_int (1 lsl r.Driver.n)) in
  let flat_s = sum (fun r -> r.Driver.seconds_dmav) in
  let gate_times =
    List.concat_map
      (fun (_, r) ->
         List.filter_map
           (fun (g : Engine.gate_record) ->
              if g.Engine.phase = Engine.Dmav_phase then Some g.Engine.seconds else None)
           r.Driver.trace)
      results
  in
  let kernel_s = List.fold_left ( +. ) 0.0 gate_times in
  (* Bytes computed from array sizes: each flat gate reads the 2ⁿ-amplitude
     source vector and writes the 2ⁿ-amplitude destination, 16 B each. *)
  let bytes = 2.0 *. 16.0 *. amp_gates in
  push s "dmav.gates_uncached" (sum (fun r -> float_of_int r.Driver.dmav_gates_uncached));
  push s "dmav.gates_cached" (sum (fun r -> float_of_int r.Driver.dmav_gates_cached));
  push s "dmav.cache_hits" (sum (fun r -> float_of_int r.Driver.dmav_cache_hits));
  push s "dmav.macs_modeled" (sum (fun r -> r.Driver.modeled_macs));
  push s "dmav.ns_per_amp_gate" (ratio (kernel_s *. 1e9) amp_gates);
  push s "dmav.gate_p50_s" (Host.median gate_times);
  push s "dmav.gate_p99_s" (Host.quantile 0.99 gate_times);
  push s "dmav.bytes_computed" bytes;
  push s "dmav.achieved_gbps" (ratio bytes kernel_s /. 1e9);
  push s "convert.s" (sum (fun r -> r.Driver.seconds_convert));
  (* Flat-phase time outside the per-gate kernels: building the gate
     matrices as DDs and, with fusion on, DMAV-aware fusion. *)
  push s "fusion.s" (Float.max 0.0 (flat_s -. kernel_s));
  push s "engine.dd_s" (sum (fun r -> r.Driver.seconds_dd));
  push s "engine.convert_s" (sum (fun r -> r.Driver.seconds_convert));
  push s "engine.flat_s" flat_s;
  push s "engine.gates_dd"
    (sum (fun r ->
         float_of_int
           (match r.Driver.converted_at with Some k -> k + 1 | None -> r.Driver.gates)));
  push s "engine.gates_flat" (sum flat_gates);
  push s "engine.peak_model_mb"
    (List.fold_left
       (fun acc (_, r) -> Float.max acc (float_of_int r.Driver.peak_memory_bytes /. 1048576.0))
       0.0 results)

(* The same layers for the daemon's jobs, whose Driver results stay inside
   the daemon: its Obs counters and spans. *)
let push_daemon_layers (s : series) d =
  push s "dmav.gates_uncached" (cnt d "dmav.kernel.uncached");
  push s "dmav.gates_cached" (cnt d "dmav.kernel.cached");
  push s "dmav.cache_hits" (cnt d "dmav.cache.hits");
  push s "dmav.macs_modeled" (fcnt d "dmav.macs.modeled");
  push s "convert.s" (span_s d "sim.convert");
  push s "engine.dd_s" (span_s d "sim.dd_phase");
  push s "engine.convert_s" (span_s d "sim.convert");
  push s "engine.flat_s" (span_s d "sim.dmav_phase");
  push s "engine.gates_dd" (cnt d "sim.gates_dd");
  push s "engine.gates_flat" (cnt d "sim.gates_dmav")


let run_dir (a : args) =
  Filename.concat out_root
    (Printf.sprintf "run-%s-%d-%d" a.workload.Inputs.name a.seed (Unix.getpid ()))

(* Set-up lasts milliseconds, so it is repeated and reported as its
   median. Each one is torn down before the next is made, so no more
   domains are alive than one set-up needs; the last serves the rounds. *)
let repeated_setup ~reps make teardown =
  let rec go k times =
    Gc.full_major ();
    let t0 = now () in
    let x = make k in
    let times = (now () -. t0) :: times in
    if k = reps - 1 then (x, times)
    else begin
      teardown x;
      go (k + 1) times
    end
  in
  go 0 []

(* Round 0 of every run is a warm-up: it fills the workspaces, the warm
   caches and, in serve-mix, the journal's done-tail. It is run and checked
   but not measured.

   Untraced rounds for half the run, then traced ones for the other half:
   the difference of their medians is the tracing cost. Returns the
   number of traced rounds. *)
let traced_halves ~seconds round =
  rounds ~seconds:(seconds /. 2.0) (round ~traced:false);
  Obs.set_enabled true;
  Span.enable true;
  let n = ref 0 in
  rounds ~seconds:(seconds /. 2.0) (fun k ->
      incr n;
      round ~traced:true (k + 1));
  !n

let finish_traced (a : args) (layers : series) ~traced_rounds ~untraced ~traced =
  push layers "trace.overhead_s" (Host.median traced -. Host.median untraced);
  push_self_times layers ~rounds:traced_rounds;
  mkdir_p out_root;
  Span.write (Filename.concat out_root (a.workload.Inputs.name ^ ".trace.json"));
  print_result (per_layer layers)

let run_inprocess (a : args) =
  let w = a.workload in
  let jobs = Inputs.jobs w ~seed:a.seed in
  let dir = run_dir a in
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
       let flat = w.Inputs.name <> "dd-regular" in
       if flat then build_references w ~seed:a.seed ~dir;
       let check j r = if flat then check_flat ~refdir:dir j r else check_regular j r in
       let breakdown = ref [] in
       let st, setup_times =
         repeated_setup ~reps:31
           (fun _ ->
              let st, warm_s, parse_s = setup_inprocess w jobs ~dir in
              breakdown := (warm_s, parse_s) :: !breakdown;
              st)
           teardown
       in
       let layers : series = Hashtbl.create 64 in
       let untraced = ref [] and traced_walls = ref [] and latencies : series = Hashtbl.create 2 in
       let rss = ref nan in
       let one_round ~traced k =
         let results = ref [] and lats = ref [] in
         let wall = ref 0.0 in
         let body () =
           List.iter
             (fun ((j : Inputs.job), (r : Manifest.resolved)) ->
                let job = Printf.sprintf "%s/%d" j.Inputs.label k in
                let cfg = { r.Manifest.job.Sched.config with Config.trace = traced } in
                let circuit = r.Manifest.job.Sched.circuit in
                tally.attempted <- tally.attempted + 1;
                Span.within ~job sp_bench (fun () ->
                    let t0 = now () in
                    let h =
                      Span.within ~job sp_warm (fun () ->
                          Warm.acquire st.warm ~n:circuit.Circuit.n ())
                    in
                    match
                      Span.within ~job sp_driver (fun () ->
                          Driver.run ~pool:st.pool ~package:h.Warm.package
                            ~workspace:h.Warm.workspace cfg circuit)
                    with
                    | exception e ->
                      Warm.release st.warm h;
                      tally.failed <- tally.failed + 1;
                      prerr_endline ("perfbench: " ^ j.Inputs.label ^ ": " ^ Printexc.to_string e)
                    | res ->
                      let t1 = now () in
                      if not (Span.within ~job sp_check (fun () -> check j res)) then
                        fail_check j.Inputs.label;
                      let t2 = now () in
                      Span.within ~job sp_warm (fun () -> Warm.release st.warm h);
                      (* The job's latency leaves out the benchmark's check. *)
                      let lat = t1 -. t0 +. (now () -. t2) in
                      if traced then results := (j, res) :: !results;
                      Printf.eprintf "round %d %s: %.4f s (converted at %s)\n%!" k j.Inputs.label lat
                        (match res.Driver.converted_at with
                         | Some g -> string_of_int g
                         | None -> "never");
                      lats := lat :: !lats;
                      wall := !wall +. lat))
             st.resolved
         in
         if traced then begin
           let d = obs_round (fun () -> with_process layers body) in
           push_obs_layers layers d;
           push_driver_layers layers (List.rev !results);
           push layers "pool.busy_share"
             (ratio (span_s d "pool.worker_busy") (!wall *. float_of_int w.Inputs.pool));
           traced_walls := !wall :: !traced_walls
         end
         else begin
           body ();
           Printf.eprintf "round %d: %.4f s, rss %.1f MB, peak %.1f MB, major heap %.1f MB\n%!" k
             !wall (Host.rss_mb ()) (Host.peak_rss_mb ())
             (float_of_int ((Gc.quick_stat ()).Gc.heap_words * 8) /. 1048576.0);
           if k = rss_round then rss := Host.peak_rss_mb ();
           if k > 0 then begin
             untraced := !wall :: !untraced;
             push_latencies latencies !lats
           end
         end
       in
       if a.trace then begin
         let traced_rounds = traced_halves ~seconds:a.seconds one_round in
         let max_n =
           List.fold_left (fun m (j : Inputs.job) -> Int.max m j.Inputs.spec.Inputs.n) 0 jobs
         in
         (* The copy probe runs over a buffer the size of the largest flat
            state (capped at 64 MiB for the DD-only workload's 40 qubits). *)
         let gbps = Host.copy_gbps ~bytes:(16 lsl Int.min max_n 22) ~reps:15 in
         push layers "host.copy_gbps" gbps;
         push layers "dmav.roofline_ratio" (ratio (med layers "dmav.achieved_gbps") gbps);
         (* Set-up figures: cold warm handles and manifest parsing, over the
            repeated set-ups. *)
         push layers "engine.setup_s" (Host.median (List.map fst !breakdown));
         push layers "circuit.parse_s" (Host.median (List.map snd !breakdown));
         push layers "circuit.gates_parsed"
           (float_of_int
              (List.fold_left
                 (fun acc (_, (r : Manifest.resolved)) ->
                    acc + Circuit.num_gates r.Manifest.job.Sched.circuit)
                 0 st.resolved));
         teardown st;
         finish_traced a layers ~traced_rounds ~untraced:!untraced ~traced:!traced_walls
       end
       else begin
         rounds ~seconds:a.seconds (one_round ~traced:false);
         if Float.is_nan !rss then rss := Host.peak_rss_mb ();
         teardown st;
         print_result (end_to_end ~setup:setup_times ~run:!untraced ~rss:!rss latencies)
       end)

(* --- serve-mix: a daemon in this process, one client connection ----------- *)

let window = 4

type daemon = { d : Serve.t; thread : Thread.t; conn : Client.connection }

(* Daemon creation with its journal open, bind, connect and hello — up to
   the first round trip on the new connection. *)
let start_daemon ~dir ~rep =
  let socket_path = Filename.concat dir (Printf.sprintf "d%d.sock" rep) in
  let cfg =
    { Serve.default_config with
      Serve.socket_path;
      slots = 1;
      pool_threads = 1;
      journal_path = Some (Filename.concat dir (Printf.sprintf "journal%d.jsonl" rep));
      journal_tail = 128;
      strict = true }
  in
  let d = Serve.create cfg in
  let thread = Thread.create Serve.run d in
  (* Retry until the daemon thread has bound and listens, without the
     client's 50 ms retry backoff, which would quantize the set-up time. *)
  let rec connect tries =
    match Client.connect ~socket_path () with
    | c -> c
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when tries > 0 ->
      Thread.delay 0.0002;
      connect (tries - 1)
  in
  let conn = connect 50000 in
  Client.send_request conn
    (Protocol.Hello_req { timings = true; metrics = false; tenant = Some "bench" });
  Client.send_request conn Protocol.Ping;
  (match Client.read_frame conn with
   | Protocol.Pong -> ()
   | _ -> die "daemon did not answer the first ping");
  { d; thread; conn }

let stop_daemon dm =
  Client.send_request dm.conn Protocol.End_req;
  let rec bye () = match Client.read_frame dm.conn with Protocol.Bye _ -> () | _ -> bye () in
  bye ();
  Client.close dm.conn;
  Serve.stop dm.d;
  Thread.join dm.thread

let json_num kvs k =
  match List.assoc_opt k kvs with
  | Some (Obs.Metrics.Jnum s) -> float_of_string_opt s
  | _ -> None

let json_str kvs k =
  match List.assoc_opt k kvs with Some (Obs.Metrics.Jstr s) -> Some s | _ -> None

(* Each round sends its jobs in its own order, drawn from the seed and the
   round number. A job's latency covers the jobs queued ahead of it in the
   window, so a fixed order would tie each job to the same neighbours and
   leave the latencies in clumps around the median. *)
let send_order ~seed ~round total =
  let rng = Random.State.make [| 0x0de5; seed; round |] in
  let order = Array.init total Fun.id in
  for i = total - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  order

let run_serve (a : args) =
  let w = a.workload in
  let jobs = Array.of_list (Inputs.jobs w ~seed:a.seed) in
  let dir = run_dir a in
  let inputs = Filename.concat dir "inputs" in
  mkdir_p inputs;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
       Inputs.write_qasm ~dir:inputs (Array.to_list jobs);
       let expected =
         Array.map (fun (j : Inputs.job) -> Refsim.p0 (Refsim.simulate j.Inputs.circuit)) jobs
       in
       let dm, setup_times =
         repeated_setup ~reps:21 (fun rep -> start_daemon ~dir ~rep) stop_daemon
       in
       let conn = dm.conn in
       let layers : series = Hashtbl.create 64 in
       let untraced = ref [] and traced_walls = ref [] and latencies : series = Hashtbl.create 2 in
       let journal_pairs = ref [] in
       let rss = ref nan in
       let round_no = ref 0 in
       (* Lines are parsed and pinned client-side before a round starts, as
          [Client.run_manifest] does; ids are unique over the daemon's life
          so that no job is answered from its journal. *)
       let pin () =
         incr round_no;
         let t0 = now () in
         let pinned =
           Array.mapi
             (fun index (j : Inputs.job) ->
                let id = Printf.sprintf "r%d-%s" !round_no j.Inputs.label in
                Span.within ~job:id sp_parse (fun () ->
                    let line = Inputs.with_id id j.Inputs.line in
                    let r = Manifest.parse_line ~dir:inputs ~index line in
                    (id, Client.pin_line ~dir:inputs r line)))
             jobs
         in
         (pinned, now () -. t0)
       in
       let one_round ~traced k =
         let pinned, parse_s = pin () in
         let total = Array.length pinned in
         let order = send_order ~seed:a.seed ~round:!round_no total in
         let index = Hashtbl.create total in
         let roots = Array.make total 0 in
         let sent = Array.make total 0.0 and lat = Array.make total 0.0 in
         let got = Array.make total "" in
         let next = ref 0 and pending = ref total in
         let send () =
           let k = order.(!next) in
           incr next;
           let id, line = pinned.(k) in
           Hashtbl.replace index id k;
           roots.(k) <- Span.reserve ();
           sent.(k) <- now ();
           Span.within ~parent:roots.(k) ~job:id sp_client (fun () ->
               Client.send_request conn (Protocol.Job line))
         in
         let body () =
           for _ = 1 to Int.min window total do send () done;
           while !pending > 0 do
             let t0 = now () in
             let frame = Client.read_frame conn in
             let t1 = now () in
             match frame with
             | Protocol.Result { id; line } ->
               let k = Hashtbl.find index id in
               lat.(k) <- t1 -. sent.(k);
               got.(k) <- line;
               Span.record ~parent:roots.(k) ~job:id sp_client ~start:t0 ~stop:t1;
               Span.record ~id:roots.(k) ~parent:0 ~job:id sp_bench ~start:sent.(k) ~stop:t1;
               decr pending;
               if !next < total then send ()
             | Protocol.Rejected { id; reason } ->
               prerr_endline
                 ("perfbench: rejected " ^ Option.value id ~default:"?" ^ ": " ^ reason);
               tally.failed <- tally.failed + 1;
               decr pending;
               if !next < total then send ()
             | _ -> Span.record ~parent:0 ~job:"conn" sp_client ~start:t0 ~stop:t1
           done
         in
         let t_first = now () in
         let d = if traced then Some (obs_round (fun () -> with_process layers body)) else (body (); None) in
         let wall = now () -. t_first in
         Printf.eprintf "round %d: %d jobs in %.4f s, rss %.1f MB, peak %.1f MB\n%!" k total wall
           (Host.rss_mb ()) (Host.peak_rss_mb ());
         tally.attempted <- tally.attempted + total;
         (* Checks, after the round: each completed job's p0 against the
            reference. *)
         let engine = Array.make total 0.0 and timing = Hashtbl.create 8 in
         Array.iteri
           (fun k line ->
              if line <> "" then
                match Obs.Metrics.parse_json line with
                | Obs.Metrics.Jobj kvs ->
                  (match json_str kvs "outcome", json_num kvs "p0" with
                   | Some "completed", Some p0 ->
                     if Float.abs (p0 -. expected.(k)) > Refsim.tol then
                       fail_check
                         (Printf.sprintf "%s: p0 %.17g, reference %.17g" (fst pinned.(k)) p0
                            expected.(k))
                   | outcome, _ ->
                     prerr_endline
                       ("perfbench: " ^ fst pinned.(k) ^ ": " ^ Option.value outcome ~default:"?");
                     tally.failed <- tally.failed + 1);
                  let f key = Option.value (json_num kvs key) ~default:0.0 in
                  engine.(k) <- f "dd_s" +. f "convert_s" +. f "dmav_s";
                  List.iter (fun key -> push timing key (f key)) [ "queue_wait_s"; "run_s" ]
                | _ -> fail_check (fst pinned.(k) ^ ": unreadable result line")
                | exception Obs.Metrics.Parse_error m -> fail_check (fst pinned.(k) ^ ": " ^ m))
           got;
         if k > 0 then begin
           match d with
           | Some d ->
             push_obs_layers layers d;
             push_daemon_layers layers d;
             push layers "pool.busy_share" (ratio (span_s d "pool.worker_busy") wall);
             push layers "serve.overhead_p50_s"
               (Host.median (Array.to_list (Array.map2 ( -. ) lat engine)));
             push layers "sched.queue_wait_s" (med timing "queue_wait_s");
             push layers "sched.run_s" (med timing "run_s");
             push layers "sched.jobs" (float_of_int total);
             push layers "circuit.parse_s" parse_s;
             journal_pairs := Array.to_list (Array.map2 (fun (id, l) r -> (id, l, r)) pinned got);
             traced_walls := wall :: !traced_walls
           | None ->
             if k = rss_round then rss := Host.peak_rss_mb ();
             untraced := wall :: !untraced;
             push_latencies latencies (List.filter (fun l -> l > 0.0) (Array.to_list lat))
         end
       in
       if a.trace then begin
         let traced_rounds = traced_halves ~seconds:a.seconds one_round in
         stop_daemon dm;
         (* A scratch journal fed this run's own lines: one accept+complete
            pair per job, as the daemon writes them. *)
         let j =
           Journal.create ~path:(Filename.concat dir "scratch-journal.jsonl") ~done_tail:128
             ~base_seed:1 ()
         in
         let pairs =
           List.map
             (fun (id, line, result) ->
                Span.within ~job:id sp_journal (fun () ->
                    let t0 = now () in
                    ignore (Journal.accept j ~id ~tenant:"bench" ~seed:0 ~line);
                    Journal.complete j ~id ~result;
                    now () -. t0))
             !journal_pairs
         in
         push layers "serve.journal_write_s" (Host.median pairs);
         push layers "circuit.gates_parsed"
           (float_of_int
              (Array.fold_left
                 (fun acc (j : Inputs.job) -> acc + Circuit.num_gates j.Inputs.circuit)
                 0 jobs));
         push layers "host.copy_gbps" (Host.copy_gbps ~bytes:(16 lsl 12) ~reps:15);
         finish_traced a layers ~traced_rounds ~untraced:!untraced ~traced:!traced_walls
       end
       else begin
         rounds ~seconds:a.seconds (one_round ~traced:false);
         if Float.is_nan !rss then rss := Host.peak_rss_mb ();
         stop_daemon dm;
         print_result (end_to_end ~setup:setup_times ~run:!untraced ~rss:!rss latencies)
       end)

let () =
  let a = parse_args () in
  match a.mode with
  | `Reference ->
    mkdir_p a.out;
    write_references a.workload ~seed:a.seed ~out:a.out
  | `Run ->
    Printf.printf "{\"host\":%s,\"workload\":\"%s\",\"seed\":%d,\"trace\":%b}\n%!"
      (Host.fingerprint_json ()) a.workload.Inputs.name a.seed a.trace;
    if a.workload.Inputs.name = "serve-mix" then run_serve a else run_inprocess a
