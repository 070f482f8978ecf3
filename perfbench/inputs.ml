(* Workload inputs, made from the benchmark seed.

   The program only ever sees what a user would hand it: qcs_sched/v1
   manifest lines and, for the families Qasm_export can write, OpenQASM
   files those lines point at. The seed picks the random content of every
   circuit (rotation angles, supremacy gate choices, BV secrets, adder
   operands); qubit counts and gate budgets are fixed per workload, so the
   work a run measures is the same size whatever the seed. *)

type spec = {
  family : Suite.family;
  n : int;
  gates : int option;  (** gate budget for the depth-parameterized families *)
  qasm : bool;         (** ship as an OpenQASM file instead of a generator line *)
}

type job = {
  label : string;        (** e.g. ["supremacy-19"], unique within a workload *)
  spec : spec;
  seed : int;            (** generator seed pinned into the line *)
  line : string;         (** the manifest line, without an id *)
  circuit : Circuit.t;   (** the same circuit, generated for the reference *)
}

type workload = {
  name : string;
  pool : int;        (** pool size, counting the calling domain *)
  fusion : bool;     (** ["fusion":"dmav"] on every line *)
  specs : spec list;
}

let budget family n gates = { family; n; gates = Some gates; qasm = false }
let fixed family n = { family; n; gates = None; qasm = false }

(* Irregular circuits with the default configuration: EWMA conversion, no
   fusion, no dispatch, one domain. Where EWMA converts a supremacy circuit
   depends on its random gates (gate 58–65 for most seeds at 18 qubits,
   38 or 107 for about one seed in six), so a round holds two of them to
   average that out; the DNN ansatz converts at the same gate whatever the
   seed. *)
let flat_random =
  { name = "flat-random";
    pool = 1;
    fusion = false;
    specs =
      [ budget Suite.Supremacy 18 160; budget Suite.Supremacy 18 160; budget Suite.Dnn 19 170;
        budget Suite.Dnn 20 158 ] }

(* DMAV-aware fusion over a 2-domain pool: DDMM, the cached kernel and the
   pool all carry weight here. *)
let flat_fused =
  { name = "flat-fused";
    pool = 2;
    fusion = true;
    specs =
      [ budget Suite.Dnn 19 400; budget Suite.Vqe 19 300; budget Suite.Supremacy 17 400;
        budget Suite.Supremacy 18 300 ] }

(* Circuits that stay decision diagrams under the default policy. *)
let dd_regular =
  { name = "dd-regular";
    pool = 1;
    fusion = false;
    specs =
      [ fixed Suite.Grover 16;
        fixed Suite.Grover 18;
        fixed Suite.Ghz 40;
        fixed Suite.Bv 40;
        fixed Suite.Adder 34;
        fixed Suite.Qft 32 ] }

(* Every family at 6–12 qubits, five seeds of each shape per round. The
   families Qasm_export can write alternate between generator lines and
   QASM files. *)
let serve_shapes =
  let fams =
    [ (Suite.Dnn, [ 6; 8; 10; 12 ]);
      (Suite.Adder, [ 6; 8; 10; 12 ]);
      (Suite.Ghz, [ 6; 8; 10; 12 ]);
      (Suite.Vqe, [ 6; 8; 10; 12 ]);
      (Suite.Knn, [ 7; 9; 11 ]);
      (Suite.Swap_test, [ 7; 9; 11 ]);
      (Suite.Supremacy, [ 6; 8; 10; 12 ]);
      (Suite.Qft, [ 6; 8; 10; 12 ]);
      (Suite.Grover, [ 6; 8; 10 ]);
      (Suite.Bv, [ 6; 8; 10; 12 ]);
      (Suite.Qpe, [ 6; 8; 10; 12 ]) ]
  in
  List.concat_map (fun (family, ns) -> List.map (fun n -> fixed family n) ns) fams

let qasm_exportable = function
  | Suite.Supremacy | Suite.Grover -> false
  | _ -> true

let serve_mix =
  { name = "serve-mix";
    pool = 1;
    fusion = false;
    specs =
      List.concat_map
        (fun copy ->
           List.map
             (fun sp -> { sp with qasm = qasm_exportable sp.family && copy mod 2 = 1 })
             serve_shapes)
        [ 0; 1; 2; 3; 4 ] }

let all = [ flat_random; flat_fused; dd_regular; serve_mix ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* One seed per job, drawn from the benchmark seed and the job's position,
   independent of the program's own seed derivation. *)
let job_seed ~seed k = Random.State.bits (Random.State.make [| 0x5eed; seed; k |])

let circuit_of sp ~seed = Suite.generate ?gates:sp.gates ~seed sp.family ~n:sp.n

let jobs w ~seed =
  List.mapi
    (fun k sp ->
       let seed = job_seed ~seed k in
       let label = Printf.sprintf "%s-%d-%d" (Suite.family_name sp.family) sp.n k in
       let circuit = circuit_of sp ~seed in
       let fields =
         (if sp.qasm then [ Printf.sprintf "\"qasm\":\"%s.qasm\"" label ]
          else
            [ Printf.sprintf "\"circuit\":\"%s\"" (Suite.family_name sp.family);
              Printf.sprintf "\"n\":%d" sp.n ]
            @ (match sp.gates with Some gt -> [ Printf.sprintf "\"gates\":%d" gt ] | None -> []))
         @ [ Printf.sprintf "\"seed\":%d" seed ]
         @ if w.fusion then [ "\"fusion\":\"dmav\"" ] else []
       in
       { label; spec = sp; seed; line = "{" ^ String.concat "," fields ^ "}"; circuit })
    w.specs

(* Writes the QASM files the lines name into [dir]. *)
let write_qasm ~dir jobs =
  List.iter
    (fun j ->
       if j.spec.qasm then
         Qasm_export.to_file (Filename.concat dir (j.label ^ ".qasm")) j.circuit)
    jobs

(* A manifest line with an id, as a client would ship it. *)
let with_id id line = Printf.sprintf "{\"id\":\"%s\",%s" id (String.sub line 1 (String.length line - 1))
