(* The benchmark's own checks must accept the program's outputs and reject
   a state that is wrong by a single gate. *)

open Perfbench_lib

let failures = ref 0

let expect name ok =
  if not ok then begin
    Printf.printf "FAIL %s\n" name;
    incr failures
  end

let run c = Driver.run Config.default c

let drop (c : Circuit.t) k =
  { c with Circuit.ops = Array.append (Array.sub c.Circuit.ops 0 k)
                            (Array.sub c.Circuit.ops (k + 1) (Array.length c.Circuit.ops - k - 1)) }

let flat_verdict c out = Refsim.compare_state (Refsim.simulate c) (Driver.amplitudes out).Buf.data

let () =
  (* Irregular circuits: fidelity against the dense reference, in memory and
     streamed from a reference file. *)
  List.iter
    (fun (fam, n, gates) ->
       let c = Suite.generate ~seed:42 ~gates fam ~n in
       let name = c.Circuit.name in
       let out = run c in
       expect (name ^ ": program output matches the reference") (flat_verdict c out).Refsim.ok;
       let path = Filename.temp_file "perfbench" ".ref" in
       Refsim.save (Refsim.simulate c) path;
       let v = Refsim.compare_file path (Driver.amplitudes out).Buf.data in
       Sys.remove path;
       expect (name ^ ": streamed reference agrees") v.Refsim.ok;
       let k = Array.length c.Circuit.ops / 2 in
       expect (name ^ ": one gate dropped is rejected")
         (not (Refsim.compare_state (Refsim.simulate c) (Driver.amplitudes (run (drop c k))).Buf.data).Refsim.ok))
    [ (Suite.Supremacy, 9, 120); (Suite.Dnn, 8, 100); (Suite.Vqe, 8, 60) ];
  (* A wrong norm is rejected even when the direction is right. *)
  let c = Suite.generate ~seed:3 ~gates:80 Suite.Dnn ~n:6 in
  let st = Refsim.simulate c in
  let scaled = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (2 lsl 6) in
  Array.iteri (fun i re -> scaled.{2 * i} <- 1.001 *. re; scaled.{(2 * i) + 1} <- 1.001 *. st.Refsim.im.(i)) st.Refsim.re;
  expect "a state off in norm is rejected" (not (Refsim.compare_state st scaled).Refsim.ok);
  (* Non-unitary matrices are refused by the reference. *)
  let bad = [| [| Cnum.one; Cnum.one |]; [| Cnum.zero; Cnum.one |] |] in
  expect "a non-unitary gate is refused"
    (match Refsim.assert_unitary "bad" bad with
     | () -> false
     | exception Refsim.Not_unitary _ -> true);
  (* Regular circuits: closed forms through single amplitudes. *)
  let amp c = Driver.amplitude (run c) in
  let ghz = Suite.generate Suite.Ghz ~n:12 in
  expect "ghz: closed form holds" (Refsim.ghz_ok ~n:12 (amp ghz));
  expect "ghz: one gate dropped is rejected" (not (Refsim.ghz_ok ~n:12 (amp (drop ghz 5))));
  let secret = 0b1011001 in
  let bv = Suite.generate ~seed:secret Suite.Bv ~n:10 in
  expect "bv: closed form holds" (Refsim.bv_ok ~n:10 ~secret (amp bv));
  expect "bv: one gate dropped is rejected"
    (not (Refsim.bv_ok ~n:10 ~secret (amp (drop bv (Array.length bv.Circuit.ops - 1)))));
  let qft = Suite.generate Suite.Qft ~n:10 in
  expect "qft: closed form holds" (Refsim.qft_ok ~n:10 ~probes:32 (amp qft));
  expect "qft: one gate dropped is rejected" (not (Refsim.qft_ok ~n:10 ~probes:32 (amp (drop qft 0))));
  let adder = Suite.generate ~seed:9 Suite.Adder ~n:12 in
  expect "adder: closed form holds" (Refsim.adder_ok adder (amp adder));
  (* Op 0 loads an operand bit; the adder's last gate is a CX whose
     control is the restored carry-in, 0, so dropping it changes nothing. *)
  expect "adder: one gate dropped is rejected" (not (Refsim.adder_ok adder (amp (drop adder 0))));
  let grover = Suite.generate Suite.Grover ~n:8 in
  let iterations = Refsim.grover_optimal_iterations 8 in
  expect "grover: closed form holds" (Refsim.grover_ok ~n:8 ~marked:0 ~iterations (amp grover));
  expect "grover: one gate dropped is rejected"
    (not (Refsim.grover_ok ~n:8 ~marked:0 ~iterations
            (amp (drop grover (Array.length grover.Circuit.ops / 2)))));
  if !failures > 0 then exit 1
