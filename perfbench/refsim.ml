(* The benchmark's correctness oracle, kept apart from the simulator.

   [simulate] is a plain dense state-vector simulator with its own gate
   loop over two float arrays: it shares nothing with the program's
   engines except the gate matrices of the circuit it is handed, and it
   refuses any matrix that is not unitary. The closed forms below check the
   DD-only workloads through single amplitudes, never a 2ⁿ vector. *)

type state = { n : int; re : float array; im : float array }

exception Not_unitary of string

let basis_zero n =
  let re = Array.make (1 lsl n) 0.0 in
  re.(0) <- 1.0;
  { n; re; im = Array.make (1 lsl n) 0.0 }

(* U·U† = I entry by entry, within [tol]. *)
let assert_unitary ?(tol = 1e-10) name (m : Cnum.t array array) =
  let k = Array.length m in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      let sr = ref 0.0 and si = ref 0.0 in
      for l = 0 to k - 1 do
        let a = m.(i).(l) and b = m.(j).(l) in
        sr := !sr +. (a.Cnum.re *. b.Cnum.re) +. (a.Cnum.im *. b.Cnum.im);
        si := !si +. (a.Cnum.im *. b.Cnum.re) -. (a.Cnum.re *. b.Cnum.im)
      done;
      let expect = if i = j then 1.0 else 0.0 in
      if Float.abs (!sr -. expect) > tol || Float.abs !si > tol then
        raise (Not_unitary (Printf.sprintf "%s: (U U^dagger)[%d][%d] = %g%+gi" name i j !sr !si))
    done
  done

let apply_single st (m : Cnum.t array array) ~target ~controls =
  let re = st.re and im = st.im in
  let m00r = m.(0).(0).Cnum.re and m00i = m.(0).(0).Cnum.im in
  let m01r = m.(0).(1).Cnum.re and m01i = m.(0).(1).Cnum.im in
  let m10r = m.(1).(0).Cnum.re and m10i = m.(1).(0).Cnum.im in
  let m11r = m.(1).(1).Cnum.re and m11i = m.(1).(1).Cnum.im in
  let tb = 1 lsl target in
  let mask = List.fold_left (fun acc c -> acc lor (1 lsl c)) 0 controls in
  let dim = 1 lsl st.n in
  let base = ref 0 in
  while !base < dim do
    for i0 = !base to !base + tb - 1 do
      if i0 land mask = mask then begin
        let i1 = i0 lor tb in
        let ar = re.(i0) and ai = im.(i0) and br = re.(i1) and bi = im.(i1) in
        re.(i0) <- (m00r *. ar) -. (m00i *. ai) +. (m01r *. br) -. (m01i *. bi);
        im.(i0) <- (m00r *. ai) +. (m00i *. ar) +. (m01r *. bi) +. (m01i *. br);
        re.(i1) <- (m10r *. ar) -. (m10i *. ai) +. (m11r *. br) -. (m11i *. bi);
        im.(i1) <- (m10r *. ai) +. (m10i *. ar) +. (m11r *. bi) +. (m11i *. br)
      end
    done;
    base := !base + (2 * tb)
  done

(* 4×4 [m] indexed by 2·b(q_hi) + b(q_lo), as in [Circuit.Two]. *)
let apply_two st (m : Cnum.t array array) ~q_hi ~q_lo =
  let re = st.re and im = st.im in
  let hb = 1 lsl q_hi and lb = 1 lsl q_lo in
  let both = hb lor lb in
  let idx = Array.make 4 0 in
  let vr = Array.make 4 0.0 and vi = Array.make 4 0.0 in
  for i = 0 to (1 lsl st.n) - 1 do
    if i land both = 0 then begin
      idx.(0) <- i;
      idx.(1) <- i lor lb;
      idx.(2) <- i lor hb;
      idx.(3) <- i lor both;
      for k = 0 to 3 do
        vr.(k) <- re.(idx.(k));
        vi.(k) <- im.(idx.(k))
      done;
      for r = 0 to 3 do
        let sr = ref 0.0 and si = ref 0.0 in
        for k = 0 to 3 do
          let w = m.(r).(k) in
          sr := !sr +. (w.Cnum.re *. vr.(k)) -. (w.Cnum.im *. vi.(k));
          si := !si +. (w.Cnum.re *. vi.(k)) +. (w.Cnum.im *. vr.(k))
        done;
        re.(idx.(r)) <- !sr;
        im.(idx.(r)) <- !si
      done
    end
  done

let apply st (op : Circuit.op) =
  match op with
  | Circuit.Single { name; matrix; target; controls } ->
    assert_unitary name matrix;
    apply_single st matrix ~target ~controls
  | Circuit.Two { name; matrix; q_hi; q_lo } ->
    assert_unitary name matrix;
    apply_two st matrix ~q_hi ~q_lo

let simulate (c : Circuit.t) =
  let st = basis_zero c.Circuit.n in
  Array.iter (apply st) c.Circuit.ops;
  st

let p0 st = (st.re.(0) *. st.re.(0)) +. (st.im.(0) *. st.im.(0))

(* --- comparison against a program output ------------------------------ *)

type verdict = { fidelity : float; norm_out : float; norm_ref : float; ok : bool }

let tol = 1e-9

let verdict_of ~ip_re ~ip_im ~norm_ref ~norm_out =
  let fidelity = ((ip_re *. ip_re) +. (ip_im *. ip_im)) /. (norm_ref *. norm_out) in
  { fidelity;
    norm_out;
    norm_ref;
    ok =
      fidelity >= 1.0 -. tol
      && Float.abs (norm_out -. 1.0) <= tol
      && Float.abs (norm_ref -. 1.0) <= tol }

type amps = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A program output: interleaved re/im, as the flat buffers store it. *)

let compare_state st (out : amps) =
  let dim = 1 lsl st.n in
  if Bigarray.Array1.dim out <> 2 * dim then invalid_arg "Refsim.compare_state: size";
  let ip_re = ref 0.0 and ip_im = ref 0.0 and nr = ref 0.0 and no = ref 0.0 in
  for i = 0 to dim - 1 do
    let rr = st.re.(i) and ri = st.im.(i) in
    let orr = Bigarray.Array1.get out (2 * i) and oi = Bigarray.Array1.get out ((2 * i) + 1) in
    ip_re := !ip_re +. (rr *. orr) +. (ri *. oi);
    ip_im := !ip_im +. (rr *. oi) -. (ri *. orr);
    nr := !nr +. (rr *. rr) +. (ri *. ri);
    no := !no +. (orr *. orr) +. (oi *. oi)
  done;
  verdict_of ~ip_re:!ip_re ~ip_im:!ip_im ~norm_ref:!nr ~norm_out:!no

(* Reference files: 2ⁿ amplitudes as interleaved little-endian float64. *)
let save st path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       let chunk = 4096 in
       let b = Bytes.create (16 * chunk) in
       let dim = 1 lsl st.n in
       let i = ref 0 in
       while !i < dim do
         let m = Int.min chunk (dim - !i) in
         for k = 0 to m - 1 do
           Bytes.set_int64_le b (16 * k) (Int64.bits_of_float st.re.(!i + k));
           Bytes.set_int64_le b ((16 * k) + 8) (Int64.bits_of_float st.im.(!i + k))
         done;
         output oc b 0 (16 * m);
         i := !i + m
       done)

(* Streams the file in 64 KiB chunks, so checking a 2²⁰-amplitude output
   adds nothing measurable to the checking process's resident set. *)
let compare_file path (out : amps) =
  let dim = Bigarray.Array1.dim out / 2 in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
       if in_channel_length ic <> 16 * dim then
         failwith (Printf.sprintf "%s: reference holds %d bytes, output has %d amplitudes"
                     path (in_channel_length ic) dim);
       let chunk = 4096 in
       let b = Bytes.create (16 * chunk) in
       let ip_re = ref 0.0 and ip_im = ref 0.0 and nr = ref 0.0 and no = ref 0.0 in
       let i = ref 0 in
       while !i < dim do
         let m = Int.min chunk (dim - !i) in
         really_input ic b 0 (16 * m);
         for k = 0 to m - 1 do
           let rr = Int64.float_of_bits (Bytes.get_int64_le b (16 * k)) in
           let ri = Int64.float_of_bits (Bytes.get_int64_le b ((16 * k) + 8)) in
           let j = 2 * (!i + k) in
           let orr = Bigarray.Array1.get out j and oi = Bigarray.Array1.get out (j + 1) in
           ip_re := !ip_re +. (rr *. orr) +. (ri *. oi);
           ip_im := !ip_im +. (rr *. oi) -. (ri *. orr);
           nr := !nr +. (rr *. rr) +. (ri *. ri);
           no := !no +. (orr *. orr) +. (oi *. oi)
         done;
         i := !i + m
       done;
       verdict_of ~ip_re:!ip_re ~ip_im:!ip_im ~norm_ref:!nr ~norm_out:!no)

(* --- closed forms for the regular circuits ---------------------------- *)

let near (a : Cnum.t) re im = Float.abs (a.Cnum.re -. re) <= tol && Float.abs (a.Cnum.im -. im) <= tol
let prob (a : Cnum.t) = (a.Cnum.re *. a.Cnum.re) +. (a.Cnum.im *. a.Cnum.im)

(* [amp i] is the program's amplitude of basis state [i]. *)
let ghz_ok ~n amp =
  let h = 1.0 /. sqrt 2.0 in
  near (amp 0) h 0.0 && near (amp ((1 lsl n) - 1)) h 0.0

(* Bernstein–Vazirani: the input register reads [secret]; the ancilla on
   the top qubit is |−⟩, so the two basis states that carry it share all
   the probability. *)
let bv_ok ~n ~secret amp =
  let s = secret land ((1 lsl (n - 1)) - 1) in
  Float.abs (prob (amp s) +. prob (amp (s lor (1 lsl (n - 1)))) -. 1.0) <= tol

(* QFT of |0…0⟩: every amplitude is 2^{-n/2}. [probes] basis states are
   checked, spread over the index range, plus both ends. *)
let qft_ok ~n ~probes amp =
  let e = 2.0 ** (-.float_of_int n /. 2.0) in
  let rs = Random.State.make [| n; probes |] in
  let dim = 1 lsl n in
  let idx = 0 :: (dim - 1) :: List.init probes (fun _ -> Random.State.full_int rs dim) in
  List.for_all (fun i -> near (amp i) e 0.0) idx

(* The adder loads its operands and adds with X/CX/CCX only, so a bit-level
   run of the circuit's gates gives the one basis state it ends in. Any
   other gate is refused rather than guessed at. *)
let classical_run (c : Circuit.t) =
  let x = [| [| Cnum.zero; Cnum.one |]; [| Cnum.one; Cnum.zero |] |] in
  Array.fold_left
    (fun bits op ->
       match op with
       | Circuit.Single { name; matrix; target; controls } ->
         let is_x =
           Array.for_all2 (Array.for_all2 (fun a b -> near a b.Cnum.re b.Cnum.im)) matrix x
         in
         if not is_x then invalid_arg ("Refsim.classical_run: not a classical gate: " ^ name);
         if List.for_all (fun q -> bits land (1 lsl q) <> 0) controls then
           bits lxor (1 lsl target)
         else bits
       | Circuit.Two { name; _ } ->
         invalid_arg ("Refsim.classical_run: not a classical gate: " ^ name))
    0 c.Circuit.ops

let adder_ok c amp = prob (amp (classical_run c)) >= 1.0 -. tol

(* Grover with [iterations] rounds on one marked state: success
   probability sin²((2k+1)θ) with sin θ = 2^{-n/2}. *)
let grover_ok ~n ~marked ~iterations amp =
  let theta = asin (2.0 ** (-.float_of_int n /. 2.0)) in
  let p = sin (float_of_int ((2 * iterations) + 1) *. theta) ** 2.0 in
  Float.abs (prob (amp marked) -. p) <= tol

let grover_optimal_iterations n =
  int_of_float (Float.round (Float.pi /. 4.0 *. sqrt (2.0 ** float_of_int n)))
