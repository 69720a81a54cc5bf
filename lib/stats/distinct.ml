(* Distinct-value estimation from a sample (Section 5.1.2).

   The paper notes the task is provably error-prone ([11]): for any
   estimator there is a data distribution with large error.  We implement
   the classical estimators so experiment E9 can exhibit exactly that. *)

(* Multiplicity of each distinct value. *)
let multiplicities (values : float array) : int array =
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  snd (Histogram.runs sorted)

let exact (values : float array) : int = Array.length (multiplicities values)

(* sample frequency-of-frequencies: f.(i) = number of values occurring
   exactly i+1 times in the sample *)
let freq_of_freq (sample : float array) : int array * int =
  let counts = multiplicities sample in
  let f = Array.make (Array.fold_left max 1 counts) 0 in
  Array.iter (fun c -> f.(c - 1) <- f.(c - 1) + 1) counts;
  (f, Array.length counts)

(* Naive scale-up: assume sample distinct ratio holds in the full table. *)
let scale_up ~population:bign (sample : float array) : float =
  let n = Array.length sample in
  if n = 0 then 0.
  else
    let _, d = freq_of_freq sample in
    min (float_of_int bign)
      (float_of_int d *. (float_of_int bign /. float_of_int n))

(* Chao (1984): D = d + f1^2 / (2 f2). *)
let chao ~population:bign (sample : float array) : float =
  let f, d = freq_of_freq sample in
  let f1 = float_of_int (if Array.length f > 0 then f.(0) else 0) in
  let f2 = float_of_int (if Array.length f > 1 then f.(1) else 0) in
  let est =
    if f2 > 0. then float_of_int d +. (f1 *. f1 /. (2. *. f2))
    else float_of_int d +. (f1 *. (f1 -. 1.) /. 2.)
  in
  min (float_of_int bign) est

(* GEE, Charikar et al.: D = sqrt(N/n) * f1 + sum_{i>=2} f_i.  Achieves the
   optimal sqrt(N/n) error ratio guarantee. *)
let gee ~population:bign (sample : float array) : float =
  let n = Array.length sample in
  if n = 0 then 0.
  else begin
    let f, _ = freq_of_freq sample in
    let f1 = float_of_int (if Array.length f > 0 then f.(0) else 0) in
    let rest =
      let acc = ref 0 in
      for i = 1 to Array.length f - 1 do acc := !acc + f.(i) done;
      float_of_int !acc
    in
    min (float_of_int bign)
      ((sqrt (float_of_int bign /. float_of_int n) *. f1) +. rest)
  end

type estimator = Scale_up | Chao | Gee

let estimator_name = function
  | Scale_up -> "scale-up"
  | Chao -> "Chao"
  | Gee -> "GEE"

let estimate which ~population sample =
  match which with
  | Scale_up -> scale_up ~population sample
  | Chao -> chao ~population sample
  | Gee -> gee ~population sample

(* Ratio error, the standard metric: max(est/true, true/est). *)
let ratio_error ~truth est =
  if truth <= 0. || est <= 0. then infinity
  else max (est /. truth) (truth /. est)
