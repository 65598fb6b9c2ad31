(* Small descriptive-statistics helpers used by the bench harness. *)

let mean a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 a /. float_of_int n

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median a = percentile a 50.0

(* Least-squares slope of y against x; used to fit round-complexity curves. *)
let linear_slope ~x ~y =
  let n = Array.length x in
  if n <> Array.length y || n < 2 then invalid_arg "Stats.linear_slope";
  let mx = mean x and my = mean y in
  let num = ref 0.0 and den = ref 0.0 in
  for i = 0 to n - 1 do
    num := !num +. ((x.(i) -. mx) *. (y.(i) -. my));
    den := !den +. ((x.(i) -. mx) ** 2.0)
  done;
  if !den = 0.0 then 0.0 else !num /. !den

(* Slope of log y against log x: the empirical polynomial exponent. *)
let loglog_slope ~x ~y =
  let lx = Array.map log x and ly = Array.map log y in
  linear_slope ~x:lx ~y:ly
