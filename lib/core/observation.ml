(* All-float record: with [n] stored as a float the record has a flat
   unboxed layout, so building one costs 5 minor words and reading any
   field never chases a box — this constructor runs once per simulation
   event.  [n] is always integral and far below 2^53, so the stored
   value is exact and every comparison/derived statistic is bit-for-bit
   what the int representation gave. *)
type t = { now : float; n : float; sum_rate : float; sum_sq : float }

let[@inline] make ~now ~n ~sum_rate ~sum_sq =
  if n < 0 then invalid_arg "Observation.make: negative flow count";
  if n = 0 && (sum_rate <> 0.0 || sum_sq <> 0.0) then
    invalid_arg "Observation.make: nonzero sums with zero flows";
  { now; n = float_of_int n; sum_rate; sum_sq }

let[@inline] count t = int_of_float t.n

let[@inline] cross_mean t = if t.n = 0.0 then nan else t.sum_rate /. t.n

let[@inline] cross_variance t =
  if t.n < 2.0 then 0.0
  else begin
    let nf = t.n in
    let mean = t.sum_rate /. nf in
    let v = (t.sum_sq -. (nf *. mean *. mean)) /. (nf -. 1.0) in
    Float.max 0.0 v
  end
