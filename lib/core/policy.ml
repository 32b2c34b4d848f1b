type sigma = Measured | Declared of float
type t = { alpha : float; sigma : sigma }

let check_p_ce p_ce =
  if not (p_ce > 0.0 && p_ce <= 0.5) then
    invalid_arg "Policy: requires 0 < p_ce <= 0.5"

let gaussian ~p_ce =
  check_p_ce p_ce;
  { alpha = Mbac_stats.Gaussian.q_inv p_ce; sigma = Measured }

let chernoff ~p_ce =
  check_p_ce p_ce;
  { alpha = Effective_bandwidth.gaussian_alpha_of_p p_ce; sigma = Measured }

let hoeffding ~p_ce ~peak =
  check_p_ce p_ce;
  if not (peak > 0.0) then invalid_arg "Policy: requires peak > 0";
  { alpha = 1.0; sigma = Declared (peak *. sqrt (log (1.0 /. p_ce) /. 2.0)) }

let of_alpha alpha = { alpha; sigma = Measured }

(* Inlined into every decision path (one call per simulation event), so
   the float arguments never box. *)
let[@inline] admissible t ~capacity ~mu ~var ~n =
  if mu > 0.0 then
    let sigma = match t.sigma with Measured -> sqrt var | Declared s -> s in
    Criterion.admissible ~capacity ~mu ~sigma ~alpha:t.alpha
  else n + 1
