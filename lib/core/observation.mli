(** What an admission controller is allowed to see: a cross-section of the
    flows in the system at one instant.  Per-flow rates enter only through
    their sum and sum of squares, which is exactly what the paper's
    estimators (eqns (7)/(23)) need. *)

type t = {
  now : float;      (** current time *)
  n : float;        (** number of flows currently in the system (always an
                        exact integer; stored as a float so the record has
                        a flat unboxed layout — see [count]) *)
  sum_rate : float; (** aggregate bandwidth, sum of per-flow rates *)
  sum_sq : float;   (** sum of squared per-flow rates *)
}

val make : now:float -> n:int -> sum_rate:float -> sum_sq:float -> t
(** @raise Invalid_argument on negative [n] or inconsistent sums. *)

val count : t -> int
(** [n] as the int it always is. *)

val cross_mean : t -> float
(** The memoryless mean estimate mu_hat(t) = sum_rate / n (eqn (23));
    [nan] when [n = 0]. *)

val cross_variance : t -> float
(** The memoryless unbiased variance estimate
    sigma_hat^2(t) = (sum_sq - n mu_hat^2) / (n - 1) (eqn (23)),
    clipped at 0 against roundoff; [0.] when [n < 2]. *)
