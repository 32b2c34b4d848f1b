(** The certainty-equivalent admission policy (§3, §5.3), written once.

    Every measurement-based scheme here runs one rule: the Gaussian
    criterion of eqn (6), [M = admissible(c, mû, σ, α)], fed by a
    pluggable estimator.  A policy fixes the two things the rule leaves
    open — the quantile α and where σ comes from — and is compiled into
    that pair once, when it is built.  The simulators' controllers
    ({!Controller.of_policy}), the experiment sweeps and the serving
    engine all decide through {!admissible}, so the three agree on every
    cross-section by construction. *)

type t

val gaussian : p_ce:float -> t
(** The paper's criterion at target [p_ce]: α = Q{^-1}(p_ce), σ measured.
    @raise Invalid_argument if [p_ce] is outside (0, 0.5]. *)

val chernoff : p_ce:float -> t
(** Chernoff/effective-bandwidth acceptance with a Gaussian MGF:
    α = sqrt(2 ln(1/p_ce)), σ measured — uniformly more conservative
    than {!gaussian} at the same target.
    @raise Invalid_argument if [p_ce] is outside (0, 0.5]. *)

val hoeffding : p_ce:float -> peak:float -> t
(** Distribution-free Hoeffding bound for flows of declared peak rate
    [peak]: M mû + peak sqrt(M ln(1/p_ce) / 2) <= c, i.e. the same
    quadratic with α = 1 and σ declared as peak sqrt(ln(1/p_ce) / 2).
    Only the measured mean is used.
    @raise Invalid_argument if [p_ce] is outside (0, 0.5] or
    [peak <= 0]. *)

val of_alpha : float -> t
(** The criterion at an explicit quantile α, σ measured: the robust
    controller's adjusted α_ce (§5.3) and the experiment sweeps, whose
    adjusted targets p_ce = Q(α_ce) can underflow.  Taken as given. *)

val admissible : t -> capacity:float -> mu:float -> var:float -> n:int -> int
(** The number of flows the policy allows on a link of [capacity] that
    carries [n] flows, under the per-flow estimate ([mu], [var]).
    Until the estimate has a usable mean ([mu > 0]; [nan] counts as
    none) the answer is [n + 1]: the cautious bootstrap, one flow at a
    time. *)
