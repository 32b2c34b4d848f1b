(** Command-line spec strings shared by [mbac_serve], [mbac_loadgen],
    and [bench --serve], so the daemon and the in-process toy paths are
    configured with identical syntax. *)

val criteria_of_string : string -> (string * Mbac.Policy.t) list
(** Comma-separated criterion specs.  Each entry is either
    [ce:<p_ce>] ({!Mbac.Policy.gaussian}) or [hoeffding:<p_ce>:<peak>]
    ({!Mbac.Policy.hoeffding}); the full entry text is the criterion's
    name in decision logs and reports.
    @raise Invalid_argument on syntax or range errors. *)

val estimator_of_string : string -> Mbac.Estimator.t
(** One of [memoryless], [ewma:<t_m>], [window:<t_w>],
    [aggregate:<t_m>].
    @raise Invalid_argument on syntax or range errors. *)
