(* Fixed-effort multilevel importance splitting for the overflow
   probability of the admission-controlled load process.

   The stationary overflow probability (time fraction with load > c) is
   decomposed along an excursion of the load above a base level
   B = m + z0 (c - m):

     p_f  =  nu_1  x  prod_{l=1}^{K-1} p_l  x  E[T_over]

   where nu_1 is the rate of excursion starts (up-crossings of the first
   threshold L_1 after the load was at or below B), p_l is the
   conditional probability that an excursion entering level l reaches
   L_{l+1} before falling back to B, and E[T_over] is the expected time
   spent above capacity per excursion that reaches L_K = c.  Each factor
   is estimated by direct simulation from genealogy-derived RNG streams:
   a pilot run measures nu_1 and harvests entrance snapshots at L_1;
   each stage restores clones from the previous stage's entrance pool
   and runs them to the next threshold (or back to B); the top stage
   accumulates overflow time until the excursion ends.

   Determinism: every trial's randomness comes from
   [Rng.derive ~seed ~tag:"<seed_tag>:level=<l>:trial=<i>"], entrance
   states are assigned by trial index ([pool.(i mod n)]), and chunking
   is independent of [jobs], so results are bit-identical for every
   [jobs] value (the same contract as [Parallel]). *)

type config = {
  base_level : float;
  levels : int;
  trials_per_level : int;
  pilot_time : float;
  calibration_time : float;
  max_pool : int;
  max_trial_events : int;
  seed_tag : string;
}

let default_config ~pilot_time =
  { base_level = 0.25;
    levels = 6;
    trials_per_level = 2048;
    pilot_time;
    calibration_time = pilot_time /. 10.0;
    max_pool = 64;
    max_trial_events = 1_000_000;
    seed_tag = "splitting" }

type level_stat = {
  threshold : float;
  trials : int;
  successes : int;
  p_hat : float;
  rel_var : float;
  pool : int;
  level_events : int;
}

type result = {
  p_f : float;
  ci_rel : float;
  mean_load : float;
  base_threshold : float;
  thresholds : float array;
  excursion_rate : float;
  excursions : int;
  mean_overflow_time : float;
  top_trials : int;
  level_stats : level_stat array;
  pilot_events : int;
  pilot_p_f : float;
  total_events : int;
  truncated_trials : int;
}

let m_entrances =
  Mbac_telemetry.Metrics.Handle.counter "splitting_pilot_entrances_total"

let m_trials = Mbac_telemetry.Metrics.Handle.counter "splitting_trials_total"

let m_crossings =
  Mbac_telemetry.Metrics.Handle.counter "splitting_level_crossings_total"

let m_truncated =
  Mbac_telemetry.Metrics.Handle.counter "splitting_truncated_trials_total"

let m_clone_population =
  Mbac_telemetry.Metrics.Handle.gauge "splitting_clone_population"

let validate cfg =
  if not (cfg.base_level > 0.0 && cfg.base_level < 1.0) then
    invalid_arg "Splitting: base_level outside (0,1)";
  if cfg.levels < 1 then invalid_arg "Splitting: levels < 1";
  if cfg.trials_per_level < 2 then
    invalid_arg "Splitting: trials_per_level < 2";
  if cfg.pilot_time <= 0.0 then invalid_arg "Splitting: pilot_time <= 0";
  if cfg.calibration_time <= 0.0 then
    invalid_arg "Splitting: calibration_time <= 0";
  if cfg.max_pool < 1 then invalid_arg "Splitting: max_pool < 1";
  if cfg.max_trial_events < 1 then
    invalid_arg "Splitting: max_trial_events < 1"

(* Trials are not independent: every trial restores a clone of an
   entrance state, and every entrance descends, through the pool of each
   earlier stage, from one of the pilot's entrances (its root).  Trials
   sharing a root share that excursion's start, and the stages share
   roots, so both the within-stage and the cross-stage correlation run
   through the roots.  The variance of the product of stage means is
   therefore taken by the delete-one-root jackknife: with [theta_(-r)]
   the product recomputed without every trial descended from root [r],

     Var(theta) = (R-1)/R sum_r (theta_(-r) - mean_r theta_(-r))^2.

   Each stage is given as (root of each trial, value of each trial).
   Returns the relative variance Var(theta)/theta^2; [infinity] when it
   cannot be assessed (fewer than two roots, a zero product, or a stage
   whose trials all descend from one root). *)
let jackknife_rel_var ~roots stages =
  let stages =
    List.map
      (fun (root, value) ->
        let sum = Array.make roots 0.0 and count = Array.make roots 0 in
        Array.iteri
          (fun i r ->
            sum.(r) <- sum.(r) +. value.(i);
            count.(r) <- count.(r) + 1)
          root;
        (sum, count, Array.fold_left ( +. ) 0.0 value, Array.length value))
      stages
  in
  (* the product without root [r]'s trials; [r = -1] keeps them all *)
  let product r =
    List.fold_left
      (fun acc (sum, count, total, n) ->
        let s, c = if r < 0 then (0.0, 0) else (sum.(r), count.(r)) in
        acc *. ((total -. s) /. float_of_int (n - c)))
      1.0 stages
  in
  let theta = product (-1) in
  let deleted = Array.init roots product in
  if roots < 2 || theta = 0.0 || not (Array.for_all Float.is_finite deleted)
  then infinity
  else begin
    let r = float_of_int roots in
    let mean = Array.fold_left ( +. ) 0.0 deleted /. r in
    let ss =
      Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0
        deleted
    in
    (r -. 1.0) /. r *. ss /. (theta *. theta)
  end

(* One clone trial of an intermediate stage: from an entrance at level l,
   run until the load exceeds [target] (success) or falls to/below
   [base] (failure).  The entrance state may already sit beyond [target]
   (a single rate jump can cross several thresholds), so the conditions
   are checked before the first step.

   Trials lean on the simulator's stepping API: [step] advances exactly
   one event (never a timestamp batch), so the load is inspected between
   every pair of events, and snapshot/restore deep-copies the event
   queue.  [Calendar_queue.copy] compacts the entry pool to the pending
   count — O(pending), same as the old heap copy — so entrance snapshots
   harvested per level stay cheap to hold and to restore from. *)
type trial = {
  success : bool;
  truncated : bool;
  trial_events : int;
  snap : Continuous_load.snapshot option;
}

let run_trial ~entrance ~rng ~base ~target ~max_events ~want_snapshot =
  let sim = Continuous_load.restore ~rng entrance in
  let start_events = Continuous_load.events_processed sim in
  let rec loop () =
    let l = Continuous_load.load sim in
    let ev = Continuous_load.events_processed sim - start_events in
    if l > target then
      { success = true; truncated = false; trial_events = ev;
        snap =
          (if want_snapshot then Some (Continuous_load.snapshot sim)
           else None) }
    else if l <= base then
      { success = false; truncated = false; trial_events = ev; snap = None }
    else if ev >= max_events then
      { success = false; truncated = true; trial_events = ev; snap = None }
    else if not (Continuous_load.has_pending sim) then
      { success = false; truncated = false; trial_events = ev; snap = None }
    else begin
      Continuous_load.step sim;
      loop ()
    end
  in
  let t = loop () in
  Mbac_telemetry.Metrics.Handle.inc m_trials;
  if t.success then Mbac_telemetry.Metrics.Handle.inc m_crossings;
  if t.truncated then Mbac_telemetry.Metrics.Handle.inc m_truncated;
  t

(* One top-stage trial: from an entrance above capacity, accumulate the
   time spent above capacity until the excursion ends (load back at or
   below [base]). *)
let run_top_trial ~entrance ~rng ~base ~capacity ~max_events =
  let sim = Continuous_load.restore ~rng entrance in
  let start_events = Continuous_load.events_processed sim in
  let t_over = ref 0.0 in
  let truncated = ref false in
  let continue = ref true in
  while !continue do
    let l = Continuous_load.load sim in
    let ev = Continuous_load.events_processed sim - start_events in
    if l <= base then continue := false
    else if ev >= max_events then begin
      truncated := true;
      continue := false
    end
    else if not (Continuous_load.has_pending sim) then continue := false
    else begin
      let t0 = Continuous_load.now sim in
      Continuous_load.step sim;
      if l > capacity then
        t_over := !t_over +. (Continuous_load.now sim -. t0)
    end
  done;
  Mbac_telemetry.Metrics.Handle.inc m_trials;
  if !truncated then Mbac_telemetry.Metrics.Handle.inc m_truncated;
  ( !t_over,
    Continuous_load.events_processed sim - start_events,
    !truncated )

(* Fan [n] trials out over the pool in fixed-size chunks.  The chunk
   size is independent of [jobs], and each trial's stream is derived
   from its global index, so the concatenated results are identical for
   every [jobs] value. *)
let chunked ?jobs n f =
  let chunk = 64 in
  let n_chunks = (n + chunk - 1) / chunk in
  let tasks =
    List.init n_chunks (fun c () ->
        let lo = c * chunk and hi = min n ((c + 1) * chunk) in
        List.init (hi - lo) (fun k -> f (lo + k)))
  in
  List.concat (Parallel.run_tasks ?jobs tasks)

let run ?jobs ~seed cfg sim_cfg ~controller ~make_source =
  validate cfg;
  let capacity = sim_cfg.Continuous_load.capacity in
  let derive tag = Mbac_stats.Rng.derive ~seed ~tag:(cfg.seed_tag ^ tag) in
  (* -------------------- pilot: calibrate, then collect ------------- *)
  let pilot =
    Mbac_telemetry.Profile.span "splitting.pilot" @@ fun () ->
    let sim =
      Continuous_load.start (derive ":pilot") sim_cfg ~controller
        ~make_source
    in
    let step_until t_end =
      while
        Continuous_load.now sim < t_end && Continuous_load.has_pending sim
      do
        Continuous_load.step sim
      done
    in
    step_until sim_cfg.Continuous_load.warmup;
    (* time-weighted mean load over the calibration window *)
    let cal_stats = Mbac_stats.Welford.Weighted.create () in
    let cal_end =
      Continuous_load.now sim +. cfg.calibration_time
    in
    while
      Continuous_load.now sim < cal_end && Continuous_load.has_pending sim
    do
      let t0 = Continuous_load.now sim in
      let l0 = Continuous_load.load sim in
      Continuous_load.step sim;
      Mbac_stats.Welford.Weighted.add cal_stats
        ~weight:(Continuous_load.now sim -. t0)
        l0
    done;
    let m = Mbac_stats.Welford.Weighted.mean cal_stats in
    if not (m < capacity) then
      invalid_arg
        (Printf.sprintf
           "Splitting: calibrated mean load %g is not below capacity %g \
            (nothing rare to estimate)"
           m capacity);
    let z j =
      cfg.base_level
      +. ((1.0 -. cfg.base_level) *. float_of_int j
          /. float_of_int cfg.levels)
    in
    let base = m +. (cfg.base_level *. (capacity -. m)) in
    let thresholds =
      Array.init cfg.levels (fun j ->
          if j = cfg.levels - 1 then capacity
          else m +. (z (j + 1) *. (capacity -. m)))
    in
    let l1 = thresholds.(0) in
    (* collect entrances: up-crossings of L_1 after touching base *)
    let collect_start = Continuous_load.now sim in
    let collect_end = collect_start +. cfg.pilot_time in
    let armed = ref (Continuous_load.load sim <= base) in
    let entrances = ref 0 in
    let pool = ref [] in
    let pool_n = ref 0 in
    let ovf_time = ref 0.0 in
    while
      Continuous_load.now sim < collect_end
      && Continuous_load.has_pending sim
    do
      let t0 = Continuous_load.now sim in
      let l0 = Continuous_load.load sim in
      Continuous_load.step sim;
      if l0 > capacity then
        ovf_time := !ovf_time +. (Continuous_load.now sim -. t0);
      let l = Continuous_load.load sim in
      if !armed && l > l1 then begin
        incr entrances;
        Mbac_telemetry.Metrics.Handle.inc m_entrances;
        if !pool_n < cfg.max_pool then begin
          pool := Continuous_load.snapshot sim :: !pool;
          incr pool_n
        end;
        armed := false
      end
      else if (not !armed) && l <= base then armed := true
    done;
    let elapsed = Continuous_load.now sim -. collect_start in
    ( m, base, thresholds, !entrances,
      Array.of_list (List.rev !pool),
      (if elapsed > 0.0 then float_of_int !entrances /. elapsed else 0.0),
      (if elapsed > 0.0 then !ovf_time /. elapsed else 0.0),
      Continuous_load.events_processed sim )
  in
  let ( mean_load, base, thresholds, excursions, pool0, nu1, pilot_p_f,
        pilot_events ) =
    pilot
  in
  let total_events = ref pilot_events in
  let truncated_trials = ref 0 in
  let degenerate ~level_stats =
    { p_f = 0.0; ci_rel = infinity; mean_load; base_threshold = base;
      thresholds; excursion_rate = nu1; excursions;
      mean_overflow_time = 0.0; top_trials = 0; level_stats; pilot_events;
      pilot_p_f; total_events = !total_events;
      truncated_trials = !truncated_trials }
  in
  if excursions = 0 || Array.length pool0 = 0 then degenerate ~level_stats:[||]
  else begin
    (* -------------------- intermediate stages ----------------------- *)
    (* Successful trials with index below this budget carry a snapshot
       out (bounding transient memory); the next pool keeps the first
       [max_pool] of them in trial order. *)
    let snapshot_budget =
      min cfg.trials_per_level (max (4 * cfg.max_pool) 256)
    in
    let n_stages = cfg.levels - 1 in
    let level_stats = ref [] in
    (* each entrance with the index of the pilot entrance it descends
       from; [stages] collects every stage's (roots, values) for the
       jackknife *)
    let roots = Array.length pool0 in
    let pool = ref (Array.mapi (fun r snap -> (snap, r)) pool0) in
    let stages = ref [] in
    let mean values =
      Array.fold_left ( +. ) 0.0 values /. float_of_int (Array.length values)
    in
    let trial_roots entrance_pool =
      Array.init cfg.trials_per_level (fun i ->
          snd entrance_pool.(i mod Array.length entrance_pool))
    in
    let alive = ref true in
    let stage = ref 0 in
    while !alive && !stage < n_stages do
      let l = !stage + 1 in
      let target = thresholds.(l) in
      let entrance_pool = !pool in
      let pool_len = Array.length entrance_pool in
      Mbac_telemetry.Metrics.Handle.set_gauge m_clone_population
        (float_of_int pool_len);
      let trials =
        Mbac_telemetry.Profile.span "splitting.level" @@ fun () ->
        chunked ?jobs cfg.trials_per_level (fun i ->
            run_trial
              ~entrance:(fst entrance_pool.(i mod pool_len))
              ~rng:(derive (Printf.sprintf ":level=%d:trial=%d" l i))
              ~base ~target ~max_events:cfg.max_trial_events
              ~want_snapshot:(i < snapshot_budget))
      in
      let successes = ref 0 in
      let next_pool = ref [] in
      let next_n = ref 0 in
      let level_events = ref 0 in
      List.iteri
        (fun i t ->
          level_events := !level_events + t.trial_events;
          if t.truncated then incr truncated_trials;
          if t.success then begin
            incr successes;
            match t.snap with
            | Some s when !next_n < cfg.max_pool ->
                next_pool :=
                  (s, snd entrance_pool.(i mod pool_len)) :: !next_pool;
                incr next_n
            | Some _ | None -> ()
          end)
        trials;
      total_events := !total_events + !level_events;
      let roots_of_trials = trial_roots entrance_pool in
      let indicators =
        Array.of_list
          (List.map (fun t -> if t.success then 1.0 else 0.0) trials)
      in
      stages := (roots_of_trials, indicators) :: !stages;
      let p_hat = mean indicators in
      let rel_var = jackknife_rel_var ~roots [ (roots_of_trials, indicators) ] in
      level_stats :=
        { threshold = target; trials = cfg.trials_per_level;
          successes = !successes; p_hat; rel_var; pool = pool_len;
          level_events = !level_events }
        :: !level_stats;
      pool := Array.of_list (List.rev !next_pool);
      if !successes = 0 || Array.length !pool = 0 then alive := false;
      incr stage
    done;
    let level_stats = Array.of_list (List.rev !level_stats) in
    if not !alive then degenerate ~level_stats
    else begin
      (* -------------------- top stage: E[T_over] --------------------- *)
      let entrance_pool = !pool in
      let pool_len = Array.length entrance_pool in
      Mbac_telemetry.Metrics.Handle.set_gauge m_clone_population
        (float_of_int pool_len);
      let tops =
        Mbac_telemetry.Profile.span "splitting.level" @@ fun () ->
        chunked ?jobs cfg.trials_per_level (fun i ->
            run_top_trial
              ~entrance:(fst entrance_pool.(i mod pool_len))
              ~rng:(derive (Printf.sprintf ":level=top:trial=%d" i))
              ~base ~capacity ~max_events:cfg.max_trial_events)
      in
      List.iter
        (fun (_, ev, trunc) ->
          total_events := !total_events + ev;
          if trunc then incr truncated_trials)
        tops;
      let times = Array.of_list (List.map (fun (t, _, _) -> t) tops) in
      let mean_t = mean times in
      let product =
        Array.fold_left (fun acc ls -> acc *. ls.p_hat) 1.0 level_stats
      in
      let p_f = nu1 *. product *. mean_t in
      (* The stages' product by the root jackknife; the excursion-rate
         term adds the Poisson approximation Var(nu_1)/nu_1^2 ~
         1/entrances. *)
      let rel_var_total =
        (1.0 /. float_of_int excursions)
        +. jackknife_rel_var ~roots
             (List.rev ((trial_roots entrance_pool, times) :: !stages))
      in
      let ci_rel =
        if Float.is_nan p_f || p_f <= 0.0 then infinity
        else 1.96 *. sqrt rel_var_total
      in
      { p_f; ci_rel; mean_load; base_threshold = base; thresholds;
        excursion_rate = nu1; excursions; mean_overflow_time = mean_t;
        top_trials = cfg.trials_per_level; level_stats; pilot_events;
        pilot_p_f; total_events = !total_events;
        truncated_trials = !truncated_trials }
    end
  end

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>splitting: p_f = %.4g (95%% rel CI half-width %.2g)@,\
     mean load %.4g, base %.4g, levels %d, excursion rate %.4g (%d \
     excursions)@,\
     mean overflow time %.4g over %d top trials@,"
    r.p_f r.ci_rel r.mean_load r.base_threshold
    (Array.length r.thresholds) r.excursion_rate r.excursions
    r.mean_overflow_time r.top_trials;
  Array.iteri
    (fun i ls ->
      Format.fprintf fmt
        "level %d: threshold %.4g p = %.4g (%d/%d, pool %d, events %d)@,"
        (i + 1) ls.threshold ls.p_hat ls.successes ls.trials ls.pool
        ls.level_events)
    r.level_stats;
  Format.fprintf fmt
    "pilot: %d events, direct p_f %.4g@,total events %d, truncated trials \
     %d@]"
    r.pilot_events r.pilot_p_f r.total_events r.truncated_trials
