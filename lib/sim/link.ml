(* Per-event mutable floats live in their own all-float record so their
   stores stay unboxed (a mutable float field in the mixed record below
   would box on every store). *)
type hot = {
  mutable last_t : float;
  mutable sum_rate : float;
  mutable sum_sq : float;
  mutable ovf_start : float;
  mutable ovf_excess : float;
  mutable ovf_time : float;
}

(* [granted.(slot)] is nan on a vacant slot, so the resync scan needs no
   second array to tell live slots apart. *)
type t = {
  capacity : float;
  max_flows : int;
  controller : Mbac.Controller.t;
  meas : Measurement.t;
  hot : hot;
  slots : Slots.t;
  mutable granted : Float.Array.t;
  mutable n : int;
  mutable events : int;
  mutable in_episode : bool;
  mutable episodes : int;
  mutable reserved : int;
  mutable released : int;
  mutable updates : int;
}

type transition = Steady | Opened | Closed

let[@inline] observation l =
  Mbac.Observation.make ~now:l.hot.last_t ~n:l.n ~sum_rate:l.hot.sum_rate
    ~sum_sq:l.hot.sum_sq

let create ~capacity ~warmup ~batch_length ~controller ~max_flows =
  Mbac.Controller.reset controller;
  let l =
    { capacity; max_flows; controller;
      meas =
        Measurement.create ~sample_spacing:batch_length ~capacity ~warmup
          ~batch_length ();
      hot =
        { last_t = 0.0; sum_rate = 0.0; sum_sq = 0.0; ovf_start = nan;
          ovf_excess = 0.0; ovf_time = 0.0 };
      slots = Slots.create ();
      granted = Float.Array.create 0;
      n = 0; events = 0; in_episode = false; episodes = 0;
      reserved = 0; released = 0; updates = 0 }
  in
  Mbac.Controller.observe controller (observation l);
  l

let copy l =
  { l with
    controller = Mbac.Controller.copy l.controller;
    meas = Measurement.copy l.meas;
    hot = { l.hot with last_t = l.hot.last_t };
    slots = Slots.copy l.slots;
    granted = Float.Array.copy l.granted }

let capacity l = l.capacity
let measurement l = l.meas
let[@inline] now l = l.hot.last_t
let[@inline] n l = l.n
let[@inline] sum_rate l = l.hot.sum_rate
let[@inline] sum_sq l = l.hot.sum_sq

let grow l =
  let cap = Float.Array.length l.granted in
  let granted = Float.Array.make (max 1024 (2 * cap)) nan in
  Float.Array.blit l.granted 0 granted 0 cap;
  l.granted <- granted

let[@inline] reserve l ~rate =
  let slot = Slots.alloc l.slots in
  if slot = Float.Array.length l.granted then grow l;
  Float.Array.unsafe_set l.granted slot rate;
  l.n <- l.n + 1;
  l.hot.sum_rate <- l.hot.sum_rate +. rate;
  l.hot.sum_sq <- l.hot.sum_sq +. (rate *. rate);
  l.reserved <- l.reserved + 1;
  slot

let release l slot =
  let g = Float.Array.get l.granted slot in
  Float.Array.set l.granted slot nan;
  Slots.free l.slots slot;
  l.n <- l.n - 1;
  l.hot.sum_rate <- l.hot.sum_rate -. g;
  l.hot.sum_sq <- l.hot.sum_sq -. (g *. g);
  if l.n = 0 then begin
    l.hot.sum_rate <- 0.0;
    l.hot.sum_sq <- 0.0
  end;
  l.released <- l.released + 1

let[@inline] rate l slot = Float.Array.get l.granted slot

let[@inline] set_rate l slot desired =
  let old = Float.Array.get l.granted slot in
  Float.Array.set l.granted slot desired;
  l.hot.sum_rate <- l.hot.sum_rate +. desired -. old;
  l.hot.sum_sq <- l.hot.sum_sq +. (desired *. desired) -. (old *. old);
  l.updates <- l.updates + 1

let reserved l = l.reserved
let released l = l.released
let updates l = l.updates

(* The admission sequence: every change of the link's load is shown to
   its controller, in the order both simulators have always issued the
   calls — the decision observes first, an admission and a departure are
   observed and then reported, a renegotiation only observed. *)

let[@inline] observe l =
  let obs = observation l in
  Mbac.Controller.observe l.controller obs;
  obs

let[@inline] room l obs =
  l.n < Mbac.Controller.admissible l.controller obs && l.n < l.max_flows

let admit l ~rate =
  let slot = reserve l ~rate in
  Mbac.Controller.on_admit l.controller (observe l);
  slot

let depart l slot =
  release l slot;
  let obs = observe l in
  Mbac.Controller.on_depart l.controller obs;
  obs

let[@inline] renegotiate l slot rate =
  set_rate l slot rate;
  observe l

(* An episode opens when the load first exceeds capacity and closes on
   the first segment back at or under it. *)
let[@inline] track_overflow l ~t0 ~t1 =
  let h = l.hot in
  let over = h.sum_rate > l.capacity in
  let transition =
    if over && not l.in_episode then begin
      h.ovf_start <- t0;
      h.ovf_excess <- 0.0;
      l.in_episode <- true;
      l.episodes <- l.episodes + 1;
      Opened
    end
    else if (not over) && l.in_episode then begin
      h.ovf_time <- h.ovf_time +. (t0 -. h.ovf_start);
      l.in_episode <- false;
      Closed
    end
    else Steady
  in
  if over then
    h.ovf_excess <- h.ovf_excess +. ((h.sum_rate -. l.capacity) *. (t1 -. t0));
  transition

let[@inline] record_segment l ~t1 =
  let t0 = l.hot.last_t in
  Measurement.record l.meas ~t0 ~t1 ~load:l.hot.sum_rate;
  l.hot.last_t <- t1;
  if t1 > t0 then track_overflow l ~t0 ~t1 else Steady

let resync l =
  let sum = ref 0.0 and sq = ref 0.0 in
  for slot = 0 to Slots.limit l.slots - 1 do
    let g = Float.Array.unsafe_get l.granted slot in
    if not (Float.is_nan g) then begin
      sum := !sum +. g;
      sq := !sq +. (g *. g)
    end
  done;
  l.hot.sum_rate <- !sum;
  l.hot.sum_sq <- !sq

let[@inline] tick l =
  l.events <- l.events + 1;
  if l.events mod 4_000_000 = 0 then resync l

let events l = l.events
let episodes l = l.episodes
let episode_start l = l.hot.ovf_start
let episode_excess l = l.hot.ovf_excess
let overflow_time l = l.hot.ovf_time

let close_episode l =
  l.in_episode
  && begin
       l.hot.ovf_time <- l.hot.ovf_time +. (l.hot.last_t -. l.hot.ovf_start);
       l.in_episode <- false;
       true
     end
