module CQ = Mbac_sim.Calendar_queue
module Link = Mbac_sim.Link
module Meas = Mbac_sim.Measurement
module Slots = Mbac_sim.Slots
module Handle = Mbac_telemetry.Metrics.Handle

type config = {
  topology : Topology.t;
  shards : int;
  holding_time_mean : float;
  setup_delay : float;
  warmup : float;
  batch_length : float;
  target_p_q : float;
  max_time : float;
  max_events : int;
  max_flows_per_link : int;
}

let default_config ~topology ~holding_time_mean ~target_p_q =
  { topology;
    shards = 1;
    holding_time_mean;
    setup_delay = holding_time_mean /. 100.0;
    warmup = holding_time_mean;
    batch_length = holding_time_mean /. 5.0;
    target_p_q;
    max_time = 1e12;
    max_events = 200_000_000;
    max_flows_per_link = 10_000_000 }

type link_result = {
  link : int;
  capacity : float;
  p_f : float;
  estimate_kind : [ `Direct | `Gaussian_fit ];
  p_f_point : float;
  mean_load : float;
  std_load : float;
  utilization : float;
  reserved : int;
  link_blocked : int;
  released : int;
  updates : int;
  ovf_episodes : int;
  ovf_time : float;
}

type result = {
  flows_admitted : int;
  flows_blocked : int;
  flows_departed : int;
  blocking_probability : float;
  events : int;
  sim_time : float;
  windows : int;
  messages : int;
  links : link_result array;
}

let route_stream_tag i = Printf.sprintf "net-route-%d" i

(* ---------- wheel payload encoding ----------

   Same 2-bit tag and 24-bit slot as [Continuous_load], but the
   generation is truncated to 18 bits to make room for a 19-bit route
   id: stale depart/change events (leftovers of a freed flow slot) must
   be attributed to their ORIGINAL flow's ingress link — reading the
   slot's current occupant would attribute them to whatever flow reused
   the slot, which depends on the sharding.  18 generation bits are
   ample: a stale event only spans one holding time, during which any
   single slot is reused a handful of times, never 2^18. *)

let tag_arrive = 0 (* slot = local route index *)
let tag_depart = 1
let tag_change = 2
let tag_msg = 3 (* slot = arena index *)
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let gen_bits = 18
let gen_mask = (1 lsl gen_bits) - 1
let route_bits = 19
let route_mask = (1 lsl route_bits) - 1

let[@inline] encode ~tag ~slot ~gen ~route =
  tag
  lor (slot lsl 2)
  lor ((gen land gen_mask) lsl (slot_bits + 2))
  lor (route lsl (slot_bits + gen_bits + 2))

let[@inline] p_tag p = p land 3
let[@inline] p_slot p = (p lsr 2) land slot_mask
let[@inline] p_gen p = (p lsr (slot_bits + 2)) land gen_mask
let[@inline] p_route p = (p lsr (slot_bits + gen_bits + 2)) land route_mask

(* message kinds (arena / exchange payload) *)
let k_setup = 0
let k_confirm = 1
let k_reject = 2
let k_release = 3
let k_update = 4
let k_selfrel = 5

let[@inline] flow_key ~route ~seq = (route lsl 32) lor seq

(* ---------- telemetry ---------- *)

let m_events = Handle.counter "net_events_total"
let m_admitted = Handle.counter "net_flows_admitted_total"
let m_blocked = Handle.counter "net_flows_blocked_total"
let m_departed = Handle.counter "net_flows_departed_total"
let m_link_blocked = Handle.counter "net_link_blocked_total"
let m_messages = Handle.counter "net_messages_total"
let m_windows = Handle.counter "net_exchange_windows_total"
let m_ovf_episodes = Handle.counter "net_overflow_episodes_total"
let m_ovf_time = Handle.sum "net_overflow_time"
let m_time = Handle.sum "net_time_simulated"
let g_links = Handle.gauge "net_links"
let g_shards = Handle.gauge "net_shards"

(* ---------- per-link state ---------- *)

(* The link's load, slot table and overflow episodes live in [l_load];
   [l_tab] maps a flow key to its slot there. *)
type link_state = {
  l_id : int;
  l_ctrl : Mbac.Controller.t;
  l_load : Link.t;
  l_tab : Int_table.t;
  mutable l_blocked : int;
}

type shard = {
  sh_id : int;
  wheel : CQ.t;
  links : link_state array;
  (* ingress routes of this shard *)
  sr_route : int array; (* local index -> global route id *)
  sr_rng : Mbac_stats.Rng.t array;
  sr_arrival_mean : float array;
  sr_seq : int array; (* per-route admitted-at-ingress counter *)
  (* ingress flow table (SoA, slot-indexed) *)
  f_slots : Slots.t;
  mutable f_route : int array;
  mutable f_seq : int array;
  mutable f_gen : int array;
  mutable f_sources : Mbac_traffic.Source.t option array;
  (* arena of pending message events (wheel payloads are ints) *)
  a_slots : Slots.t;
  mutable a_kind : int array;
  mutable a_link : int array;
  mutable a_hop : int array;
  mutable a_route : int array;
  mutable a_seq : int array;
  mutable a_islot : int array;
  mutable a_igen : int array;
  mutable a_rate : Float.Array.t;
  mutable a_tend : Float.Array.t;
  mutable sh_events : int;
  mutable sh_admitted : int;
  mutable sh_blocked : int;
  mutable sh_departed : int;
}

type engine = {
  cfg : config;
  topo : Topology.t;
  d : float; (* setup delay = lookahead = window length *)
  owner : int array; (* link id -> shard id *)
  local_ix : int array; (* link id -> index into owner's [links] *)
  shards : shard array;
  ex : Exchange.t;
  make_source : Mbac_stats.Rng.t -> start:float -> Mbac_traffic.Source.t;
  mutable windows : int;
}

(* ---------- link reservations ---------- *)

(* The controller calls around the link's slot operations are
   [Continuous_load]'s: the decision observes the link first, an
   admission and a release are observed and reported, a renegotiation
   observed. *)

let admits eng l =
  let obs = Link.observation l.l_load in
  Mbac.Controller.observe l.l_ctrl obs;
  let m = Mbac.Controller.admissible l.l_ctrl obs in
  let n = Link.n l.l_load in
  if n < m && n < eng.cfg.max_flows_per_link then Some obs else None

let reserve l obs ~key ~rate =
  Int_table.add l.l_tab ~key ~value:(Link.reserve l.l_load ~rate);
  let obs' = Mbac.Observation.admit obs ~rate in
  Mbac.Controller.observe l.l_ctrl obs';
  Mbac.Controller.on_admit l.l_ctrl obs'

let release l ~key ~slot =
  Int_table.remove l.l_tab ~key;
  Link.release l.l_load slot;
  let obs = Link.observation l.l_load in
  Mbac.Controller.observe l.l_ctrl obs;
  Mbac.Controller.on_depart l.l_ctrl obs

let renegotiate l ~slot ~rate =
  Link.set_rate l.l_load slot rate;
  Mbac.Controller.observe l.l_ctrl (Link.observation l.l_load)

(* ---------- flow table and message arena ---------- *)

let grow_int a ncap = Array.append a (Array.make (ncap - Array.length a) 0)

let grow_float a ncap =
  let g = Float.Array.create ncap in
  Float.Array.blit a 0 g 0 (Float.Array.length a);
  g

let flow_alloc sh =
  let slot = Slots.alloc sh.f_slots in
  if slot > slot_mask then
    invalid_arg "Network: more concurrent ingress flows than slot bits";
  if slot = Array.length sh.f_sources then begin
    let ncap = max 1024 (2 * slot) in
    sh.f_route <- grow_int sh.f_route ncap;
    sh.f_seq <- grow_int sh.f_seq ncap;
    sh.f_gen <- grow_int sh.f_gen ncap;
    sh.f_sources <- Array.append sh.f_sources (Array.make (ncap - slot) None)
  end;
  slot

let flow_free sh slot =
  sh.f_sources.(slot) <- None;
  sh.f_gen.(slot) <- sh.f_gen.(slot) + 1;
  Slots.free sh.f_slots slot

(* Queue a message as a wheel event on [sh] (delivery already decided). *)
let push_local sh ~time ~kind ~link ~hop ~route ~seq ~islot ~igen ~rate
    ~t_end =
  let idx = Slots.alloc sh.a_slots in
  if idx > slot_mask then
    invalid_arg "Network: more pending messages than slot bits";
  if idx = Array.length sh.a_kind then begin
    let ncap = max 256 (2 * idx) in
    sh.a_kind <- grow_int sh.a_kind ncap;
    sh.a_link <- grow_int sh.a_link ncap;
    sh.a_hop <- grow_int sh.a_hop ncap;
    sh.a_route <- grow_int sh.a_route ncap;
    sh.a_seq <- grow_int sh.a_seq ncap;
    sh.a_islot <- grow_int sh.a_islot ncap;
    sh.a_igen <- grow_int sh.a_igen ncap;
    sh.a_rate <- grow_float sh.a_rate ncap;
    sh.a_tend <- grow_float sh.a_tend ncap
  end;
  sh.a_kind.(idx) <- kind;
  sh.a_link.(idx) <- link;
  sh.a_hop.(idx) <- hop;
  sh.a_route.(idx) <- route;
  sh.a_seq.(idx) <- seq;
  sh.a_islot.(idx) <- islot;
  sh.a_igen.(idx) <- igen;
  Float.Array.set sh.a_rate idx rate;
  Float.Array.set sh.a_tend idx t_end;
  CQ.push sh.wheel ~time (encode ~tag:tag_msg ~slot:idx ~gen:0 ~route:0)

(* Route a message to the shard owning [link]: straight into our own
   wheel when we own it (delivery times always land in a later window,
   so this never perturbs the current drain), through the exchange
   otherwise. *)
let send_msg eng sh ~time ~kind ~link ~hop ~route ~seq ~islot ~igen ~rate
    ~t_end =
  let dst = eng.owner.(link) in
  if dst = sh.sh_id then
    push_local sh ~time ~kind ~link ~hop ~route ~seq ~islot ~igen ~rate
      ~t_end
  else
    Exchange.send eng.ex ~src:sh.sh_id ~dst ~time ~kind ~link ~hop ~route
      ~seq ~islot ~igen ~rate ~t_end

let[@inline] link_of eng sh link_id = sh.links.(eng.local_ix.(link_id))

(* Renegotiation notices to the downstream hops of [route]. *)
let send_updates eng sh ~te ~route ~seq ~rate =
  let links = eng.topo.routes.(route).Topology.links in
  for h = 1 to Array.length links - 1 do
    send_msg eng sh
      ~time:(te +. (float_of_int h *. eng.d))
      ~kind:k_update ~link:links.(h) ~hop:h ~route ~seq ~islot:0 ~igen:0
      ~rate ~t_end:0.0
  done

(* ---------- event handlers ---------- *)

(* Ingress arrival on [route]: bit-for-bit the Poisson arrival path of
   [Continuous_load.handle_arrival] on the ingress link (same draw
   order: source, holding, next inter-arrival), plus the setup walk for
   multi-hop routes. *)
let handle_arrival eng sh ~te ~lr l =
  let route = sh.sr_route.(lr) in
  let rng = sh.sr_rng.(lr) in
  let links = eng.topo.routes.(route).Topology.links in
  (match admits eng l with
  | Some obs ->
      let source = eng.make_source rng ~start:te in
      let rate = Mbac_traffic.Source.rate source in
      let fslot = flow_alloc sh in
      let gen = sh.f_gen.(fslot) in
      let seq = sh.sr_seq.(lr) in
      sh.sr_seq.(lr) <- seq + 1;
      reserve l obs ~key:(flow_key ~route ~seq) ~rate;
      sh.f_route.(fslot) <- route;
      sh.f_seq.(fslot) <- seq;
      sh.f_sources.(fslot) <- Some source;
      let holding =
        Mbac_stats.Sample.exponential rng ~mean:eng.cfg.holding_time_mean
      in
      let t_end = te +. holding in
      CQ.push sh.wheel ~time:t_end
        (encode ~tag:tag_depart ~slot:fslot ~gen ~route);
      if Array.length links = 1 then begin
        CQ.push sh.wheel
          ~time:(Mbac_traffic.Source.next_change source)
          (encode ~tag:tag_change ~slot:fslot ~gen ~route);
        sh.sh_admitted <- sh.sh_admitted + 1
      end
      else
        send_msg eng sh ~time:(te +. eng.d) ~kind:k_setup ~link:links.(1)
          ~hop:1 ~route ~seq ~islot:fslot ~igen:gen ~rate ~t_end
  | None ->
      l.l_blocked <- l.l_blocked + 1;
      sh.sh_blocked <- sh.sh_blocked + 1);
  CQ.push sh.wheel
    ~time:
      (te +. Mbac_stats.Sample.exponential rng ~mean:sh.sr_arrival_mean.(lr))
    (encode ~tag:tag_arrive ~slot:lr ~gen:0 ~route)

let handle_depart sh ~fslot ~gen l =
  match sh.f_sources.(fslot) with
  | Some _ when sh.f_gen.(fslot) land gen_mask = gen ->
      let key = flow_key ~route:sh.f_route.(fslot) ~seq:sh.f_seq.(fslot) in
      release l ~key ~slot:(Int_table.find l.l_tab ~key);
      flow_free sh fslot;
      sh.sh_departed <- sh.sh_departed + 1
  | Some _ | None -> () (* stale: flow rejected downstream and freed *)

let handle_change eng sh ~te ~fslot ~gen l =
  match sh.f_sources.(fslot) with
  | Some source when sh.f_gen.(fslot) land gen_mask = gen ->
      Mbac_traffic.Source.fire source ~now:te;
      let desired = Mbac_traffic.Source.rate source in
      let route = sh.f_route.(fslot) in
      let seq = sh.f_seq.(fslot) in
      renegotiate l
        ~slot:(Int_table.find l.l_tab ~key:(flow_key ~route ~seq))
        ~rate:desired;
      CQ.push sh.wheel
        ~time:(Mbac_traffic.Source.next_change source)
        (encode ~tag:tag_change ~slot:fslot ~gen ~route);
      send_updates eng sh ~te ~route ~seq ~rate:desired
  | Some _ | None -> () (* stale event of a departed flow *)

let handle_msg eng sh ~te ~idx l =
  let kind = sh.a_kind.(idx) in
  let hop = sh.a_hop.(idx) in
  let route = sh.a_route.(idx) in
  let seq = sh.a_seq.(idx) in
  let islot = sh.a_islot.(idx) in
  let igen = sh.a_igen.(idx) in
  let rate = Float.Array.get sh.a_rate idx in
  let t_end = Float.Array.get sh.a_tend idx in
  Slots.free sh.a_slots idx;
  let links = eng.topo.routes.(route).Topology.links in
  let key = flow_key ~route ~seq in
  if kind = k_setup then begin
    match admits eng l with
    | Some obs ->
        reserve l obs ~key ~rate;
        (* the link releases itself at the flow's own end time, shifted by
           the same per-hop delay its setup took: no departure messages *)
        push_local sh
          ~time:(t_end +. (float_of_int hop *. eng.d))
          ~kind:k_selfrel ~link:l.l_id ~hop ~route ~seq ~islot:0 ~igen:0
          ~rate:0.0 ~t_end:0.0;
        if hop = Array.length links - 1 then
          send_msg eng sh ~time:(te +. eng.d) ~kind:k_confirm ~link:links.(0)
            ~hop:0 ~route ~seq ~islot ~igen ~rate:0.0 ~t_end:0.0
        else
          send_msg eng sh ~time:(te +. eng.d) ~kind:k_setup
            ~link:links.(hop + 1) ~hop:(hop + 1) ~route ~seq ~islot ~igen
            ~rate ~t_end
    | None ->
        l.l_blocked <- l.l_blocked + 1;
        send_msg eng sh ~time:(te +. eng.d) ~kind:k_reject ~link:links.(0)
          ~hop ~route ~seq ~islot ~igen ~rate:0.0 ~t_end:0.0
  end
  else if kind = k_confirm then begin
    match sh.f_sources.(islot) with
    | Some source when sh.f_gen.(islot) = igen ->
        sh.sh_admitted <- sh.sh_admitted + 1;
        (* catch up on renegotiation epochs missed during the walk *)
        Mbac_traffic.Source.fire_until source ~upto:te;
        let desired = Mbac_traffic.Source.rate source in
        let slot = Int_table.find l.l_tab ~key in
        if desired <> Link.rate l.l_load slot then begin
          renegotiate l ~slot ~rate:desired;
          send_updates eng sh ~te ~route ~seq ~rate:desired
        end;
        CQ.push sh.wheel
          ~time:(Mbac_traffic.Source.next_change source)
          (encode ~tag:tag_change ~slot:islot ~gen:(igen land gen_mask)
             ~route)
    | Some _ | None -> () (* departed before the confirm arrived *)
  end
  else if kind = k_reject then begin
    match sh.f_sources.(islot) with
    | Some _ when sh.f_gen.(islot) = igen ->
        sh.sh_blocked <- sh.sh_blocked + 1;
        release l ~key ~slot:(Int_table.find l.l_tab ~key);
        flow_free sh islot; (* invalidates the pending depart event *)
        for h = 1 to hop - 1 do
          send_msg eng sh ~time:(te +. eng.d) ~kind:k_release
            ~link:links.(h) ~hop:h ~route ~seq ~islot:0 ~igen:0 ~rate:0.0
            ~t_end:0.0
        done
    | Some _ | None -> () (* departed before the reject arrived *)
  end
  else begin
    let slot = Int_table.find l.l_tab ~key in
    (* absent: already released here (by the other of release and
       self-release, or before a late update) *)
    if slot >= 0 then
      if kind = k_update then renegotiate l ~slot ~rate
      else release l ~key ~slot
  end

(* ---------- shard drain ---------- *)

let advance eng sh ~w_end =
  let wheel = sh.wheel in
  while (not (CQ.is_empty wheel)) && CQ.min_time wheel < w_end do
    let te = CQ.min_time wheel in
    let payload = CQ.min_payload wheel in
    CQ.drop_min wheel;
    let tag = p_tag payload in
    let l =
      if tag = tag_msg then link_of eng sh sh.a_link.(p_slot payload)
      else link_of eng sh eng.topo.routes.(p_route payload).Topology.links.(0)
    in
    ignore (Link.record_segment l.l_load ~t1:te : Link.transition);
    if tag = tag_arrive then handle_arrival eng sh ~te ~lr:(p_slot payload) l
    else if tag = tag_depart then
      handle_depart sh ~fslot:(p_slot payload) ~gen:(p_gen payload) l
    else if tag = tag_change then
      handle_change eng sh ~te ~fslot:(p_slot payload) ~gen:(p_gen payload) l
    else handle_msg eng sh ~te ~idx:(p_slot payload) l;
    sh.sh_events <- sh.sh_events + 1;
    Link.tick l.l_load
  done

let deliver_all eng =
  let ex = eng.ex in
  for dst = 0 to Array.length eng.shards - 1 do
    let n = Exchange.deliver ex ~dst in
    let sh = eng.shards.(dst) in
    for i = 0 to n - 1 do
      push_local sh ~time:(Exchange.in_time ex i)
        ~kind:(Exchange.in_kind ex i) ~link:(Exchange.in_link ex i)
        ~hop:(Exchange.in_hop ex i) ~route:(Exchange.in_route ex i)
        ~seq:(Exchange.in_seq ex i) ~islot:(Exchange.in_islot ex i)
        ~igen:(Exchange.in_igen ex i) ~rate:(Exchange.in_rate ex i)
        ~t_end:(Exchange.in_tend ex i)
    done
  done

let total_events eng =
  Array.fold_left (fun acc sh -> acc + sh.sh_events) 0 eng.shards

let global_min_time eng =
  Array.fold_left
    (fun acc sh ->
      if CQ.is_empty sh.wheel then acc else Float.min acc (CQ.min_time sh.wheel))
    Float.infinity eng.shards

(* Window-boundary bookkeeping: count the window, check the stop
   conditions, and fast-forward over empty windows (snapping to the
   absolute [k * d] grid so the boundary sequence — and with it every
   stop decision — is a pure function of the global event set, not of
   the sharding). *)
let after_window eng ~w_start =
  eng.windows <- eng.windows + 1;
  let cfg = eng.cfg in
  let w_start = w_start +. eng.d in
  if total_events eng >= cfg.max_events || w_start >= cfg.max_time then None
  else begin
    let t_next = global_min_time eng in
    if t_next = Float.infinity then None
    else if t_next >= w_start +. eng.d then
      Some
        (Float.max w_start
           (float_of_int (int_of_float (t_next /. eng.d)) *. eng.d))
    else Some w_start
  end

(* ---------- driver ---------- *)

(* One driver at every width.  [width] runners each own a contiguous
   block of ⌈shards / width⌉ shards and advance them window by window;
   runners meet at a spin barrier after each window.  Runner 0 is the
   leader: at each barrier it drains the exchange into every shard's
   wheel and publishes the next window (or the stop), which the others
   pick up through the epoch counter.  All cross-runner plain-field
   reads are ordered by the [arrived]/[epoch] atomics.

   Serial is one runner, run in the calling domain.  Otherwise the
   runners go to one pool invocation for the whole run, claimed with
   [~chunk:1] so each runner holds its own domain — required, because a
   domain blocked at the barrier inside one runner must never have a
   second runner queued behind it. *)
type barrier_ctl = {
  arrived : int Atomic.t;
  epoch : int Atomic.t;
  mutable c_w_end : float;
  mutable c_stop : bool;
}

let run_windows eng ~width =
  let shard_count = Array.length eng.shards in
  let per_runner = (shard_count + width - 1) / width in
  let runners = (shard_count + per_runner - 1) / per_runner in
  let ctl =
    { arrived = Atomic.make 0;
      epoch = Atomic.make 0;
      c_w_end = eng.d;
      c_stop = false }
  in
  let failures = Array.make runners None in
  let w_start = ref 0.0 in
  let runner r () =
    let first = r * per_runner in
    let last = min shard_count (first + per_runner) - 1 in
    let my_epoch = ref 0 in
    let continue = ref true in
    while !continue do
      (if failures.(r) = None then
         try
           for i = first to last do
             advance eng eng.shards.(i) ~w_end:ctl.c_w_end
           done
         with e -> failures.(r) <- Some e);
      if r = 0 then begin
        while Atomic.get ctl.arrived < runners - 1 do
          Domain.cpu_relax ()
        done;
        Atomic.set ctl.arrived 0;
        (if Array.exists Option.is_some failures then ctl.c_stop <- true
         else begin
           deliver_all eng;
           match after_window eng ~w_start:!w_start with
           | Some w ->
               w_start := w;
               ctl.c_w_end <- w +. eng.d
           | None -> ctl.c_stop <- true
         end);
        Atomic.incr ctl.epoch
      end
      else begin
        Atomic.incr ctl.arrived;
        while Atomic.get ctl.epoch <= !my_epoch do
          Domain.cpu_relax ()
        done
      end;
      incr my_epoch;
      if ctl.c_stop then continue := false
    done;
    match failures.(r) with Some e -> raise e | None -> ()
  in
  if runners = 1 then runner 0 ()
  else
    (* [~count_tasks:false]: the task count depends on the width, so
       counting it would make the metric snapshot jobs-dependent. *)
    ignore
      (Mbac_sim.Parallel.run_tasks ~jobs:runners ~chunk:1 ~count_tasks:false
         (List.init runners runner))

(* ---------- engine construction ---------- *)

let build ~seed cfg ~make_controller ~make_source =
  let topo = cfg.topology in
  let nl = Topology.num_links topo in
  let nr = Topology.num_routes topo in
  if cfg.shards < 1 || cfg.shards > min nl 256 then
    invalid_arg "Network.run: shards outside 1..min(links, 256)";
  if nr > route_mask then invalid_arg "Network.run: too many routes";
  if not (cfg.setup_delay > 0.0) then
    invalid_arg "Network.run: setup_delay <= 0";
  if not (cfg.holding_time_mean > 0.0) then
    invalid_arg "Network.run: holding_time_mean <= 0";
  let owner = Array.init nl (fun i -> i * cfg.shards / nl) in
  let local_ix = Array.make nl 0 in
  let shards =
    Array.init cfg.shards (fun si ->
        let link_ids = ref [] in
        for i = nl - 1 downto 0 do
          if owner.(i) = si then link_ids := i :: !link_ids
        done;
        let link_ids = Array.of_list !link_ids in
        Array.iteri (fun ix id -> local_ix.(id) <- ix) link_ids;
        let links =
          Array.map
            (fun id ->
              let capacity = topo.Topology.capacities.(id) in
              let ctrl = make_controller ~link:id ~capacity in
              Mbac.Controller.reset ctrl;
              { l_id = id;
                l_ctrl = ctrl;
                l_load =
                  Link.create ~capacity ~warmup:cfg.warmup
                    ~batch_length:cfg.batch_length;
                l_tab = Int_table.create ();
                l_blocked = 0 })
            link_ids
        in
        let route_ids = ref [] in
        for r = nr - 1 downto 0 do
          if owner.(topo.Topology.routes.(r).Topology.links.(0)) = si then
            route_ids := r :: !route_ids
        done;
        let sr_route = Array.of_list !route_ids in
        { sh_id = si;
          wheel = CQ.create ();
          links;
          sr_route;
          sr_rng =
            Array.map
              (fun r ->
                Mbac_stats.Rng.derive ~seed ~tag:(route_stream_tag r))
              sr_route;
          sr_arrival_mean =
            Array.map
              (fun r -> 1.0 /. topo.Topology.routes.(r).Topology.rate)
              sr_route;
          sr_seq = Array.make (Array.length sr_route) 0;
          f_slots = Slots.create ();
          f_route = [||]; f_seq = [||]; f_gen = [||]; f_sources = [||];
          a_slots = Slots.create ();
          a_kind = [||]; a_link = [||]; a_hop = [||]; a_route = [||];
          a_seq = [||]; a_islot = [||]; a_igen = [||];
          a_rate = Float.Array.create 0; a_tend = Float.Array.create 0;
          sh_events = 0; sh_admitted = 0; sh_blocked = 0;
          sh_departed = 0 })
  in
  let eng =
    { cfg; topo; d = cfg.setup_delay; owner; local_ix; shards;
      ex = Exchange.create ~shards:cfg.shards; make_source; windows = 0 }
  in
  (* Initial conditions mirror [Continuous_load.start]: each controller
     sees the empty observation, then each ingress route draws its first
     inter-arrival gap from its own stream. *)
  Array.iter
    (fun sh ->
      Array.iter
        (fun l ->
          Mbac.Controller.observe l.l_ctrl (Link.observation l.l_load))
        sh.links;
      Array.iteri
        (fun lr r ->
          CQ.push sh.wheel
            ~time:
              (Mbac_stats.Sample.exponential sh.sr_rng.(lr)
                 ~mean:sh.sr_arrival_mean.(lr))
            (encode ~tag:tag_arrive ~slot:lr ~gen:0 ~route:r))
        sh.sr_route)
    shards;
  eng

(* ---------- results ---------- *)

let collect eng =
  let cfg = eng.cfg in
  let sim_time =
    Array.fold_left
      (fun acc sh ->
        Array.fold_left
          (fun acc l -> Float.max acc (Link.now l.l_load))
          acc sh.links)
      0.0 eng.shards
  in
  let links = Array.make (Topology.num_links eng.topo) None in
  Array.iter
    (fun sh ->
      Array.iter
        (fun l ->
          let ll = l.l_load in
          ignore (Link.close_episode ll : bool);
          let meas = Link.measurement ll in
          let capacity = Link.capacity ll in
          let p_f, estimate_kind =
            Meas.final_estimate meas ~target:cfg.target_p_q
          in
          let mean_load = Meas.load_mean meas in
          links.(l.l_id) <-
            Some
              { link = l.l_id;
                capacity;
                p_f;
                estimate_kind;
                p_f_point = Meas.point_fraction meas;
                mean_load;
                std_load = Meas.load_std meas;
                utilization = mean_load /. capacity;
                reserved = Link.reserved ll;
                link_blocked = l.l_blocked;
                released = Link.released ll;
                updates = Link.updates ll;
                ovf_episodes = Link.episodes ll;
                ovf_time = Link.overflow_time ll })
        sh.links)
    eng.shards;
  let links = Array.map Option.get links in
  let admitted = Array.fold_left (fun a sh -> a + sh.sh_admitted) 0 eng.shards in
  let blocked = Array.fold_left (fun a sh -> a + sh.sh_blocked) 0 eng.shards in
  let departed =
    Array.fold_left (fun a sh -> a + sh.sh_departed) 0 eng.shards
  in
  let events = total_events eng in
  let messages = Exchange.delivered_total eng.ex in
  (* fold run totals into the (submitting domain's) telemetry shard *)
  Handle.inc m_events ~by:events;
  Handle.inc m_admitted ~by:admitted;
  Handle.inc m_blocked ~by:blocked;
  Handle.inc m_departed ~by:departed;
  Handle.inc m_link_blocked
    ~by:(Array.fold_left (fun a l -> a + l.link_blocked) 0 links);
  Handle.inc m_messages ~by:messages;
  Handle.inc m_windows ~by:eng.windows;
  Handle.inc m_ovf_episodes
    ~by:(Array.fold_left (fun a l -> a + l.ovf_episodes) 0 links);
  Handle.add m_ovf_time
    (Array.fold_left (fun a (l : link_result) -> a +. l.ovf_time) 0.0 links);
  Handle.add m_time sim_time;
  Handle.set_gauge g_links (float_of_int (Array.length links));
  Handle.set_gauge g_shards (float_of_int cfg.shards);
  { flows_admitted = admitted;
    flows_blocked = blocked;
    flows_departed = departed;
    blocking_probability =
      (let offered = admitted + blocked in
       if offered = 0 then nan
       else float_of_int blocked /. float_of_int offered);
    events;
    sim_time;
    windows = eng.windows;
    messages;
    links }

let run ?jobs ~seed cfg ~make_controller ~make_source =
  let eng = build ~seed cfg ~make_controller ~make_source in
  run_windows eng ~width:(Mbac_sim.Parallel.effective_jobs ?jobs cfg.shards);
  collect eng

(* ---------- printing ---------- *)

let fmt_f v = if Float.is_nan v then "nan" else Printf.sprintf "%.6g" v

let pp_result ppf r =
  Format.fprintf ppf
    "network: admitted %d blocked %d departed %d blocking %s@."
    r.flows_admitted r.flows_blocked r.flows_departed
    (fmt_f r.blocking_probability);
  Format.fprintf ppf "events %d sim_time %s@." r.events (fmt_f r.sim_time);
  Array.iter
    (fun l ->
      Format.fprintf ppf
        "link %d: capacity %s p_f %s (%s) util %s load %s+-%s reserved %d \
         blocked %d released %d updates %d ovf %d@."
        l.link (fmt_f l.capacity) (fmt_f l.p_f)
        (match l.estimate_kind with
        | `Direct -> "direct"
        | `Gaussian_fit -> "gaussian-fit")
        (fmt_f l.utilization) (fmt_f l.mean_load) (fmt_f l.std_load)
        l.reserved l.link_blocked l.released l.updates l.ovf_episodes)
    r.links
