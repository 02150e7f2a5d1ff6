(* Observability-layer tests.

   - Sink purity: attaching any sink (explicit or installed) never changes
     an engine outcome -- the central contract of the event bus, as a QCheck
     property over random schedules on an acyclic mesh and a deadlock-prone
     ring, with and without recovery.
   - Metrics registry laws and exact Prometheus/JSON rendering.
   - Golden-file exporters: the figure-1 false-resource-cycle run and the
     figure-2 explorer-witness deadlock replay must reproduce the captured
     wormsim outputs byte-for-byte (the files under test/golden).
   - Deadlock post-mortem: the figure-2 knot names its channels, the
     expanded cycle is a genuine CDG cycle, and classification says
     Theorem-reachable; figure 1 has no knot.
   - Timeline rendering of a recorded event trace (rows, one column per
     cycle, truncation markers), pool claim coverage, the Obs pool bridge,
     and exact cancelled-run accounting across domain counts. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string
let qtest = QCheck_alcotest.to_alcotest ~long:false

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---- sink purity (same schedule generator family as test_qcheck) ---- *)

let schedule_gen coords =
  let n = Topology.num_nodes coords.Builders.topo in
  QCheck.make
    QCheck.Gen.(
      let msg i =
        let* s = 0 -- (n - 1) in
        let* d = 0 -- (n - 1) in
        let* len = 1 -- 6 in
        let* at = 0 -- 10 in
        return
          (Schedule.message ~length:len ~at
             (Printf.sprintf "m%d" i)
             s
             (if d = s then (d + 1) mod n else d))
      in
      let* k = 1 -- 6 in
      let rec build i acc =
        if i = k then return (List.rev acc)
        else
          let* m = msg i in
          build (i + 1) (m :: acc)
      in
      build 0 [])

let mesh3 = Builders.mesh [ 3; 3 ]
let mesh3_rt = Dimension_order.mesh mesh3
let ring5 = Builders.ring ~unidirectional:true 5
let ring5_rt = Ring_routing.clockwise ring5

let observed_run ?config rt sched =
  let sink, _ = Obs.recorder () in
  let reg = Obs.Metrics.create () in
  Engine.run ?config ~obs:(Obs.tee [ sink; Obs.metrics_sink reg; Obs.null ]) rt sched

let prop_sink_purity coords rt name =
  QCheck.Test.make ~name ~count:100 (schedule_gen coords) (fun sched ->
      Engine.run rt sched = observed_run rt sched)

let prop_sink_purity_mesh =
  prop_sink_purity mesh3 mesh3_rt "sinks never change outcomes (mesh, delivery)"

let prop_sink_purity_ring =
  prop_sink_purity ring5 ring5_rt "sinks never change outcomes (ring, deadlocks)"

let prop_sink_purity_recovery =
  (* recovery exercises the Abort/Retry/Gave_up emission sites too *)
  QCheck.Test.make ~name:"sinks never change outcomes (ring, recovery)" ~count:60
    (schedule_gen ring5)
    (fun sched ->
      let config =
        {
          Engine.default_config with
          recovery =
            Some { Engine.default_recovery with trigger = Engine.Watchdog 8; retry_limit = 2; backoff = 4 };
        }
      in
      Engine.run ~config ring5_rt sched = observed_run ~config ring5_rt sched)

(* A Detect trigger reads the kernel's wait tables whether or not a sink is
   attached, so detections, victims and every decision after them must not
   depend on observation either -- oblivious and adaptive. *)
let detect_config =
  {
    Engine.default_config with
    recovery =
      Some
        {
          Engine.default_recovery with
          trigger =
            Engine.Detect { Obs_detect.default_config with Obs_detect.bound = 4; backstop = 64 };
          retry_limit = 2;
          backoff = 4;
        };
  }

let prop_sink_purity_detect =
  QCheck.Test.make ~name:"sinks never change outcomes (ring, detect)" ~count:60
    (schedule_gen ring5)
    (fun sched ->
      Engine.run ~config:detect_config ring5_rt sched
      = observed_run ~config:detect_config ring5_rt sched)

let prop_sink_purity_detect_adaptive =
  let ad = Adaptive.fully_adaptive_minimal mesh3 in
  QCheck.Test.make ~name:"sinks never change outcomes (adaptive mesh, detect)" ~count:60
    (schedule_gen mesh3)
    (fun sched ->
      let sink, _ = Obs.recorder () in
      Engine.run_adaptive ~config:detect_config ad sched
      = Engine.run_adaptive ~config:detect_config ~obs:sink ad sched)

let prop_sink_purity_installed =
  (* the process-wide installed sink must be just as invisible as ?obs *)
  QCheck.Test.make ~name:"installed sink never changes outcomes" ~count:60
    (schedule_gen ring5)
    (fun sched ->
      let plain = Engine.run ring5_rt sched in
      let sink, _ = Obs.recorder () in
      Obs.install sink;
      let observed =
        Fun.protect ~finally:Obs.uninstall (fun () -> Engine.run ring5_rt sched)
      in
      plain = observed)

let test_adaptive_sink_purity () =
  let coords = Builders.mesh ~vcs:2 [ 3; 3 ] in
  let ad = Adaptive.duato_mesh coords in
  let sched =
    List.init 6 (fun i -> Schedule.message ~length:3 (Printf.sprintf "m%d" i) i ((i + 4) mod 9))
  in
  let plain = Engine.run_adaptive ad sched in
  let sink, events = Obs.recorder () in
  let observed = Engine.run_adaptive ~obs:sink ad sched in
  check cb "adaptive outcome unchanged under observation" true (plain = observed);
  check cb "adaptive run emitted events" true (events () <> [])

(* ---- metrics registry ---- *)

let test_metrics_basics () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg ~help:"h" "c_total" in
  Obs.Metrics.inc c;
  Obs.Metrics.add c 4;
  check ci "counter value" 5 (Obs.Metrics.value c);
  (* re-registration returns the same instrument *)
  Obs.Metrics.inc (Obs.Metrics.counter reg "c_total");
  check ci "counter upsert" 6 (Obs.Metrics.value c);
  let g = Obs.Metrics.gauge reg "g" in
  Obs.Metrics.set g 7;
  Obs.Metrics.gauge_add g (-2);
  check ci "gauge value" 5 (List.assoc "g" (Obs.Metrics.snapshot reg));
  let h = Obs.Metrics.histogram reg ~buckets:[ 1; 10 ] "h" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 5; 100 ];
  let snap = Obs.Metrics.snapshot reg in
  check ci "histogram count" 4 (List.assoc "h_count" snap);
  check ci "histogram sum" 106 (List.assoc "h_sum" snap);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check cb "kind clash rejected" true (raises (fun () -> Obs.Metrics.gauge reg "c_total"));
  check cb "negative counter add rejected" true (raises (fun () -> Obs.Metrics.add c (-1)));
  check cb "bad metric name rejected" true
    (raises (fun () -> Obs.Metrics.counter reg "bad name"));
  check cb "unsorted buckets rejected" true
    (raises (fun () -> Obs.Metrics.histogram reg ~buckets:[ 10; 1 ] "h2"));
  check cb "bucket redefinition rejected" true
    (raises (fun () -> Obs.Metrics.histogram reg ~buckets:[ 1; 2 ] "h"))

let small_registry () =
  let reg = Obs.Metrics.create () in
  let a = Obs.Metrics.counter reg ~help:"Requests" ~labels:[ ("kind", "a") ] "req_total" in
  Obs.Metrics.inc a;
  ignore (Obs.Metrics.counter reg ~labels:[ ("kind", "b") ] "req_total");
  let h = Obs.Metrics.histogram reg ~help:"Latency" ~buckets:[ 1; 2 ] "lat" in
  Obs.Metrics.observe h 1;
  Obs.Metrics.observe h 3;
  reg

let test_prometheus_rendering () =
  check cs "prometheus text"
    "# HELP lat Latency\n\
     # TYPE lat histogram\n\
     lat_bucket{le=\"1\"} 1\n\
     lat_bucket{le=\"2\"} 1\n\
     lat_bucket{le=\"+Inf\"} 2\n\
     lat_sum 4\n\
     lat_count 2\n\
     # HELP req_total Requests\n\
     # TYPE req_total counter\n\
     req_total{kind=\"a\"} 1\n\
     req_total{kind=\"b\"} 0\n"
    (Obs.Metrics.to_prometheus (small_registry ()))

let test_json_rendering () =
  check cs "metrics json"
    "{\"schema\":\"wormhole-metrics/1\",\"metrics\":[\
     {\"name\":\"lat\",\"kind\":\"histogram\",\"labels\":{},\
     \"buckets\":[{\"le\":1,\"count\":1},{\"le\":2,\"count\":0}],\
     \"overflow\":1,\"sum\":4,\"count\":2},\
     {\"name\":\"req_total\",\"kind\":\"counter\",\"labels\":{\"kind\":\"a\"},\"value\":1},\
     {\"name\":\"req_total\",\"kind\":\"counter\",\"labels\":{\"kind\":\"b\"},\"value\":0}]}"
    (Obs.Metrics.to_json (small_registry ()))

let test_metrics_sink_fold () =
  let reg = Obs.Metrics.create () in
  let sink = Obs.metrics_sink reg in
  List.iter sink.Obs.emit
    [
      Obs.Event.Run_start { engine = "oblivious"; algorithm = "x"; messages = 2 };
      Obs.Event.Channel_acquire { cycle = 1; label = "m"; channel = 0; waited = 0 };
      Obs.Event.Wait_add { cycle = 1; label = "m"; channel = 1; holder = None };
      Obs.Event.Channel_acquire { cycle = 2; label = "m"; channel = 1; waited = 3 };
      Obs.Event.Flit { cycle = 2; label = "m"; channel = 1; kind = Obs.Event.Hop };
      Obs.Event.Delivered { cycle = 5; label = "m"; latency = 5 };
      Obs.Event.Task_claim { pool = "wr_pool"; first = 0; last = 4 };
      Obs.Event.Search_end { algorithm = "x"; runs = 7; cancelled = 2; witness = true };
      Obs.Event.Run_end { cycle = 5; outcome = "all-delivered" };
    ];
  let snap = Obs.Metrics.snapshot reg in
  let v k =
    match List.assoc_opt k snap with
    | Some v -> v
    | None -> Alcotest.fail ("missing metric " ^ k)
  in
  check ci "runs" 1 (v "wormhole_runs_total");
  check ci "outcome" 1 (v "wormhole_run_outcomes_total{outcome=\"all-delivered\"}");
  check ci "acquisitions" 2 (v "wormhole_channel_acquisitions_total");
  check ci "wait edges" 1 (v "wormhole_wait_edges_total");
  check ci "wait histogram counts only real waits" 1 (v "wormhole_wait_cycles_count");
  check ci "wait histogram sum" 3 (v "wormhole_wait_cycles_sum");
  check ci "hop flits" 1 (v "wormhole_flits_total{kind=\"hop\"}");
  check ci "inject flits stay zero" 0 (v "wormhole_flits_total{kind=\"inject\"}");
  check ci "delivered" 1 (v "wormhole_messages_delivered_total");
  check ci "latency sum" 5 (v "wormhole_message_latency_cycles_sum");
  check ci "run cycles sum" 5 (v "wormhole_run_cycles_sum");
  check ci "pool claims" 1 (v "wormhole_pool_task_claims_total");
  check ci "pool tasks" 5 (v "wormhole_pool_tasks_claimed_total");
  check ci "search runs" 7 (v "wormhole_search_runs_total");
  check ci "search cancelled" 2 (v "wormhole_search_cancelled_total")

(* ---- golden exporters: figure 1 (false resource cycle, delivers) ---- *)

(* Mirrors wormsim's paper-net branch exactly: default --length 4 intent
   schedule, buffer 1, no faults or recovery, recorder teed with a metrics
   fold. *)
let fig1 =
  lazy
    (let net = Paper_nets.figure1 () in
     let rt = Cd_algorithm.of_net net in
     let sched =
       List.map
         (fun (it : Paper_nets.intent) -> Schedule.message ~length:4 it.i_label it.i_src it.i_dst)
         net.Paper_nets.intents
     in
     let sink, events = Obs.recorder () in
     let reg = Obs.Metrics.create () in
     let config =
       { Engine.default_config with buffer_capacity = 1; faults = Fault.empty; recovery = None }
     in
     let out = Engine.run ~config ~obs:(Obs.tee [ sink; Obs.metrics_sink reg ]) rt sched in
     (net, rt, out, events (), reg))

let test_figure1_delivers () =
  let _, _, out, events, _ = Lazy.force fig1 in
  (match out with
  | Engine.All_delivered _ -> ()
  | o -> Alcotest.fail ("figure1 should deliver, got " ^ Engine.outcome_string o));
  check cb "events recorded" true (events <> [])

let test_figure1_chrome_golden () =
  let net, _, _, events, _ = Lazy.force fig1 in
  check cs "chrome trace matches wormsim --trace-out"
    (read_file "golden/figure1.trace.json")
    (Obs.Chrome.to_json ~topo:net.Paper_nets.topo events)

let test_figure1_metrics_golden () =
  let _, _, _, _, reg = Lazy.force fig1 in
  check cs "prometheus matches wormsim --metrics-out"
    (read_file "golden/figure1.metrics.prom")
    (Obs.Metrics.to_prometheus reg)

let test_figure1_postmortem_no_knot () =
  let _, rt, _, events, _ = Lazy.force fig1 in
  let pm = Obs.Postmortem.analyze ~rt events in
  check cb "no knot" true (pm.Obs.Postmortem.pm_knot = []);
  check cb "no cycle" true (Obs.Postmortem.knot_channels pm = []);
  check cb "no outstanding waits" true (pm.Obs.Postmortem.pm_waits = []);
  (match pm.Obs.Postmortem.pm_outcome with
  | Some "all-delivered" -> ()
  | o -> Alcotest.fail ("unexpected outcome " ^ Option.value ~default:"(none)" o));
  check cb "no verdict without a knot" true (pm.Obs.Postmortem.pm_verdict = None)

(* ---- golden exporters: figure 2 (explorer witness, deadlocks) ---- *)

(* Mirrors wormsim --witness: sweep the intent schedule space (canonical at
   any domain count, so the witness is the same one the goldens captured),
   then replay only the witness under observation. *)
let fig2 =
  lazy
    (let net = Paper_nets.figure2 () in
     let rt = Cd_algorithm.of_net net in
     let templates =
       List.map (fun i -> Explorer.intent_template net i) net.Paper_nets.intents
     in
     match Explorer.explore rt (Explorer.default_space templates) with
     | Explorer.No_deadlock _ -> Alcotest.fail "figure2: expected a deadlock witness"
     | Explorer.Deadlock_found { witness = w; _ } ->
       let sink, events = Obs.recorder () in
       let reg = Obs.Metrics.create () in
       let out =
         Engine.run ~config:w.Explorer.w_config
           ~obs:(Obs.tee [ sink; Obs.metrics_sink reg ])
           rt w.Explorer.w_schedule
       in
       (net, rt, out, events (), reg))

let test_figure2_witness_deadlocks () =
  let _, _, out, _, _ = Lazy.force fig2 in
  check cb "witness replay deadlocks" true (Engine.is_deadlock out)

let test_figure2_chrome_golden () =
  let net, _, _, events, _ = Lazy.force fig2 in
  check cs "chrome trace matches wormsim --witness --trace-out"
    (read_file "golden/figure2.trace.json")
    (Obs.Chrome.to_json ~topo:net.Paper_nets.topo events)

let test_figure2_metrics_golden () =
  let _, _, _, _, reg = Lazy.force fig2 in
  check cs "prometheus matches wormsim --witness --metrics-out"
    (read_file "golden/figure2.metrics.prom")
    (Obs.Metrics.to_prometheus reg)

let test_figure2_postmortem () =
  let net, rt, _, events, _ = Lazy.force fig2 in
  let pm = Obs.Postmortem.analyze ~rt events in
  check cb "knot found" true (pm.Obs.Postmortem.pm_knot <> []);
  let cycle = Obs.Postmortem.knot_channels pm in
  check cb "cycle expands the knot" true (List.length cycle >= List.length pm.Obs.Postmortem.pm_knot);
  (* the expanded cycle must be a genuine CDG cycle -- that is what makes
     the Theorem 2-5 classification sound *)
  let cdg = Cdg.build rt in
  let rec edges_ok = function
    | a :: (b :: _ as tl) -> List.mem b (Cdg.succ cdg a) && edges_ok tl
    | [ a ] -> List.mem (List.hd cycle) (Cdg.succ cdg a)
    | [] -> false
  in
  check cb "expanded cycle is a CDG cycle" true (edges_ok cycle);
  (match pm.Obs.Postmortem.pm_verdict with
  | Some (_, Cycle_analysis.Deadlock_reachable _) -> ()
  | Some (_, v) ->
    Alcotest.fail (Format.asprintf "expected Deadlock_reachable, got %a" Cycle_analysis.pp_verdict v)
  | None -> Alcotest.fail "expected a classification verdict");
  let rendered = Obs.Postmortem.render ~topo:net.Paper_nets.topo pm in
  check cb "render names a theorem" true (contains rendered "Theorem");
  check cb "render names the knot" true (contains rendered "wait-for knot");
  (* occupancy history must cover every channel the knot waits on *)
  List.iter
    (fun (_, wanted) ->
      check cb "wanted channel has occupancy history" true
        (List.exists (fun o -> o.Obs.Postmortem.oc_channel = wanted) pm.Obs.Postmortem.pm_occupancy))
    pm.Obs.Postmortem.pm_knot

(* ---- timeline rendering of a recorded event trace ---- *)

(* One message from corner to corner of the 3x3 mesh under a recorder;
   returns the run's cycle count (cycles 0 .. finished_at) and its events. *)
let record_corner_run length =
  let sink, events = Obs.recorder () in
  match Engine.run ~obs:sink mesh3_rt [ Schedule.message ~length "a" 0 8 ] with
  | Engine.All_delivered { finished_at; _ } -> (finished_at + 1, events ())
  | _ -> Alcotest.fail "expected delivery"

let test_timeline_collects_and_renders () =
  let cycles, events = record_corner_run 3 in
  let s = Obs.Timeline.render mesh3.Builders.topo events in
  check cb "renders rows" true (String.length s > 80);
  let rows = List.tl (String.split_on_char '\n' s) |> List.filter (( <> ) "") in
  List.iter
    (fun row ->
      let cells = List.hd (List.rev (String.split_on_char ' ' row)) in
      check ci "one column per cycle" cycles (String.length cells))
    rows;
  (* the first channel of the path appears in the rendering *)
  let first = List.hd (Routing.path_exn mesh3_rt 0 8) in
  check cb "mentions first channel" true
    (contains s (Topology.channel_name mesh3.Builders.topo first))

let test_timeline_truncation () =
  let cycles, events = record_corner_run 30 in
  let s = Obs.Timeline.render ~max_cycles:5 mesh3.Builders.topo events in
  check cb "notes exact truncated cycle count" true
    (contains s (Printf.sprintf "… +%d cycles" (cycles - 5)))

let test_timeline_truncation_markers () =
  let cycles, events = record_corner_run 6 in
  check cb "run long enough to truncate" true (cycles > 4);
  let truncated = Obs.Timeline.render ~max_cycles:4 mesh3.Builders.topo events in
  check cb "explicit cycle-count marker" true
    (contains truncated (Printf.sprintf "… +%d cycles" (cycles - 4)));
  check cb "rows are marked" true (contains truncated " …");
  let full = Obs.Timeline.render mesh3.Builders.topo events in
  check cb "no marker when untruncated" false (contains full "… +")

(* ---- pool observation ---- *)

let test_pool_claims_cover_tasks () =
  let lock = Mutex.create () in
  let claims = ref [] in
  Wr_pool.set_observer
    (Some
       (fun ev ->
         Mutex.lock lock;
         (match ev with
         | Wr_pool.Claim { first; last } -> claims := (first, last) :: !claims
         | Wr_pool.Cancel _ -> ());
         Mutex.unlock lock));
  Fun.protect
    ~finally:(fun () -> Wr_pool.set_observer None)
    (fun () ->
      let out = Wr_pool.mapi_array ~domains:2 (fun i () -> i) (Array.make 17 ()) in
      check ci "all tasks ran" 17 (Array.length out);
      Array.iteri (fun i v -> check ci "task identity" i v) out;
      let covered = Array.make 17 0 in
      List.iter (fun (f, l) -> for i = f to l do covered.(i) <- covered.(i) + 1 done) !claims;
      check cb "claims cover every task exactly once" true
        (Array.for_all (fun n -> n = 1) covered))

let test_pool_bridge () =
  let sink, events = Obs.recorder () in
  Obs.install sink;
  Obs.attach_pool ();
  Fun.protect
    ~finally:(fun () ->
      Obs.detach_pool ();
      Obs.uninstall ())
    (fun () -> ignore (Wr_pool.map ~domains:2 (fun x -> x * 2) (List.init 12 Fun.id)));
  let claimed =
    List.fold_left
      (fun acc e ->
        match e with Obs.Event.Task_claim { first; last; _ } -> acc + (last - first + 1) | _ -> acc)
      0 (events ())
  in
  check ci "bridge forwards every claimed task" 12 claimed

(* ---- search events and exact cancelled accounting ---- *)

let fig2_space () =
  let net = Paper_nets.figure2 () in
  let rt = Cd_algorithm.of_net net in
  let templates = List.map (fun i -> Explorer.intent_template net i) net.Paper_nets.intents in
  (rt, Explorer.default_space templates)

let test_search_events () =
  let rt, space = fig2_space () in
  let sink, events = Obs.recorder () in
  Obs.install sink;
  let verdict =
    Fun.protect ~finally:Obs.uninstall (fun () -> Explorer.explore ~domains:2 rt space)
  in
  let runs =
    match verdict with
    | Explorer.No_deadlock { runs } | Explorer.Deadlock_found { runs; _ } -> runs
  in
  let starts =
    List.filter (function Obs.Event.Search_start _ -> true | _ -> false) (events ())
  in
  check ci "one Search_start" 1 (List.length starts);
  (match starts with
  | [ Obs.Event.Search_start { tasks; _ } ] -> check cb "task count positive" true (tasks > 0)
  | _ -> ());
  match List.filter (function Obs.Event.Search_end _ -> true | _ -> false) (events ()) with
  | [ Obs.Event.Search_end { runs = r; cancelled; witness; _ } ] ->
    check ci "Search_end reports the canonical run count" runs r;
    check cb "cancelled is non-negative" true (cancelled >= 0);
    check cb "witness flag matches verdict" (Explorer.is_deadlock_found verdict) witness
  | evs -> Alcotest.fail (Printf.sprintf "expected one Search_end, got %d" (List.length evs))

let test_cancelled_accounting () =
  let rt, space = fig2_space () in
  let sweep domains =
    let r0 = Engine.run_count () and c0 = Engine.cancelled_count () in
    let verdict = Explorer.explore ~domains rt space in
    let runs =
      match verdict with
      | Explorer.No_deadlock { runs } | Explorer.Deadlock_found { runs; _ } -> runs
    in
    (runs, Engine.run_count () - r0, Engine.cancelled_count () - c0)
  in
  let v1, s1, c1 = sweep 1 in
  let v4, s4, c4 = sweep 4 in
  check ci "verdict runs identical across domain counts" v1 v4;
  check ci "sequential sweep cancels nothing" 0 c1;
  (* every started run is either canonical or cancelled, and confirming the
     witness replays exactly one extra canonical run *)
  check ci "exact canonical tally (domains=1)" (v1 + 1) (s1 - c1);
  check ci "exact canonical tally (domains=4)" (v1 + 1) (s4 - c4)

let () =
  Alcotest.run "obs"
    [
      ( "purity",
        [
          qtest prop_sink_purity_mesh;
          qtest prop_sink_purity_ring;
          qtest prop_sink_purity_recovery;
          qtest prop_sink_purity_detect;
          qtest prop_sink_purity_detect_adaptive;
          qtest prop_sink_purity_installed;
          Alcotest.test_case "adaptive engine" `Quick test_adaptive_sink_purity;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry laws" `Quick test_metrics_basics;
          Alcotest.test_case "prometheus rendering" `Quick test_prometheus_rendering;
          Alcotest.test_case "json rendering" `Quick test_json_rendering;
          Alcotest.test_case "event fold" `Quick test_metrics_sink_fold;
        ] );
      ( "golden-figure1",
        [
          Alcotest.test_case "delivers" `Quick test_figure1_delivers;
          Alcotest.test_case "chrome trace" `Quick test_figure1_chrome_golden;
          Alcotest.test_case "prometheus" `Quick test_figure1_metrics_golden;
          Alcotest.test_case "post-mortem: no knot" `Quick test_figure1_postmortem_no_knot;
        ] );
      ( "golden-figure2",
        [
          Alcotest.test_case "witness deadlocks" `Quick test_figure2_witness_deadlocks;
          Alcotest.test_case "chrome trace" `Quick test_figure2_chrome_golden;
          Alcotest.test_case "prometheus" `Quick test_figure2_metrics_golden;
          Alcotest.test_case "post-mortem: knot + theorem" `Quick test_figure2_postmortem;
        ] );
      ( "trace",
        [
          Alcotest.test_case "collect and render" `Quick test_timeline_collects_and_renders;
          Alcotest.test_case "truncation" `Quick test_timeline_truncation;
          Alcotest.test_case "truncation markers" `Quick test_timeline_truncation_markers;
        ] );
      ( "pool",
        [
          Alcotest.test_case "claims cover tasks" `Quick test_pool_claims_cover_tasks;
          Alcotest.test_case "event-bus bridge" `Quick test_pool_bridge;
        ] );
      ( "search",
        [
          Alcotest.test_case "search events" `Quick test_search_events;
          Alcotest.test_case "cancelled accounting" `Quick test_cancelled_accounting;
        ] );
    ]
