(* Observability-layer tests.

   - Sink purity: attaching any sink (explicit or installed) never changes
     an engine outcome -- the central contract of the event bus, as a QCheck
     property over random schedules on an acyclic mesh and a deadlock-prone
     ring, with and without recovery.
   - The event stream as an oracle for the counting plane: folding a
     recorder's events inside the test gives exactly the counts the kernel
     wrote into Obs_stats, over the same generators; and the exact text of
     the Prometheus writer.
   - Golden-file exporters: the figure-1 false-resource-cycle run and the
     figure-2 explorer-witness deadlock replay must reproduce the captured
     wormsim outputs byte-for-byte (the files under test/golden).
   - Deadlock post-mortem: the figure-2 knot names its channels, the
     expanded cycle is a genuine CDG cycle, and classification says
     Theorem-reachable; figure 1 has no knot.
   - Timeline rendering of a recorded event trace (rows, one column per
     cycle, truncation markers), pool claim coverage, and exact
     cancelled-run accounting across domain counts. *)

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
  Engine.run ?config ~obs:sink rt sched

let prop_sink_purity coords rt name =
  QCheck.Test.make ~name ~count:100 (schedule_gen coords) (fun sched ->
      Engine.run rt sched = observed_run rt sched)

let prop_sink_purity_mesh =
  prop_sink_purity mesh3 mesh3_rt "sinks never change outcomes (mesh, delivery)"

let prop_sink_purity_ring =
  prop_sink_purity ring5 ring5_rt "sinks never change outcomes (ring, deadlocks)"

let recovery_config =
  {
    Engine.default_config with
    recovery =
      Some { Engine.default_recovery with trigger = Engine.Watchdog 8; retry_limit = 2; backoff = 4 };
  }

let prop_sink_purity_recovery =
  (* recovery exercises the Abort/Retry/Gave_up emission sites too *)
  QCheck.Test.make ~name:"sinks never change outcomes (ring, recovery)" ~count:60
    (schedule_gen ring5)
    (fun sched ->
      Engine.run ~config:recovery_config ring5_rt sched
      = observed_run ~config:recovery_config ring5_rt sched)

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

(* ---- the event stream as an oracle for the counting plane ---- *)

(* The purity generators' five cases, the recovery one with a fault plan
   on top (a source drop of m0 and a stall) and recovery on or off, so
   drops, stalls, drop aborts and abandoned messages all occur. *)
let adaptive_mesh3 = Adaptive.fully_adaptive_minimal mesh3

let fault_config =
  QCheck.Gen.(
    let* drop_at = 0 -- 3 in
    let* channel = 0 -- 4 in
    let* at = 0 -- 5 in
    let* duration = 1 -- 4 in
    let* recovery = oneofl [ None; recovery_config.recovery ] in
    return
      {
        recovery_config with
        recovery;
        faults =
          Fault.make
            [
              Fault.Message_drop { label = "m0"; at = drop_at };
              Fault.Transient_stall { channel; at; duration };
            ];
      })

let oracle_case =
  let sched coords = QCheck.gen (schedule_gen coords) in
  let oblivious rt config s ~obs ~stats = ignore (Engine.run ~config ~obs ~stats rt s) in
  QCheck.make
    QCheck.Gen.(
      oneof
        [
          map (fun s -> (mesh3, oblivious mesh3_rt Engine.default_config s)) (sched mesh3);
          map (fun s -> (ring5, oblivious ring5_rt Engine.default_config s)) (sched ring5);
          map2 (fun c s -> (ring5, oblivious ring5_rt c s)) fault_config (sched ring5);
          map (fun s -> (ring5, oblivious ring5_rt detect_config s)) (sched ring5);
          map
            (fun s ->
              ( mesh3,
                fun ~obs ~stats ->
                  ignore (Engine.run_adaptive ~config:detect_config ~obs ~stats adaptive_mesh3 s)
              ))
            (sched mesh3);
        ])

(* Fold one run's events into a fresh accumulator, field by field, with
   the bucketing and slot lookups written out here rather than taken from
   the kernel. *)
let fold_events ~nchan events =
  let o = Obs_stats.create ~nchan in
  let slot labels l =
    let rec go i = if labels.(i) = l then i else go (i + 1) in
    go 0
  in
  let bump a i = a.(i) <- a.(i) + 1 in
  List.iter
    (fun (e : Obs.Event.t) ->
      match e with
      | Run_start _ -> o.st_runs <- o.st_runs + 1
      | Run_end { outcome; _ } -> bump o.st_outcomes (slot Obs_stats.outcomes outcome)
      | Channel_acquire { channel; _ } -> bump o.st_acquired channel
      | Delivered { latency; _ } ->
        o.st_delivered <- o.st_delivered + 1;
        o.st_lat_sum <- o.st_lat_sum + latency;
        let bounds = Obs_stats.lat_bounds in
        let rec bucket i =
          if i = Array.length bounds || latency <= bounds.(i) then i else bucket (i + 1)
        in
        bump o.st_lat_counts (bucket 0)
      | Abort { reason; _ } -> bump o.st_aborts (slot Obs_stats.abort_reasons reason)
      | Retry _ -> o.st_retries <- o.st_retries + 1
      | Gave_up _ -> o.st_gave_up <- o.st_gave_up + 1
      | Deadlock_detected _ -> o.st_detections <- o.st_detections + 1
      | Victim_aborted _ -> o.st_victims <- o.st_victims + 1
      | Fault { kind; _ } ->
        bump o.st_faults (slot Obs_stats.fault_kinds (Obs.Event.fault_kind_string kind))
      | _ -> ())
    events;
  o

let prop_event_fold =
  QCheck.Test.make ~name:"event fold" ~count:200 oracle_case (fun (coords, run) ->
      let nchan = Topology.num_channels coords.Builders.topo in
      let sink, events = Obs.recorder () in
      let st = Obs_stats.create ~nchan in
      run ~obs:sink ~stats:st;
      let o = fold_events ~nchan (events ()) in
      let same what a b =
        a = b || QCheck.Test.fail_reportf "%s: stats and event fold differ" what
      in
      same "runs" st.st_runs o.st_runs
      && same "outcome" st.st_outcomes o.st_outcomes
      && same "acquisitions per channel" st.st_acquired o.st_acquired
      && same "deliveries" st.st_delivered o.st_delivered
      && same "latency histogram" st.st_lat_counts o.st_lat_counts
      && same "latency sum" st.st_lat_sum o.st_lat_sum
      && same "aborts by reason" st.st_aborts o.st_aborts
      && same "retries" st.st_retries o.st_retries
      && same "gave up" st.st_gave_up o.st_gave_up
      && same "detections" st.st_detections o.st_detections
      && same "victims" st.st_victims o.st_victims
      && same "faults by kind" st.st_faults o.st_faults)

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
     req_total{kind=\"a\",node=\"n(0,\\\"1\\\")\"} 1\n\
     req_total{kind=\"b\"} 0\n\
     # HELP up Up\n\
     # TYPE up gauge\n\
     up 1\n"
    (Obs_prom.render
       [
         Obs_prom.histogram ~help:"Latency" "lat" ~bounds:[| 1; 2 |] ~counts:[| 1; 0; 1 |] ~sum:4;
         Obs_prom.counter ~help:"Requests" "req_total"
           [ ([ ("kind", "a"); ("node", "n(0,\"1\")") ], 1); ([ ("kind", "b") ], 0) ];
         Obs_prom.gauge ~help:"Up" "up" [ ([], 1) ];
       ])

(* ---- golden exporters: figure 1 (false resource cycle, delivers) ---- *)

(* Mirrors wormsim's paper-net branch exactly: default --length 4 intent
   schedule, buffer 1, no faults or recovery, a recorder and a stats
   accumulator. *)
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
     let st = Obs_stats.create ~nchan:(Topology.num_channels net.Paper_nets.topo) in
     let config =
       { Engine.default_config with buffer_capacity = 1; faults = Fault.empty; recovery = None }
     in
     let out = Engine.run ~config ~obs:sink ~stats:st rt sched in
     (net, rt, out, events (), st))

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
  let net, _, _, _, st = Lazy.force fig1 in
  check cs "prometheus matches wormsim --stats-out"
    (read_file "golden/figure1.stats.prom")
    (Obs_stats.to_prometheus ~topo:net.Paper_nets.topo st)

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
       let out = Engine.run ~config:w.Explorer.w_config ~obs:sink rt w.Explorer.w_schedule in
       (net, rt, out, events ()))

let test_figure2_witness_deadlocks () =
  let _, _, out, _ = Lazy.force fig2 in
  check cb "witness replay deadlocks" true (Engine.is_deadlock out)

let test_figure2_chrome_golden () =
  let net, _, _, events = Lazy.force fig2 in
  check cs "chrome trace matches wormsim --witness --trace-out"
    (read_file "golden/figure2.trace.json")
    (Obs.Chrome.to_json ~topo:net.Paper_nets.topo events)

let test_figure2_postmortem () =
  let net, rt, _, events = Lazy.force fig2 in
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
          Alcotest.test_case "prometheus rendering" `Quick test_prometheus_rendering;
          qtest prop_event_fold;
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
        ] );
      ( "search",
        [
          Alcotest.test_case "search events" `Quick test_search_events;
          Alcotest.test_case "cancelled accounting" `Quick test_cancelled_accounting;
        ] );
    ]
