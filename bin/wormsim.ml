(* Flit-level wormhole simulation CLI.

   Examples:
     wormsim --topology mesh --dims 8x8 --routing xy --pattern uniform --rate 0.02
     wormsim --topology torus --dims 5x5 --routing ecube --pattern tornado --permutation
     wormsim --topology ring --dims 6 --routing clockwise --permutation
     wormsim --topology figure1 --faults 'stall:s0>r0@3+20' --recovery
     wormsim --topology mesh --dims 4x4 --faults random --recovery --retry-limit 3 *)

open Cmdliner

type algo = [ `Oblivious of Routing.t | `Adaptive of Adaptive.t ]

let algo_name = function
  | `Oblivious rt -> Routing.name rt
  | `Adaptive ad -> Adaptive.name ad

(* --routing synth: synthesize a certified deadlock-free routing from the
   topology alone, or refuse the network (E060).  On a paper network this
   swaps the CD algorithm for the synthesized one (same message set,
   deadlock-free paths). *)
let synthesize topology topo =
  match Synth.synthesize ~name:(topology ^ "-synth") topo with
  | Ok (rt, plan) ->
    Format.printf "synthesized routing via %s: %d dependencies rank-increasing@."
      plan.Synth.p_strategy plan.Synth.p_dependencies;
    rt
  | Error w ->
    failwith
      (Format.asprintf "network admits no deadlock-free routing (E060): %a"
         (Synth.pp_witness topo) w)

(* A classic topology and its routing.  Duato's protocol and the dateline
   torus and ring need a second VC; so does a synthesized ring, since the
   1-VC ring admits no deadlock-free routing (E060). *)
let build topology dims routing : Builders.coords * algo =
  let dims_list =
    String.split_on_char 'x' dims
    |> List.map (fun s ->
           match int_of_string_opt (String.trim s) with
           | Some n -> n
           | None -> failwith ("bad dimension: " ^ s))
  in
  let unsupported () =
    failwith (Printf.sprintf "unsupported topology/routing combination %s/%s" topology routing)
  in
  let vcs =
    match (topology, routing) with
    | "mesh", "duato" | "torus", "dateline" | "ring", ("dateline" | "synth") -> 2
    | _ -> 1
  in
  let coords =
    match topology with
    | "mesh" -> Builders.mesh ~vcs dims_list
    | "torus" -> Builders.torus ~vcs dims_list
    | "hypercube" -> Builders.hypercube (List.hd dims_list)
    | "ring" -> Builders.ring ~unidirectional:true ~vcs (List.hd dims_list)
    | _ -> unsupported ()
  in
  let algo =
    match (topology, routing) with
    | "mesh", "xy" -> `Oblivious (Dimension_order.mesh coords)
    | "mesh", "west-first" -> `Oblivious (Turn_model.west_first coords)
    | "mesh", "north-last" -> `Oblivious (Turn_model.north_last coords)
    | "mesh", "negative-first" -> `Oblivious (Turn_model.negative_first coords)
    | "mesh", "adaptive" -> `Adaptive (Adaptive.fully_adaptive_minimal coords)
    | "mesh", "duato" -> `Adaptive (Adaptive.duato_mesh coords)
    | "torus", "ecube" -> `Oblivious (Dimension_order.torus coords)
    | "torus", "dateline" -> `Oblivious (Dimension_order.torus ~datelines:true coords)
    | "hypercube", "ecube" -> `Oblivious (Dimension_order.hypercube coords)
    | "ring", "clockwise" -> `Oblivious (Ring_routing.clockwise coords)
    | "ring", "dateline" -> `Oblivious (Ring_routing.dateline coords)
    | _, "synth" -> `Oblivious (synthesize topology coords.Builders.topo)
    | _ -> unsupported ()
  in
  (coords, algo)

let pattern_of coords rng = function
  | "uniform" -> Traffic.uniform rng coords
  | "transpose" -> Traffic.transpose coords
  | "bit-complement" -> Traffic.bit_complement coords
  | "bit-reverse" -> Traffic.bit_reverse coords
  | "tornado" -> Traffic.tornado coords
  | "neighbor" -> Traffic.neighbor coords
  | "hotspot" -> Traffic.hotspot rng coords 0
  | p -> failwith ("unknown pattern: " ^ p)

(* --faults: "random" for a seeded random plan, otherwise the Fault.parse
   format, e.g. "fail:a>b@10,stall:c>d@0+25,drop:m3@2" *)
let fault_plan topo rng horizon = function
  | "" -> Fault.empty
  | "random" -> Fault.random ~link_failures:1 ~stalls:2 ~max_stall:20 ~horizon rng topo
  | spec -> (
    match Fault.parse topo spec with
    | Ok plan -> plan
    | Error e -> failwith ("bad --faults spec: " ^ e))

(* With permanent failures planned, recompute paths around them and
   re-certify the degraded algorithm before handing it to the engine.  An
   adaptive header already steers around down channels; its reroute
   additionally pins each retried message to a re-certified static route
   carved from the adaptive function's first choices. *)
let reroute_of faults algo =
  match Fault.failed_channels faults with
  | [] -> None
  | failed -> (
    let base, fallback =
      match algo with
      | `Oblivious rt -> (rt, "original paths")
      | `Adaptive ad -> (Adaptive.restrict_to_first ad, "adaptive freedom")
    in
    match Degrade.reroute ~quick:true ~failed base with
    | Error e ->
      Format.printf "degraded routing unavailable: %s@." e;
      None
    | Ok d when Degrade.certified d ->
      Format.printf "%a@." Degrade.pp d;
      let topo = Routing.topology base in
      let adaptive = match algo with `Adaptive _ -> true | `Oblivious _ -> false in
      List.iter
        (fun diag -> Format.printf "%a@." (Diagnostic.pp ~topo ()) diag)
        (Lint.reroute ~adaptive ~algorithm:(algo_name algo) topo d.Degrade.routing);
      Some d.Degrade.routing
    | Ok d ->
      Format.printf "%a@." Degrade.pp d;
      Format.printf "uncertified degraded routing: retrying with %s@." fallback;
      None)

(* Recovery policy from the CLI flags. *)
let recovery_of faults recovery_on retry_limit watchdog detect detect_bound victim_policy
    algo =
  if not (recovery_on || detect) then None
  else
    let reroute = reroute_of faults algo in
    let trigger =
      if not detect then Engine.Watchdog watchdog
      else begin
        (* --watchdog doubles as the backstop: the no-progress sweep that
           still covers acyclic wedges the detector cannot see *)
        let diags =
          Lint.detect_config ~algorithm:(algo_name algo) ~bound:detect_bound ~backstop:watchdog
        in
        List.iter (fun d -> Format.printf "%a@." (Diagnostic.pp ()) d) diags;
        if List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags then
          failwith "invalid --detect configuration";
        let policy =
          match Obs_detect.victim_policy_of_string victim_policy with
          | Some p -> p
          | None ->
            failwith
              ("unknown --victim-policy: " ^ victim_policy ^ " (minimal, youngest, oldest)")
        in
        Engine.Detect { Obs_detect.bound = detect_bound; backstop = watchdog; policy }
      end
    in
    Some { Engine.default_recovery with retry_limit; trigger; reroute }

(* --discipline lint (E047/W048): SAF under-provisioning is rejected before
   the engine does, cut-through under-provisioning gets the whole-packet
   provisioning note.  Adaptive runs skip this: they always switch wormhole. *)
let lint_discipline ~algorithm discipline sched buffer =
  let diags =
    Lint.discipline_config ~algorithm
      ~discipline:(Engine.discipline_string discipline)
      ~buffer_capacity:buffer ~max_length:(Schedule.max_length sched)
  in
  List.iter (fun d -> Format.printf "%a@." (Diagnostic.pp ()) d) diags;
  if List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags then
    failwith "invalid --discipline/--buffer configuration (E047)"

(* Observability wiring for --trace-out: a recorder whose events feed the
   Chrome exporter and the deadlock post-mortem.  Counting is --stats-out's
   job; events are never folded into counts. *)
let setup_obs = function
  | None -> None
  | Some path ->
    let sink, events = Obs.recorder () in
    Obs.install sink;
    Some (events, path)

(* [post_mortem] when the run deadlocked or went through recovery: print the
   reconstructed wait-for knot, occupancy history and (given [rt]) the
   Theorem 2-5 classification of the knot's channel cycle. *)
let finalize_obs ?rt ~topo ~post_mortem = function
  | None -> ()
  | Some (events, path) ->
    Obs.uninstall ();
    let events = events () in
    if post_mortem then
      Format.printf "%s@?" (Obs.Postmortem.render ~topo (Obs.Postmortem.analyze ?rt events));
    if Out_file.write path (Obs.Chrome.to_json ~topo events) then
      Format.printf "chrome trace written to %s@." path

(* Counters-first telemetry for --stats-out: one preallocated accumulator
   threaded through the run, rendered as Prometheus text (or JSON when the
   file ends in .json) plus a summary table and utilization heatmap on
   stdout.  Unlike --trace-out this never arms the event bus, so it also
   works on runs too hot to trace. *)
let setup_stats topo = function
  | None -> None
  | Some path -> Some (Obs.Stats.create ~nchan:(Topology.num_channels topo), path)

let stats_acc = function None -> None | Some (st, _) -> Some st

let finalize_stats ~topo = function
  | None -> ()
  | Some (st, path) ->
    let doc =
      if Filename.check_suffix path ".json" then Obs.Stats.to_json ~topo st
      else Obs.Stats.to_prometheus ~topo st
    in
    let written = Out_file.write path doc in
    Format.printf "%s" (Obs.Stats.summary ~topo st);
    (match Obs.Stats.heatmap ~topo st with
    | "" -> ()
    | hm -> Format.printf "%s" hm);
    if written then Format.printf "stats written to %s@." path

let post_mortem_of = function
  | Engine.Deadlock _ | Engine.Recovered _ -> true
  | Engine.All_delivered _ | Engine.Cutoff _ -> false

(* Run once and print the outcome; traffic workloads report through
   [Measure].  Returns (deadlocked, wants a post-mortem). *)
let run_and_report ~config ?stats ~traffic topo algo sched =
  match algo with
  | `Oblivious rt when traffic ->
    let report = Measure.run ~config ?stats rt sched in
    Format.printf "%a@." Measure.pp report;
    (report.Measure.deadlocked, report.Measure.deadlocked || report.Measure.recovered)
  | `Oblivious rt ->
    let out = Engine.run ~config ?stats rt sched in
    Format.printf "%a@." (Engine.pp_outcome topo) out;
    (Engine.is_deadlock out, post_mortem_of out)
  | `Adaptive ad ->
    let out = Engine.run_adaptive ~config ?stats ad sched in
    (match out with
    | Engine.All_delivered { finished_at; messages } ->
      Format.printf "%d/%d delivered in %d cycles (adaptive)@." (List.length messages)
        (List.length sched) finished_at
    | o -> Format.printf "%a@." (Engine.pp_outcome topo) o);
    (Engine.is_deadlock out, post_mortem_of out)

let main topology dims routing pattern rate length horizon permutation seed buffer
    discipline_spec faults_spec recovery_on retry_limit watchdog detect detect_bound
    victim_policy witness trace_out stats_out =
  try
    let rng = Rng.create seed in
    let discipline =
      match Engine.discipline_of_string discipline_spec with
      | Some d -> d
      | None ->
        failwith
          ("unknown --discipline: " ^ discipline_spec
         ^ " (wormhole/wh, virtual-cut-through/vct, store-and-forward/saf)")
    in
    (* 1. the network and its routing; the paper networks replay their
       designated messages under the CD algorithm by default *)
    let topo, algo, workload =
      match Paper_nets.find topology with
      | Some { Paper_nets.f_net = net; _ } ->
        let rt =
          if routing = "synth" then synthesize topology net.Paper_nets.topo
          else Cd_algorithm.of_net net
        in
        (net.Paper_nets.topo, `Oblivious rt, if witness then `Witness (net, rt) else `Intents net)
      | None ->
        if witness then
          failwith "--witness only applies to paper networks (figure1, figure2, ...)";
        let coords, algo = build topology dims routing in
        (match algo with
        | `Oblivious rt -> (
          match Routing.validate rt with
          | Ok () -> ()
          | Error e -> failwith ("routing invalid: " ^ e))
        | `Adaptive ad -> (
          match Adaptive.validate ad with
          | Ok () -> ()
          | Error e -> failwith ("adaptive routing invalid: " ^ e)));
        (coords.Builders.topo, algo, `Traffic coords)
    in
    (* 2. the schedule and its config; a witness sweep that finds no
       deadlock leaves nothing to run *)
    let configure sched =
      (match algo with
      | `Oblivious rt -> lint_discipline ~algorithm:(Routing.name rt) discipline sched buffer
      | `Adaptive _ -> ());
      let faults = fault_plan topo rng horizon faults_spec in
      if not (Fault.is_empty faults) then Format.printf "faults: %a@." (Fault.pp topo) faults;
      let recovery =
        recovery_of faults recovery_on retry_limit watchdog detect detect_bound victim_policy
          algo
      in
      (match (algo, discipline) with
      | `Adaptive _, (Engine.Virtual_cut_through | Engine.Store_and_forward) ->
        Format.printf "note: adaptive runs always switch wormhole; --discipline ignored@."
      | _ -> ());
      { Engine.default_config with buffer_capacity = buffer; discipline; faults; recovery }
    in
    let run =
      match workload with
      | `Witness (net, rt) -> (
        (* sweep the intent schedule space for a deadlock witness, then
           replay only the witness under observation (sweeping under the
           sink would record thousands of unrelated runs).  The sweep
           searches wormhole; the replay switches under --discipline,
           provisioned like the campaign override. *)
        let templates =
          List.map (fun i -> Explorer.intent_template net i) net.Paper_nets.intents
        in
        Printf.printf "network=%s messages=%d (witness sweep)\n" topology
          (List.length net.Paper_nets.intents);
        match Explorer.explore rt (Explorer.default_space templates) with
        | Explorer.No_deadlock { runs } ->
          Format.printf "no deadlock witness in %d runs@." runs;
          None
        | Explorer.Deadlock_found { runs; witness = w } ->
          Format.printf "deadlock witness found after %d runs; replaying under observation@."
            runs;
          let sched = w.Explorer.w_schedule in
          Some (sched, Engine.provision discipline sched w.Explorer.w_config))
      | `Intents net ->
        let sched = Schedule.of_intents ~length net in
        Printf.printf "network=%s messages=%d\n" topology (List.length sched);
        Some (sched, configure sched)
      | `Traffic coords ->
        let pat = pattern_of coords rng pattern in
        let sched =
          if permutation then Traffic.permutation_schedule pat ~coords ~length
          else Traffic.bernoulli_schedule rng pat ~coords ~rate ~length ~horizon
        in
        Printf.printf "topology=%s dims=%s routing=%s pattern=%s messages=%d\n" topology dims
          routing pat.Traffic.name (List.length sched);
        Some (sched, configure sched)
    in
    (* 3. observe, run, report and exit once; stats cover only the run *)
    let obs = setup_obs trace_out in
    let sctx = match run with Some _ -> setup_stats topo stats_out | None -> None in
    let deadlocked, post_mortem =
      match run with
      | None -> (false, false)
      | Some (sched, config) ->
        let traffic = match workload with `Traffic _ -> true | `Witness _ | `Intents _ -> false in
        run_and_report ~config ?stats:(stats_acc sctx) ~traffic topo algo sched
    in
    (* adaptive runs have no oblivious routing function, so their
       post-mortem skips the CDG classification *)
    let rt = match algo with `Oblivious rt -> Some rt | `Adaptive _ -> None in
    finalize_obs ?rt ~topo ~post_mortem obs;
    finalize_stats ~topo sctx;
    Out_file.exit_if_failed ();
    if deadlocked then exit 3
  with Failure msg | Invalid_argument msg ->
    Printf.eprintf "wormsim: %s\n" msg;
    exit 2

let topo_arg =
  Arg.(value & opt string "mesh" & info [ "topology" ] ~docv:"T" ~doc:"mesh, torus, hypercube, ring, or a paper network: figure1, figure2, figure3a..figure3f")

let dims_arg =
  Arg.(value & opt string "8x8" & info [ "dims" ] ~docv:"DxD" ~doc:"dimensions, e.g. 8x8 (hypercube/ring take one number)")

let routing_arg =
  Arg.(value & opt string "xy" & info [ "routing" ] ~docv:"R" ~doc:"xy, west-first, north-last, negative-first, adaptive, duato, ecube, dateline, clockwise, or synth (synthesize a certified deadlock-free routing from the topology; also valid on paper networks)")

let pattern_arg =
  Arg.(value & opt string "uniform" & info [ "pattern" ] ~docv:"P" ~doc:"uniform, transpose, bit-complement, bit-reverse, tornado, neighbor, hotspot")

let rate_arg =
  Arg.(value & opt float 0.02 & info [ "rate" ] ~docv:"R" ~doc:"per-node injection probability per cycle")

let length_arg =
  Arg.(value & opt int 4 & info [ "length" ] ~docv:"FLITS" ~doc:"message length in flits")

let horizon_arg =
  Arg.(value & opt int 1000 & info [ "horizon" ] ~docv:"CYCLES" ~doc:"injection horizon")

let permutation_arg =
  Arg.(value & flag & info [ "permutation" ] ~doc:"one message per node at cycle 0 instead of Bernoulli traffic")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (also seeds --faults random)")

let buffer_arg =
  Arg.(value & opt int 1 & info [ "buffer" ] ~docv:"FLITS" ~doc:"flit buffer capacity per channel")

let discipline_arg =
  Arg.(value & opt string "wormhole"
    & info [ "discipline" ] ~docv:"D"
        ~doc:"switching discipline: wormhole (wh), virtual-cut-through (vct: every channel \
              is provisioned with a whole-packet buffer, so a blocked message compresses \
              into its head channel), or store-and-forward (saf: the header only advances \
              once the whole packet is buffered; needs $(b,--buffer) >= message length).  \
              With $(b,--witness) the sweep searches wormhole and the witness replays \
              under $(docv).  Adaptive routings always switch wormhole.")

let faults_arg =
  Arg.(value & opt string "" & info [ "faults" ] ~docv:"SPEC"
    ~doc:"fault plan: 'random' for a seeded plan, or comma-separated events \
          'fail:SRC>DST[#VC]\\@T', 'stall:SRC>DST[#VC]\\@T+D', 'drop:LABEL\\@T'")

let recovery_arg =
  Arg.(value & flag & info [ "recovery" ]
    ~doc:"enable watchdog abort-and-retry recovery; with permanent failures a \
          re-certified degraded routing is used for retries")

let retry_limit_arg =
  Arg.(value & opt int Engine.default_recovery.Engine.retry_limit
    & info [ "retry-limit" ] ~docv:"N" ~doc:"maximum aborts per message before it gives up")

let watchdog_arg =
  Arg.(value & opt int 64
    & info [ "watchdog" ] ~docv:"CYCLES"
        ~doc:"cycles without progress before a message is aborted; under $(b,--detect) this \
              is the backstop that still catches acyclic (fault-wedged) stalls")

let detect_arg =
  Arg.(value & flag
    & info [ "detect" ]
        ~doc:"enable online deadlock detection (implies $(b,--recovery)): wait-for knots are \
              confirmed within $(b,--detect-bound) cycles of quiescence and only the \
              $(b,--victim-policy)-chosen victim is aborted, instead of every timed-out \
              member as under the plain watchdog")

let detect_bound_arg =
  Arg.(value & opt int Obs_detect.default_config.Obs_detect.bound
    & info [ "detect-bound" ] ~docv:"CYCLES"
        ~doc:"cycles a wait-for knot must stay quiescent before the detector confirms it")

let victim_policy_arg =
  Arg.(value & opt string "minimal"
    & info [ "victim-policy" ] ~docv:"P"
        ~doc:"which knot member a detection aborts: minimal (fewest held channels), \
              youngest, or oldest")

let witness_arg =
  Arg.(value & flag
    & info [ "witness" ]
        ~doc:"for paper networks: sweep the intents' schedule space (lengths, gaps, orders, \
              priorities) for a deadlock witness and replay it; combine with --trace-out \
              to observe the deadlock and get a post-mortem")

let trace_out_arg =
  Arg.(value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"record the run's structured events and write a Chrome trace_event JSON to \
              $(docv) (load in chrome://tracing or Perfetto); on deadlock or recovery a \
              post-mortem of the wait-for knot is printed too")

let stats_out_arg =
  Arg.(value & opt (some string) None
    & info [ "stats-out" ] ~docv:"FILE"
        ~doc:"the run's telemetry file: thread a counters-first accumulator through the \
              run (no event bus: the steady cycle stays allocation-free) and write the \
              wormhole_stats_* families (per-channel occupancy and waits, latency, phase \
              work, outcomes, aborts by reason, retries, gave-up, detections, victims, \
              fault events by kind) to $(docv) in Prometheus text format (JSON when \
              $(docv) ends in .json); a latency percentile summary and per-channel \
              utilization heatmap print to stdout; with --witness, stats cover only the \
              witness replay")

let cmd =
  let doc = "simulate wormhole routing on a classic topology" in
  Cmd.v (Cmd.info "wormsim" ~doc)
    Term.(
      const main $ topo_arg $ dims_arg $ routing_arg $ pattern_arg $ rate_arg $ length_arg
      $ horizon_arg $ permutation_arg $ seed_arg $ buffer_arg $ discipline_arg $ faults_arg
      $ recovery_arg
      $ retry_limit_arg $ watchdog_arg $ detect_arg $ detect_bound_arg $ victim_policy_arg
      $ witness_arg $ trace_out_arg $ stats_out_arg)

let () = exit (Cmd.eval cmd)

