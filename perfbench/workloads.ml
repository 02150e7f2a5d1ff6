(* The three call-sets the benchmark times.  Each workload builds its inputs
   in [setup], makes its closed-loop batch of calls in [pass] (one call at a
   time from this process; the library fans sweeps over its own domain
   pool), and, when the recorder is on, wraps every call into a layer in a
   span named after that layer, so [layer_metrics] can read the per-layer
   figures back from the spans. *)

open Bench_core

type ctx = {
  mutable spans : Span.t;  (* swapped between a disabled and a tracing recorder *)
  checks : Checks.t;
  seed : int;
}

type pass = {
  p_wall : float;  (* seconds spent in calls into the library *)
  p_work : float;  (* units of work those calls completed *)
}

type workload = {
  name : string;
  setup : unit -> unit;  (* builds the inputs [pass] and [extras] use *)
  pass : unit -> pass;
  extras : unit -> unit;  (* traced-only calls that feed per-layer metrics *)
  layer_metrics : unit -> metric list;  (* read from the spans of one traced pass *)
}

let span ctx name f = Span.run ctx.spans name f
let build_topology ctx f = span ctx "topology.build" f

(* Time [f] into [acc]: only library calls count towards a pass's wall time,
   never the benchmark's own checks. *)
let timed acc f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  acc := !acc +. (Unix.gettimeofday () -. t0);
  r

let metric m_name m_unit m_value = { m_name; m_unit; m_value }
let safe_div a b = if b > 0. then a /. b else 0.

(* Counter slots sampled at span boundaries (see [Main.sample]). *)
let c_words = 0
let c_runs = 1
let c_cancelled = 2
let c_claims = 3
let c_cancels = 4
let counter_names = [| "minor_words"; "runs"; "cancelled"; "pool_claims"; "pool_cancels" |]

let delta ctx name slot = Span.total_delta ctx.spans name slot

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) ignore

(* ------------------------------------------------------------------ *)
(* verdict-quick: every claim of the quick campaign                     *)

let experiments : (string * (Format.formatter -> Experiments.row list)) list =
  [
    ("exp-f1", Experiments.exp_f1 ~quick:true);
    ("exp-t2", Experiments.exp_t2 ~quick:true);
    ("exp-corollaries", Experiments.exp_corollaries ~quick:true);
    ("exp-t3", Experiments.exp_t3 ~quick:true);
    ("exp-t4", Experiments.exp_t4 ~quick:true);
    ("exp-t5", Experiments.exp_t5 ~quick:true);
    ("exp-g", fun ppf -> Experiments.exp_g ~quick:true ppf);
    ("exp-s1", Experiments.exp_s1 ~quick:true);
    ("exp-s2", Experiments.exp_s2 ~quick:true);
    ("exp-mfm", Experiments.exp_mfm ~quick:true);
    ("exp-a", Experiments.exp_a ~quick:true);
    ("exp-sw", Experiments.exp_sw ~quick:true);
    ("exp-sw1", Experiments.exp_sw1 ~quick:true);
    ("exp-mc", Experiments.exp_mc ~quick:true);
    ("exp-fault", fun ppf -> Experiments.exp_fault ~quick:true ppf);
    ("exp-detect", Experiments.exp_detect ~quick:true);
    ("exp-lint", Experiments.exp_lint ~quick:true);
    ("exp-synth", Experiments.exp_synth ~quick:true);
  ]

let golden = "test/golden/verdicts-quick-wormhole.txt"

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* a witness schedule and the routing it deadlocks *)
type replay = { r_name : string; r_rt : Routing.t; r_witness : Explorer.witness }

let replays_per_witness = 4000

let verdict_quick ctx =
  let golden_rows = ref [] and replays = ref [] in
  let setup () =
    golden_rows := read_lines golden;
    let fig2 = build_topology ctx Paper_nets.figure2 in
    let fig2_rt = span ctx "routing.build" (fun () -> Cd_algorithm.of_net fig2) in
    let space =
      Explorer.default_space (List.map (Explorer.intent_template fig2) fig2.Paper_nets.intents)
    in
    let fig2_w =
      match span ctx "search.witness" (fun () -> Explorer.explore fig2_rt space) with
      | Explorer.Deadlock_found { witness; _ } ->
        [ { r_name = "figure2"; r_rt = fig2_rt; r_witness = witness } ]
      | Explorer.No_deadlock _ ->
        Checks.check ctx.checks "figure2 search finds the Theorem-4 witness" false;
        []
    in
    let fam = build_topology ctx (fun () -> Paper_nets.family 1) in
    let fam_rt = span ctx "routing.build" (fun () -> Cd_algorithm.of_net fam) in
    let fam_w =
      match (span ctx "search.witness" (fun () -> Min_delay.search ~max_h:6 fam)).md_witness with
      | Some w -> [ { r_name = "family-p1"; r_rt = fam_rt; r_witness = w } ]
      | None ->
        Checks.check ctx.checks "family p=1 has a minimum-delay witness" false;
        []
    in
    replays := fig2_w @ fam_w
  in
  let pass () =
    let wall = ref 0. in
    let r0 = Engine.run_count () and c0 = Engine.cancelled_count () in
    let rows =
      List.concat_map
        (fun (name, exp) ->
          let rows = ref [] in
          Checks.protect ctx.checks name (fun () ->
              rows := timed wall (fun () -> span ctx ("core." ^ name) (fun () -> exp null_ppf)));
          !rows)
        experiments
    in
    let canonical = Engine.run_count () - r0 - (Engine.cancelled_count () - c0) in
    Checks.compare_lines ctx.checks ~what:"quick verdicts" ~expected:!golden_rows
      (List.map (fun r -> Checks.verdict_line (r.Experiments.x_id, r.Experiments.x_ok)) rows);
    { p_wall = !wall; p_work = float_of_int canonical }
  in
  let extras () =
    List.iter
      (fun r ->
        let w = r.r_witness in
        let first =
          span ctx "sim.small_run" (fun () ->
              let first = Engine.run ~config:w.w_config r.r_rt w.w_schedule in
              for _ = 2 to replays_per_witness do
                ignore (Engine.run ~config:w.w_config r.r_rt w.w_schedule)
              done;
              first)
        in
        let cycle = match first with Engine.Deadlock d -> d.d_cycle | _ -> -1 in
        Checks.check_equal ctx.checks (r.r_name ^ " witness replays to its deadlock cycle")
          ~pp:string_of_int w.w_info.d_cycle cycle)
      !replays;
    Checks.protect ctx.checks "model check" (fun () ->
        let mc name net ~deadlock =
          let v =
            span ctx "search.model_check" (fun () ->
                Model_checker.check_net ~extra:[ -2; -1; 0 ] net)
          in
          let found = match v with Model_checker.Deadlock _ -> true | _ -> false in
          Checks.check ctx.checks
            (name ^ " model-check verdict matches the paper")
            (found = deadlock)
        in
        mc "figure1" (build_topology ctx Paper_nets.figure1) ~deadlock:false;
        mc "figure2" (build_topology ctx Paper_nets.figure2) ~deadlock:true)
  in
  let layer_metrics () =
    let exp_names = List.map (fun (n, _) -> "core." ^ n) experiments in
    let sum slot = List.fold_left (fun acc n -> acc +. delta ctx n slot) 0. exp_names in
    let started = sum c_runs and cancelled = sum c_cancelled in
    let replays_run = float_of_int (List.length !replays * replays_per_witness) in
    let us_per_run exp =
      let n = "core." ^ exp in
      metric (Printf.sprintf "search.%s.us_per_run" exp) "us"
        (1e6 *. safe_div (Span.total ctx.spans n) (delta ctx n c_runs))
    in
    let per_replay v = safe_div v replays_run in
    [
      metric "sim.small_run_us" "us" (1e6 *. per_replay (Span.total ctx.spans "sim.small_run"));
      metric "sim.small_run_words" "words" (per_replay (delta ctx "sim.small_run" c_words));
      metric "sim.words_per_run" "words" (safe_div (sum c_words) started);
      metric "search.runs" "count" (started -. cancelled);
      metric "search.runs_started" "count" started;
      metric "search.cancelled_frac" "ratio" (safe_div cancelled started);
      us_per_run "exp-f1";
      us_per_run "exp-g";
      us_per_run "exp-t5";
      metric "search.model_check_s" "s" (Span.total ctx.spans "search.model_check");
      metric "pool.claims" "count" (sum c_claims);
      metric "pool.cancels" "count" (sum c_cancels);
    ]
    @ List.map
        (fun (n, _) ->
          metric (Printf.sprintf "core.%s.wall_s" n) "s" (Span.total ctx.spans ("core." ^ n)))
        experiments
  in
  { name = "verdict-quick"; setup; pass; extras; layer_metrics }

(* ------------------------------------------------------------------ *)
(* mesh-traffic: long open-loop simulations below saturation            *)

let horizon = 10_000
let msg_length = 4

type case = {
  c_name : string;
  c_rt : Routing.t;
  c_sched : Schedule.t;
  c_config : Engine.config;
  c_stats : Obs_stats.t option;
  c_msgs : int;
  c_flits : int;  (* flits the schedule injects *)
  c_hops : int;  (* flit-hops: every flit crosses every channel of its route once *)
}

(* What a report must reproduce on every pass: the simulated statistics are
   correctness fingerprints, not performance figures. *)
type fingerprint = {
  f_total : int;
  f_delivered : int;
  f_finished_at : int;
  f_deadlocked : bool;
  f_retries : int;
  f_avg_latency : float;
  f_p95_latency : float;
  f_max_latency : float;
}

let fingerprint (r : Measure.report) =
  {
    f_total = r.total;
    f_delivered = r.delivered;
    f_finished_at = r.finished_at;
    f_deadlocked = r.deadlocked;
    f_retries = r.retries;
    f_avg_latency = r.avg_latency;
    f_p95_latency = r.p95_latency;
    f_max_latency = r.max_latency;
  }

let pp_fingerprint f =
  Printf.sprintf
    "{total=%d delivered=%d finished_at=%d deadlocked=%b retries=%d avg=%h p95=%h max=%h}"
    f.f_total f.f_delivered f.f_finished_at f.f_deadlocked f.f_retries f.f_avg_latency
    f.f_p95_latency f.f_max_latency

(* cases whose wall time is plain simulation (no telemetry armed) *)
let plain_cases =
  [
    "mesh16-uniform-lo"; "mesh16-uniform-hi"; "mesh16-transpose"; "mesh16-uniform-vct";
    "torus8-dateline";
  ]

let stats_case = "mesh16-uniform-stats"
let stats_twin = "mesh16-uniform-hi"
let detect_case = "torus8-ecube-detect"

let mesh_traffic ctx =
  let cases = ref [] in
  let recorded : (string, fingerprint) Hashtbl.t = Hashtbl.create 8 in
  let setup () =
    let master = Rng.create ctx.seed in
    let schedule coords pattern rate =
      let rng = Rng.split master in
      span ctx "workload.schedule" (fun () ->
          Traffic.bernoulli_schedule rng (pattern rng) ~coords ~rate ~length:msg_length ~horizon)
    in
    let mk ?(config = Engine.default_config) ?stats c_name c_rt c_sched =
      let c_hops =
        span ctx "routing.path" (fun () ->
            List.fold_left
              (fun acc (m : Schedule.message_spec) ->
                acc + (m.ms_length * List.length (Routing.path_exn c_rt m.ms_src m.ms_dst)))
              0 c_sched)
      in
      let c_flits =
        List.fold_left (fun acc (m : Schedule.message_spec) -> acc + m.ms_length) 0 c_sched
      in
      let c_msgs = List.length c_sched in
      { c_name; c_rt; c_sched; c_config = config; c_stats = stats; c_msgs; c_flits; c_hops }
    in
    let mesh = build_topology ctx (fun () -> Builders.mesh [ 16; 16 ]) in
    let mesh_rt = span ctx "routing.build" (fun () -> Dimension_order.mesh mesh) in
    let uniform rng = Traffic.uniform rng mesh in
    let lo = schedule mesh uniform 0.005 and hi = schedule mesh uniform 0.010 in
    let transpose = schedule mesh (fun _ -> Traffic.transpose mesh) 0.005 in
    let dl = build_topology ctx (fun () -> Builders.torus ~vcs:2 [ 8; 8 ]) in
    let dl_rt = span ctx "routing.build" (fun () -> Dimension_order.torus ~datelines:true dl) in
    let dl_sched = schedule dl (fun rng -> Traffic.uniform rng dl) 0.02 in
    let ec = build_topology ctx (fun () -> Builders.torus [ 8; 8 ]) in
    let ec_rt = span ctx "routing.build" (fun () -> Dimension_order.torus ec) in
    let ec_sched = schedule ec (fun rng -> Traffic.uniform rng ec) 0.01 in
    let detect =
      {
        Engine.default_config with
        recovery =
          Some { Engine.default_recovery with trigger = Engine.Detect Obs_detect.default_config };
      }
    in
    cases :=
      [
        mk "mesh16-uniform-lo" mesh_rt lo;
        mk "mesh16-uniform-hi" mesh_rt hi;
        mk "mesh16-transpose" mesh_rt transpose;
        mk "mesh16-uniform-vct"
          ~config:{ Engine.default_config with discipline = Engine.Virtual_cut_through }
          mesh_rt hi;
        mk stats_case ~stats:(Obs_stats.create ~nchan:(Topology.num_channels mesh.topo)) mesh_rt hi;
        mk "torus8-dateline" dl_rt dl_sched;
        mk detect_case ~config:detect ec_rt ec_sched;
      ]
  in
  let pass () =
    let wall = ref 0. and flits = ref 0 in
    List.iter
      (fun c ->
        Checks.protect ctx.checks c.c_name (fun () ->
            Option.iter Obs_stats.reset c.c_stats;
            let r =
              timed wall (fun () ->
                  span ctx ("sim." ^ c.c_name) (fun () ->
                      Measure.run ~config:c.c_config ?stats:c.c_stats c.c_rt c.c_sched))
            in
            let f = fingerprint r in
            Checks.check ctx.checks (c.c_name ^ ": every message delivered")
              (r.delivered = c.c_msgs && not r.deadlocked);
            if r.delivered = c.c_msgs then flits := !flits + c.c_flits;
            (match Hashtbl.find_opt recorded c.c_name with
            | None -> Hashtbl.replace recorded c.c_name f
            | Some expected ->
              Checks.check_equal ctx.checks (c.c_name ^ " fingerprint") ~pp:pp_fingerprint
                expected f);
            if c.c_name = stats_case then
              match Hashtbl.find_opt recorded stats_twin with
              | Some twin ->
                Checks.check_equal ctx.checks "stats-armed report equals the unarmed one"
                  ~pp:pp_fingerprint twin f
              | None -> Checks.check ctx.checks "stats twin ran first" false))
      !cases;
    { p_wall = !wall; p_work = float_of_int !flits }
  in
  let layer_metrics () =
    let wall n = Span.total ctx.spans ("sim." ^ n) in
    let plain = List.filter (fun c -> List.mem c.c_name plain_cases) !cases in
    let sum f = List.fold_left (fun acc c -> acc +. f c) 0. plain in
    let hops = sum (fun c -> float_of_int c.c_hops) in
    let msgs = sum (fun c -> float_of_int c.c_msgs) in
    let words = sum (fun c -> delta ctx ("sim." ^ c.c_name) c_words) in
    [
      metric "sim.ns_per_flit_hop" "ns" (1e9 *. safe_div (sum (fun c -> wall c.c_name)) hops);
      metric "sim.words_per_msg" "words" (safe_div words msgs);
    ]
    @ List.map (fun n -> metric (Printf.sprintf "sim.%s.wall_s" n) "s" (wall n)) plain_cases
    @ [
        metric "obs.stats_overhead" "ratio" (safe_div (wall stats_case) (wall stats_twin));
        metric "obs.detect_s" "s" (wall detect_case);
        metric "workload.schedule_s" "s" (Span.total ctx.spans "workload.schedule");
        metric "workload.schedule_words" "words" (delta ctx "workload.schedule" c_words);
      ]
  in
  { name = "mesh-traffic"; setup; pass; extras = ignore; layer_metrics }

(* ------------------------------------------------------------------ *)
(* analysis-plane: static deadlock analysis of large nets               *)

type expected = { e_free : bool; e_edges : int; e_cycles : int }

type net = { n_name : string; n_rt : Routing.t; n_expect : expected }

let conclusion_free = function Verify.Deadlock_free _ -> true | _ -> false

let analysis_plane ctx =
  let nets = ref [] and synth_topo = ref None in
  let setup () =
    let net n_name coords route ~free ~edges ~cycles =
      let n_rt = span ctx "routing.build" (fun () -> route (build_topology ctx coords)) in
      (* warm-up walk of every route; a routing that fails it is not analysed *)
      Checks.check ctx.checks (n_name ^ " routes every pair")
        (span ctx "routing.validate" (fun () -> Routing.validate n_rt) = Ok ());
      { n_name; n_rt; n_expect = { e_free = free; e_edges = edges; e_cycles = cycles } }
    in
    nets :=
      [
        net "mesh14-xy" (fun () -> Builders.mesh [ 14; 14 ]) Dimension_order.mesh ~free:true
          ~edges:1348 ~cycles:0;
        net "mesh12-xy" (fun () -> Builders.mesh [ 12; 12 ]) Dimension_order.mesh ~free:true
          ~edges:964 ~cycles:0;
        net "torus8-ecube" (fun () -> Builders.torus [ 8; 8 ]) (fun c -> Dimension_order.torus c)
          ~free:false ~edges:512 ~cycles:32;
        net "torus8-dateline" (fun () -> Builders.torus ~vcs:2 [ 8; 8 ])
          (Dimension_order.torus ~datelines:true) ~free:true ~edges:640 ~cycles:0;
        net "cube6-ecube" (fun () -> Builders.hypercube 6) Dimension_order.hypercube ~free:true
          ~edges:960 ~cycles:0;
      ];
    synth_topo := Some (build_topology ctx (fun () -> Builders.mesh [ 12; 12 ])).topo
  in
  let pairs rt =
    let n = Topology.num_nodes (Routing.topology rt) in
    float_of_int (n * (n - 1))
  in
  (* independent certificate: every realized dependency raises the rank *)
  let certified topo (rt, (plan : Synth.plan)) =
    let ok =
      ref (Array.length plan.p_order = Topology.num_channels topo && plan.p_dependencies > 0)
    in
    span ctx "routing.realized" (fun () ->
        Routing.iter_realized rt (fun input _ c ->
            match input with
            | Routing.From c0 -> if plan.p_order.(c0) >= plan.p_order.(c) then ok := false
            | Routing.Inject _ -> ()));
    !ok
  in
  let check_synth topo result =
    Checks.check ctx.checks "mesh12 synthesized routing is certified"
      (match result with Ok r -> certified topo r | Error _ -> false)
  in
  let synthesize topo = span ctx "analysis.synth" (fun () -> Synth.synthesize topo) in
  let check_net n ~free ~edges ~cycles =
    let what = ( ^ ) (n.n_name ^ " ") in
    Checks.check_equal ctx.checks (what "deadlock-free verdict") ~pp:string_of_bool
      n.n_expect.e_free free;
    Checks.check_equal ctx.checks (what "CDG edges") ~pp:string_of_int n.n_expect.e_edges edges;
    Checks.check_equal ctx.checks (what "CDG cycles") ~pp:string_of_int n.n_expect.e_cycles cycles
  in
  (* The calls [Verify.analyze ~quick:true] makes, one at a time, each in its
     own span.  Every cycle of these nets is decided by a theorem, so Verify
     makes no schedule search here; a cycle that needed one would change the
     workload and is counted as a failed check. *)
  let decomposed n =
    span ctx "search.verify" (fun () ->
        let props = span ctx "routing.properties" (fun () -> Properties.summary n.n_rt) in
        let prop name =
          match List.assoc_opt name props with Some v -> Properties.is_holds v | None -> false
        in
        let cdg = span ctx "cdg.build" (fun () -> Cdg.build n.n_rt) in
        let acyclic =
          span ctx "cdg.acyclic" (fun () ->
              let a = Cdg.is_acyclic cdg in
              ignore (Cdg.numbering cdg);
              a)
        in
        let cycles =
          if acyclic then []
          else span ctx "cdg.cycles" (fun () -> Cdg.elementary_cycles ~max_cycles:100 cdg)
        in
        let verdicts =
          List.map
            (fun cycle ->
              snd
                (span ctx "cdg.classify" (fun () ->
                     Cycle_analysis.classify ~minimal:(prop "minimal")
                       ~suffix_closed:(prop "suffix-closed") cdg cycle)))
            cycles
        in
        Checks.check ctx.checks (n.n_name ^ " cycles are theorem-decided")
          (List.for_all (function Cycle_analysis.Needs_search _ -> false | _ -> true) verdicts);
        let reachable =
          List.exists (function Cycle_analysis.Deadlock_reachable _ -> true | _ -> false) verdicts
        in
        (acyclic || not reachable, Cdg.num_edges cdg, List.length cycles))
  in
  let edges = ref 0 and cycles = ref 0 in
  let pass () =
    let wall = ref 0. and work = ref 0. in
    edges := 0;
    cycles := 0;
    List.iter
      (fun n ->
        Checks.protect ctx.checks n.n_name (fun () ->
            let free, e, c =
              timed wall (fun () ->
                  if Span.enabled ctx.spans then decomposed n
                  else
                    let r = Verify.analyze ~quick:true n.n_rt in
                    (conclusion_free r.conclusion, r.num_dependencies, List.length r.cycles))
            in
            edges := !edges + e;
            cycles := !cycles + c;
            check_net n ~free ~edges:e ~cycles:c;
            work := !work +. pairs n.n_rt))
      !nets;
    Option.iter
      (fun topo ->
        Checks.protect ctx.checks "synth" (fun () ->
            let result = timed wall (fun () -> synthesize topo) in
            check_synth topo result;
            Result.iter (fun (rt, _) -> work := !work +. pairs rt) result))
      !synth_topo;
    { p_wall = !wall; p_work = !work }
  in
  let layer_metrics () =
    let total = Span.total ctx.spans in
    [
      metric "cdg.build_s" "s" (total "cdg.build");
      metric "cdg.build_words" "words" (delta ctx "cdg.build" c_words);
      metric "cdg.edges" "count" (float_of_int !edges);
      metric "cdg.cycles_s" "s" (total "cdg.cycles");
      metric "cdg.cycles" "count" (float_of_int !cycles);
      metric "cdg.classify_s" "s" (total "cdg.classify");
      metric "routing.properties_s" "s" (total "routing.properties");
      metric "routing.properties_words" "words" (delta ctx "routing.properties" c_words);
      metric "analysis.synth_s" "s" (total "analysis.synth");
      metric "analysis.synth_words" "words" (delta ctx "analysis.synth" c_words);
      metric "search.verify_s" "s" (total "search.verify");
    ]
  in
  { name = "analysis-plane"; setup; pass; extras = ignore; layer_metrics }

let all ctx = [ verdict_quick ctx; mesh_traffic ctx; analysis_plane ctx ]
