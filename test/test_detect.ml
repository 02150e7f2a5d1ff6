(* Online deadlock detection: the engine's [Detect] recovery trigger, which
   confirms wait-for knots from the kernel's own wait tables, checked
   against recovery-free ground truth, the watchdog, and the EXP-D1 report. *)

let check = Alcotest.check
let cb = Alcotest.bool
let qtest = QCheck_alcotest.to_alcotest
let dcfg = Obs_detect.default_config
let bound = dcfg.Obs_detect.bound

let recorded_run ?config rt sched =
  let sink, events = Obs.recorder () in
  let out = Engine.run ?config ~obs:sink rt sched in
  (out, events ())

let aborts events =
  List.length (List.filter (function Obs_event.Abort _ -> true | _ -> false) events)

let delivered_labels = function
  | Engine.All_delivered { messages; _ } | Engine.Cutoff { messages; _ } ->
    List.filter_map
      (fun (m : Engine.message_result) ->
        if m.r_delivered_at <> None then Some m.r_label else None)
      messages
  | Engine.Recovered { stats; _ } ->
    List.filter_map
      (fun (s : Engine.retry_stat) ->
        if s.t_fate = Engine.Delivered then Some s.t_label else None)
      stats
  | Engine.Deadlock _ -> []

(* ---- ground truth: Detect-trigger runs against recovery-free runs
   (fault-free, so every Deadlock outcome carries a genuine wait-for knot) ---- *)

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

let ring5 = Builders.ring ~unidirectional:true 5
let ring5_rt = Ring_routing.clockwise ring5
let mesh3 = Builders.mesh [ 3; 3 ]
let mesh3_rt = Dimension_order.mesh mesh3
let detect_recovery = { Engine.default_recovery with trigger = Engine.Detect dcfg }
let watchdog_recovery = { Engine.default_recovery with trigger = Engine.Watchdog 32 }
let with_recovery r = { Engine.default_config with recovery = Some r }

let detections events =
  List.filter_map
    (function Obs_event.Deadlock_detected { cycle; _ } -> Some cycle | _ -> None)
    events

let detect_run rt sched = recorded_run ~config:(with_recovery detect_recovery) rt sched

let prop_detect_matches_outcome =
  (* the detector's completeness/soundness contract against the engine's own
     verdict: a run detects iff its recovery-free twin deadlocks, and the
     first detection lands within the latency bound of the cycle the twin
     declares the state permanently blocked *)
  QCheck.Test.make ~name:"Detect fires exactly on the Deadlock outcomes, within the bound"
    ~count:150 (schedule_gen ring5)
    (fun sched ->
      let _, events = detect_run ring5_rt sched in
      match (Engine.run ring5_rt sched, detections events) with
      | Engine.Deadlock d, first :: _ -> first <= d.Engine.d_cycle + bound
      | Engine.Deadlock _, [] -> false
      | (Engine.All_delivered _ | Engine.Cutoff _), dets -> dets = []
      | Engine.Recovered _, _ -> false)

let prop_no_detection_on_acyclic =
  QCheck.Test.make ~name:"acyclic mesh runs never trip the detector" ~count:100
    (schedule_gen mesh3)
    (fun sched ->
      let _, events = detect_run mesh3_rt sched in
      detections events = [])

let prop_detect_deterministic =
  QCheck.Test.make ~name:"Detect runs replay identically" ~count:50 (schedule_gen ring5)
    (fun sched -> detect_run ring5_rt sched = detect_run ring5_rt sched)

(* ---- the shared cycle finder, exhaustively on small graphs ---- *)

(* Reference answers by brute force: [v] lies on a cycle iff iterating
   [succ] from it comes back within [n] steps, and the cycle is its orbit;
   a walk from [s] runs into the cycle whose node it is the first to
   revisit. *)
let orbit succ v =
  let rec go w acc = if w = v then List.rev acc else go succ.(w) (w :: acc) in
  go succ.(v) [ v ]

let brute_cycles succ =
  let n = Array.length succ in
  let on_cycle v =
    let rec go w k = k <= n && w >= 0 && (w = v || go succ.(w) (k + 1)) in
    go succ.(v) 1
  in
  List.filter on_cycle (List.init n Fun.id)
  |> List.map (fun v -> List.sort compare (orbit succ v))
  |> List.sort_uniq compare

let brute_entry succ s =
  let rec go v seen =
    if v < 0 then [] else if List.mem v seen then [ v ] else go succ.(v) (v :: seen)
  in
  go s []

let in_walk_order succ = function
  | [] -> false
  | e :: _ as c ->
    let rec ok = function
      | [ last ] -> succ.(last) = e
      | a :: (b :: _ as tl) -> succ.(a) = b && ok tl
      | [] -> false
    in
    ok c && List.length (List.sort_uniq compare c) = List.length c

let test_finder_exhaustive () =
  let arrays = ref 0 in
  for n = 1 to 6 do
    let succ = Array.make n (-1) and mark = Array.make n 0 in
    let rec each i =
      if i = n then begin
        incr arrays;
        let found = Obs_detect.cycles succ in
        if not (List.for_all (in_walk_order succ) found) then
          Alcotest.failf "cycle out of walk order for succ [%s]"
            (String.concat ";" (Array.to_list (Array.map string_of_int succ)));
        if List.sort compare (List.map (List.sort compare) found) <> brute_cycles succ then
          Alcotest.failf "cycle set differs for succ [%s]"
            (String.concat ";" (Array.to_list (Array.map string_of_int succ)));
        for s = 0 to n - 1 do
          let got = Obs_detect.find_cycles ~succ ~mark ~starts:[| -1; s |] ~nstarts:2 in
          if got <> brute_entry succ s || Array.exists (fun m -> m <> 0) mark then
            Alcotest.failf "walk from %d misreported for succ [%s]" s
              (String.concat ";" (Array.to_list (Array.map string_of_int succ)))
        done
      end
      else
        for v = -1 to n - 1 do
          succ.(i) <- v;
          each (i + 1)
        done
    in
    each 0
  done;
  (* (n + 1)^n successor arrays for n = 1..6 *)
  check Alcotest.int "successor arrays checked" 126_125 !arrays

(* ---- online: the Detect trigger on the torus tornado knot ---- *)

let torus5 = Builders.torus [ 5; 5 ]
let torus5_rt = Dimension_order.torus torus5
let tornado = Traffic.permutation_schedule (Traffic.tornado torus5) ~coords:torus5 ~length:8

let tornado_runs =
  lazy
    (let det = recorded_run ~config:(with_recovery detect_recovery) torus5_rt tornado in
     let wd = recorded_run ~config:(with_recovery watchdog_recovery) torus5_rt tornado in
     (det, wd))

let test_tornado_targeted_recovery () =
  let (det_out, det_events), (wd_out, wd_events) = Lazy.force tornado_runs in
  check cb "detect aborts strictly fewer messages" true (aborts det_events < aborts wd_events);
  let det_set = delivered_labels det_out and wd_set = delivered_labels wd_out in
  check cb "detect delivers a superset of the watchdog" true
    (List.for_all (fun l -> List.mem l det_set) wd_set);
  check cb "detect delivers the whole permutation" true (List.length det_set = 25)

let test_tornado_detection_within_bound () =
  let (_, det_events), _ = Lazy.force tornado_runs in
  let truth, _ = recorded_run torus5_rt tornado in
  let knot_cycle =
    match truth with
    | Engine.Deadlock d -> d.Engine.d_cycle
    | o -> Alcotest.fail ("tornado without recovery should deadlock, got " ^ Engine.outcome_string o)
  in
  match
    List.find_map
      (function Obs_event.Deadlock_detected { cycle; _ } -> Some cycle | _ -> None)
      det_events
  with
  | None -> Alcotest.fail "no Deadlock_detected event in the detect run"
  | Some c -> check cb "first detection within the bound" true (c <= knot_cycle + bound)

let test_victim_event_ordering () =
  (* every Victim_aborted is announced by a preceding Deadlock_detected that
     lists the victim, and is followed by the engine's Abort with reason
     "deadlock" for the same label *)
  let (_, det_events), _ = Lazy.force tornado_runs in
  let events = Array.of_list det_events in
  let n = Array.length events in
  let victims = ref 0 in
  Array.iteri
    (fun i ev ->
      match ev with
      | Obs_event.Victim_aborted { label; policy; _ } ->
        incr victims;
        check cb "minimal policy name" true (policy = "minimal");
        let announced = ref false and aborted = ref false in
        for j = 0 to i - 1 do
          match events.(j) with
          | Obs_event.Deadlock_detected { victims = vs; _ } when List.mem label vs ->
            announced := true
          | _ -> ()
        done;
        for j = i + 1 to n - 1 do
          match events.(j) with
          | Obs_event.Abort { label = l; reason = "deadlock"; _ } when l = label ->
            aborted := true
          | _ -> ()
        done;
        check cb (label ^ " announced by a detection") true !announced;
        check cb (label ^ " aborted with reason deadlock") true !aborted
      | _ -> ())
    events;
  check cb "at least one victim" true (!victims > 0)

let test_postmortem_sections () =
  let (_, det_events), _ = Lazy.force tornado_runs in
  let pm = Obs.Postmortem.analyze ~rt:torus5_rt det_events in
  check cb "post-mortem records detections" true (pm.Obs.Postmortem.pm_detections <> []);
  let victim_events =
    List.filter_map
      (function Obs_event.Victim_aborted { label; _ } -> Some label | _ -> None)
      det_events
  in
  check cb "post-mortem victims match the event stream" true
    (List.map fst pm.Obs.Postmortem.pm_victims = victim_events)

(* ---- differential: the seeded fault corpus of EXP-FR ---- *)

let test_fault_corpus_superset () =
  (* with the same 32-cycle no-progress backstop, targeted recovery must
     deliver every message the plain watchdog delivers on the seeded
     campaigns of exp_fault *)
  let detect32 =
    {
      Engine.default_recovery with
      trigger = Engine.Detect { dcfg with Obs_detect.backstop = 32 };
    }
  in
  let watchdog32 = { Engine.default_recovery with trigger = Engine.Watchdog 32 } in
  let nets =
    [
      ("figure1", Paper_nets.figure1 ());
      ("figure2", Paper_nets.figure2 ());
      ("figure3c", Paper_nets.figure3 `C);
      ("figure3f", Paper_nets.figure3 `F);
    ]
  in
  List.iter
    (fun (name, net) ->
      let rt = Cd_algorithm.of_net net in
      let sched =
        List.map
          (fun (it : Paper_nets.intent) ->
            Schedule.message ~length:4 it.i_label it.i_src it.i_dst)
          net.Paper_nets.intents
      in
      let rng = Rng.create 7 in
      let faults =
        Fault.random ~link_failures:1 ~stalls:2 ~max_stall:16 ~horizon:15 rng
          net.Paper_nets.topo
      in
      let run r =
        Engine.run ~config:{ Engine.default_config with faults; recovery = Some r } rt sched
      in
      let det = delivered_labels (run detect32) and wd = delivered_labels (run watchdog32) in
      check cb (name ^ ": detect delivers a superset under seeded faults") true
        (List.for_all (fun l -> List.mem l det) wd))
    nets

(* ---- static lint for the Detect config ---- *)

let test_detect_config_lint () =
  let codes diags = List.map (fun d -> d.Diagnostic.code) diags in
  check (Alcotest.list Alcotest.string) "nonpositive bound is E045" [ "E045" ]
    (codes (Lint.detect_config ~algorithm:"cd" ~bound:0 ~backstop:512));
  check (Alcotest.list Alcotest.string) "backstop <= bound is W046" [ "W046" ]
    (codes (Lint.detect_config ~algorithm:"cd" ~bound:16 ~backstop:16));
  check (Alcotest.list Alcotest.string) "sane config is clean" []
    (codes (Lint.detect_config ~algorithm:"cd" ~bound:16 ~backstop:512))

(* ---- campaign determinism across domain counts ---- *)

let capture exp =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let rows = exp ppf in
  Format.pp_print_flush ppf ();
  (Buffer.contents buf, rows)

let run_at ~domains exp =
  Wr_pool.set_default_domains domains;
  Fun.protect ~finally:(fun () -> Wr_pool.set_default_domains 1) (fun () -> capture exp)

let test_exp_detect_domains () =
  let out4, rows4 = run_at ~domains:4 (Experiments.exp_detect ~quick:true) in
  let out1, rows1 = run_at ~domains:1 (Experiments.exp_detect ~quick:true) in
  check Alcotest.int "same claim count" (List.length rows1) (List.length rows4);
  List.iter2
    (fun (r1 : Experiments.row) (r4 : Experiments.row) ->
      check Alcotest.string "claim id" r1.x_id r4.x_id;
      check Alcotest.string "measured value" r1.x_measured r4.x_measured;
      check cb "verdict" r1.x_ok r4.x_ok)
    rows1 rows4;
  check Alcotest.string "byte-identical output" out1 out4;
  check cb "all claims hold" true (List.for_all (fun (r : Experiments.row) -> r.x_ok) rows1)

(* The EXP-D1 report, as [run_experiments exp-detect --quick] prints it up to
   the campaign verdict line, pinned byte for byte. *)
let test_exp_detect_golden () =
  let out, rows = capture (Experiments.exp_detect ~quick:true) in
  let report =
    Printf.sprintf "%s\n=== Summary ===\n%s\nall %d claims reproduced\n" out
      (Experiments.summary_table rows) (List.length rows)
  in
  let ic = open_in_bin "golden/exp-detect-quick.txt" in
  let golden =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  check Alcotest.string "golden/exp-detect-quick.txt" golden report

let () =
  Alcotest.run "detect"
    [
      ( "campaign",
        [
          Alcotest.test_case "exp-detect identical at 1 and 4 domains" `Quick
            test_exp_detect_domains;
          Alcotest.test_case "exp-detect report matches the golden" `Quick
            test_exp_detect_golden;
        ] );
      ( "finder",
        [
          Alcotest.test_case "every successor array on <= 6 nodes" `Quick
            test_finder_exhaustive;
        ] );
      ( "ground-truth",
        [
          qtest prop_detect_matches_outcome;
          qtest prop_no_detection_on_acyclic;
          qtest prop_detect_deterministic;
        ] );
      ( "online",
        [
          Alcotest.test_case "tornado: targeted recovery beats the watchdog" `Quick
            test_tornado_targeted_recovery;
          Alcotest.test_case "tornado: detection within the bound" `Quick
            test_tornado_detection_within_bound;
          Alcotest.test_case "victim event ordering" `Quick test_victim_event_ordering;
          Alcotest.test_case "post-mortem sections" `Quick test_postmortem_sections;
        ] );
      ( "differential",
        [
          Alcotest.test_case "seeded fault corpus: delivery superset" `Quick
            test_fault_corpus_superset;
        ] );
      ("lint", [ Alcotest.test_case "detect-config lint codes" `Quick test_detect_config_lint ]);
    ]
