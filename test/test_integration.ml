(* Integration tests: the Verify pipeline end to end, and the experiment
   suite's paper-vs-measured rows. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let conclusion_of rt = (Verify.analyze ~quick:true rt).Verify.conclusion

let test_verify_acyclic_algorithms () =
  List.iter
    (fun (name, rt) ->
      match conclusion_of rt with
      | Verify.Deadlock_free why ->
        check cb (name ^ " via acyclicity") true
          (String.length why > 0 && String.sub why 0 7 = "acyclic")
      | c -> Alcotest.failf "%s: %s" name (Format.asprintf "%a" Verify.pp_conclusion c))
    [
      ("xy", Dimension_order.mesh (Builders.mesh [ 4; 4 ]));
      ("west-first", Turn_model.west_first (Builders.mesh [ 4; 4 ]));
      ("hypercube", Dimension_order.hypercube (Builders.hypercube 3));
      ("dateline ring", Ring_routing.dateline (Builders.ring ~unidirectional:true ~vcs:2 6));
    ]

let test_verify_deadlocking_algorithms () =
  List.iter
    (fun (name, rt) ->
      match conclusion_of rt with
      | Verify.Deadlocks _ -> ()
      | c -> Alcotest.failf "%s: %s" name (Format.asprintf "%a" Verify.pp_conclusion c))
    [
      ("ring clockwise", Ring_routing.clockwise (Builders.ring ~unidirectional:true 4));
      ("torus novc", Dimension_order.torus (Builders.torus [ 4; 4 ]));
    ]

let test_verify_cd_algorithm () =
  (* THE headline: cyclic CDG, deadlock-free anyway *)
  let rt = Cd_algorithm.of_net (Paper_nets.figure1 ()) in
  let report = Verify.analyze ~quick:true rt in
  check cb "cyclic" false report.Verify.acyclic;
  check ci "one cycle" 1 (List.length report.Verify.cycles);
  (match report.Verify.cycles with
  | [ cr ] ->
    check cb "searched" true cr.Verify.cr_searched;
    check cb "no witness" true (cr.Verify.cr_witness = None);
    check cb "many runs" true (cr.Verify.cr_search_runs > 1000)
  | _ -> Alcotest.fail "expected one cycle report");
  match report.Verify.conclusion with
  | Verify.Deadlock_free _ -> ()
  | c -> Alcotest.failf "expected deadlock-free: %s" (Format.asprintf "%a" Verify.pp_conclusion c)

let test_verify_figure3_split () =
  let verdict case =
    let rt = Cd_algorithm.of_net (Paper_nets.figure3 case) in
    conclusion_of rt
  in
  (match verdict `A with
  | Verify.Deadlock_free _ -> ()
  | c -> Alcotest.failf "a: %s" (Format.asprintf "%a" Verify.pp_conclusion c));
  match verdict `D with
  | Verify.Deadlocks _ -> ()
  | c -> Alcotest.failf "d: %s" (Format.asprintf "%a" Verify.pp_conclusion c)

let test_verify_no_search_mode () =
  let rt = Cd_algorithm.of_net (Paper_nets.figure1 ()) in
  let report = Verify.analyze ~use_search:false rt in
  match report.Verify.conclusion with
  | Verify.Unknown _ -> ()
  | c -> Alcotest.failf "expected unknown: %s" (Format.asprintf "%a" Verify.pp_conclusion c)

let test_verify_report_renders () =
  let rt = Ring_routing.clockwise (Builders.ring ~unidirectional:true 4) in
  let report = Verify.analyze ~quick:true rt in
  let s = Format.asprintf "%a" Verify.pp_report report in
  check cb "mentions conclusion" true (String.length s > 50)

(* ---- experiment rows ---- *)

let all_ok name rows =
  List.iter
    (fun (r : Experiments.row) ->
      if not r.Experiments.x_ok then
        Alcotest.failf "%s: claim %s failed: %s" name r.x_id r.x_measured)
    rows;
  check cb (name ^ " nonempty") true (rows <> [])

let test_exp_t2 () = all_ok "exp-t2" (Experiments.exp_t2 ~quick:true null_ppf)
let test_exp_t3 () = all_ok "exp-t3" (Experiments.exp_t3 ~quick:true null_ppf)
let test_exp_t4 () = all_ok "exp-t4" (Experiments.exp_t4 ~quick:true null_ppf)
let test_exp_s1 () = all_ok "exp-s1" (Experiments.exp_s1 ~quick:true null_ppf)
let test_exp_s2 () = all_ok "exp-s2" (Experiments.exp_s2 ~quick:true null_ppf)
let test_exp_f1 () = all_ok "exp-f1" (Experiments.exp_f1 ~quick:true null_ppf)
let test_exp_t5 () = all_ok "exp-t5" (Experiments.exp_t5 ~quick:true null_ppf)
let test_exp_g () = all_ok "exp-g" (Experiments.exp_g ~quick:true ~max_p:1 null_ppf)
let test_exp_corollaries () = all_ok "exp-c" (Experiments.exp_corollaries ~quick:true null_ppf)
let test_exp_fault () = all_ok "exp-fr" (Experiments.exp_fault ~quick:true null_ppf)

let test_summary_table () =
  let rows = Experiments.exp_t2 ~quick:true null_ppf in
  let s = Experiments.summary_table rows in
  check cb "table renders" true (String.length s > 40)

(* ---- campaign record renderers (run_experiments outputs) ---- *)

(* Two experiments, one failed claim, and speculative runs cancelled in the
   first: canonical runs are 100 - 10 = 90 and 40, so 130 in total. *)
let campaign =
  let r id ok = { Experiments.x_id = id; x_claim = "c"; x_measured = "m"; x_ok = ok } in
  {
    Experiments.c_quick = true;
    c_domains = 2;
    c_entries =
      [
        { Experiments.e_name = "exp-x"; e_rows = [ r "X/a" true; r "X/b" true ];
          e_wall = 1.5; e_runs = 100; e_cancelled = 10 };
        { Experiments.e_name = "exp-y"; e_rows = [ r "Y/a" false ];
          e_wall = 0.5; e_runs = 40; e_cancelled = 0 };
      ];
  }

let cs = Alcotest.string

let test_campaign_verdicts () =
  check cs "verdict lines" "X/a ok\nX/b ok\nY/a FAIL\n" (Experiments.verdict_lines campaign)

let test_campaign_metrics () =
  check cs "prometheus"
    "# HELP wormhole_campaign_claims_total Campaign claims by verdict\n\
     # TYPE wormhole_campaign_claims_total counter\n\
     wormhole_campaign_claims_total{status=\"failed\"} 1\n\
     wormhole_campaign_claims_total{status=\"ok\"} 2\n\
     # HELP wormhole_campaign_experiment_runs_total Canonical engine runs per experiment \
     (speculative cancelled runs excluded)\n\
     # TYPE wormhole_campaign_experiment_runs_total counter\n\
     wormhole_campaign_experiment_runs_total{experiment=\"exp-x\"} 90\n\
     wormhole_campaign_experiment_runs_total{experiment=\"exp-y\"} 40\n\
     # HELP wormhole_campaign_quick 1 when the campaign ran with --quick\n\
     # TYPE wormhole_campaign_quick gauge\n\
     wormhole_campaign_quick 1\n\
     # HELP wormhole_campaign_runs_total Canonical engine runs across the campaign\n\
     # TYPE wormhole_campaign_runs_total counter\n\
     wormhole_campaign_runs_total 130\n"
    (Experiments.metrics_text campaign)

let test_campaign_json () =
  let json = Experiments.json_text campaign in
  let keys =
    List.filter_map
      (fun line ->
        if String.length line > 3 && String.sub line 0 3 = "  \"" then
          Some (List.hd (String.split_on_char '"' (String.sub line 3 (String.length line - 3))))
        else None)
      (String.split_on_char '\n' json)
  in
  check (Alcotest.list cs) "top-level keys in order"
    [ "schema"; "domains"; "quick"; "claims"; "failed"; "wall_s"; "engine_runs";
      "engine_runs_cancelled"; "experiments" ]
    keys;
  check cs "json"
    "{\n\
    \  \"schema\": \"wormhole-campaign/1\",\n\
    \  \"domains\": 2,\n\
    \  \"quick\": true,\n\
    \  \"claims\": 3,\n\
    \  \"failed\": 1,\n\
    \  \"wall_s\": 2.000,\n\
    \  \"engine_runs\": 140,\n\
    \  \"engine_runs_cancelled\": 10,\n\
    \  \"experiments\": [\n\
    \    {\"name\": \"exp-x\", \"wall_s\": 1.500, \"runs\": 100, \"cancelled\": 10, \
     \"runs_per_s\": 67},\n\
    \    {\"name\": \"exp-y\", \"wall_s\": 0.500, \"runs\": 40, \"cancelled\": 0, \
     \"runs_per_s\": 80}\n\
    \  ]\n\
     }\n"
    json

let test_campaign_timing () =
  let lines = String.split_on_char '\n' (String.trim (Experiments.timing_table campaign)) in
  let last = List.nth lines (List.length lines - 1) in
  check (Alcotest.list cs) "totals row" [ "total"; "2.00"; "140"; "10"; "70" ]
    (List.filter (( <> ) "") (String.split_on_char ' ' last));
  let t = Experiments.totals campaign in
  check (Alcotest.list ci) "totals: claims, failed, runs, cancelled, canonical"
    [ 3; 1; 140; 10; 130 ]
    Experiments.[ t.t_claims; t.t_failed; t.t_runs; t.t_cancelled; t.t_canonical ]

let () =
  Alcotest.run "integration"
    [
      ( "verify",
        [
          Alcotest.test_case "acyclic suite" `Quick test_verify_acyclic_algorithms;
          Alcotest.test_case "deadlocking suite" `Quick test_verify_deadlocking_algorithms;
          Alcotest.test_case "cd algorithm headline" `Slow test_verify_cd_algorithm;
          Alcotest.test_case "figure3 split" `Slow test_verify_figure3_split;
          Alcotest.test_case "no-search mode" `Quick test_verify_no_search_mode;
          Alcotest.test_case "report renders" `Quick test_verify_report_renders;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "exp-t2" `Quick test_exp_t2;
          Alcotest.test_case "exp-t3" `Quick test_exp_t3;
          Alcotest.test_case "exp-t4" `Quick test_exp_t4;
          Alcotest.test_case "exp-s1" `Quick test_exp_s1;
          Alcotest.test_case "exp-s2" `Quick test_exp_s2;
          Alcotest.test_case "exp-f1" `Slow test_exp_f1;
          Alcotest.test_case "exp-t5" `Slow test_exp_t5;
          Alcotest.test_case "exp-g" `Slow test_exp_g;
          Alcotest.test_case "exp-corollaries" `Slow test_exp_corollaries;
          Alcotest.test_case "exp-fault" `Quick test_exp_fault;
          Alcotest.test_case "summary table" `Quick test_summary_table;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "verdict lines" `Quick test_campaign_verdicts;
          Alcotest.test_case "prometheus" `Quick test_campaign_metrics;
          Alcotest.test_case "json" `Quick test_campaign_json;
          Alcotest.test_case "timing totals" `Quick test_campaign_timing;
        ] );
    ]
