(* Regenerate every paper artifact (EXPERIMENTS.md is the captured output).

   Usage: experiments [EXPERIMENT...] [--quick] [--max-p N] [--domains N]
                      [--json FILE]

   With no arguments, runs the full suite.  A timed loop fills one
   Experiments.campaign record; every output renders from it.  The claim
   output is byte-identical for any --domains value; the timing table and
   the JSON are the only wall-clock-dependent outputs. *)

open Cmdliner

let main names quick max_p sanitize detect discipline domains json metrics verdicts latency =
  (match domains with
  | None -> ()
  | Some d when d < 1 ->
    Printf.eprintf "--domains must be at least 1 (got %d)\n" d;
    exit 2
  | Some d -> Wr_pool.set_default_domains d);
  (match discipline with
  | None -> ()
  | Some spec -> (
    match Engine.discipline_of_string spec with
    | Some d -> Engine.set_discipline_override (Some d)
    | None ->
      Printf.eprintf
        "unknown --discipline %s (wormhole/wh, virtual-cut-through/vct, store-and-forward/saf)\n"
        spec;
      exit 2));
  let ppf = Format.std_formatter in
  let sanitizer = if sanitize then Some (Sanitizer.create ()) else None in
  Option.iter Sanitizer.install sanitizer;
  let registry = Experiments.registry ~quick ?max_p ~detect () in
  let selected =
    match names with
    | [] -> registry
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n registry with
          | Some run -> (n, run)
          | None ->
            Printf.eprintf "unknown experiment %s (known: %s)\n" n
              (String.concat ", " (List.map fst registry));
            exit 2)
        names
  in
  let entries =
    List.map
      (fun (name, run) ->
        let t0 = Unix.gettimeofday () in
        let runs0 = Engine.run_count () and cancelled0 = Engine.cancelled_count () in
        let rows = run ppf in
        Format.pp_print_flush ppf ();
        let wall = Unix.gettimeofday () -. t0 in
        {
          Experiments.e_name = name;
          e_rows = rows;
          e_wall = wall;
          e_runs = Engine.run_count () - runs0;
          e_cancelled = Engine.cancelled_count () - cancelled0;
        })
      selected
  in
  let campaign =
    { Experiments.c_quick = quick; c_domains = Wr_pool.default_domains (); c_entries = entries }
  in
  let totals = Experiments.totals campaign in
  let write path text what =
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Format.fprintf ppf "@\n%s written to %s@." what path
  in
  Format.fprintf ppf "@\n=== Summary ===@\n%s@?"
    (Experiments.summary_table (Experiments.campaign_rows campaign));
  (* every requested output is written before the exit status is chosen,
     so a failed campaign still leaves its verdicts, metrics and JSON *)
  Option.iter
    (fun path -> write path (Experiments.verdict_lines campaign) "claim verdicts")
    verdicts;
  if totals.t_failed > 0 then Format.fprintf ppf "@\n%d claim(s) FAILED@." totals.t_failed;
  let sanitizer_ok =
    match sanitizer with
    | None -> true
    | Some s ->
      Format.fprintf ppf "@\nsanitizer: %d runs (%d canonical, %d cancelled), %d cycles checked@."
        (Sanitizer.runs_checked s)
        (Sanitizer.runs_checked s - Sanitizer.runs_cancelled s)
        (Sanitizer.runs_cancelled s) (Sanitizer.cycles_checked s);
      if not (Sanitizer.ok s) then begin
        Format.fprintf ppf "%d invariant violation(s):@." (Sanitizer.violation_count s);
        List.iter
          (fun d -> Format.fprintf ppf "  %a@." (Diagnostic.pp ()) d)
          (Sanitizer.diagnostics s)
      end;
      Sanitizer.ok s
  in
  let ok = totals.t_failed = 0 && sanitizer_ok in
  if ok then Format.fprintf ppf "@\nall %d claims reproduced@." totals.t_claims;
  Option.iter
    (fun path -> write path (Experiments.metrics_text campaign) "campaign metrics")
    metrics;
  (* the latency section runs a fixed workload set with explicit per-run
     accumulators merged in task-index order: byte-identical at any
     --domains, so it prints before the wall-clock-dependent sections *)
  if latency then begin
    Experiments.latency_report ~quick ppf;
    Format.pp_print_flush ppf ()
  end;
  (* wall-clock-dependent sections last, so everything above stays byte-
     identical across runs and domain counts *)
  Format.fprintf ppf "@\n=== Timing (domains=%d) ===@\n%s@?" campaign.c_domains
    (Experiments.timing_table campaign);
  Option.iter (fun path -> write path (Experiments.json_text campaign) "timing JSON") json;
  if not ok then exit 1

let names_arg =
  let doc =
    "Experiments to run (default: all).  One of "
    ^ String.concat ", " (List.map fst (Experiments.registry ()))
    ^ "."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let quick_arg =
  let doc = "Trim search spaces for a fast pass (seconds instead of minutes)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let max_p_arg =
  let doc = "Largest Section-6 family parameter for exp-g." in
  Arg.(value & opt (some int) None & info [ "max-p" ] ~docv:"N" ~doc)

let sanitize_arg =
  let doc = "Run every simulation under the engine sanitizer (per-cycle invariant \
             checks E101-E106); report violations at the end and exit nonzero on any." in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let detect_arg =
  let doc = "Run exp-fault's campaigns with online deadlock detection instead of the plain \
             watchdog (same no-progress backstop; claim verdicts must not change)." in
  Arg.(value & flag & info [ "detect" ] ~doc)

let discipline_arg =
  let doc = "Run every oblivious simulation under this switching discipline (wormhole, \
             virtual-cut-through/vct, store-and-forward/saf) via the process-wide override: \
             a campaign-level what-if that shows which deadlock verdicts flip when the \
             switching changes.  Store-and-forward raises each run's effective buffer \
             capacity to its longest message so wormhole-provisioned campaigns stay \
             runnable.  exp-sw1 (the discipline matrix) pins its own disciplines and \
             ignores the override." in
  Arg.(value & opt (some string) None & info [ "discipline" ] ~docv:"D" ~doc)

let domains_arg =
  let doc = "Domains for the parallel sweeps (default: the WORMHOLE_DOMAINS environment \
             variable, else the machine's recommended domain count).  1 selects the exact \
             sequential path; claim output is byte-identical for every value." in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let json_arg =
  let doc = "Write per-experiment wall-clock and runs/sec timing to $(docv) as JSON \
             (schema wormhole-campaign/1)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Write campaign metrics (claim verdicts, canonical per-experiment engine-run \
             tallies) to $(docv) in Prometheus text format.  Built only from canonically \
             reduced quantities, so the file is byte-identical at any --domains." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let verdicts_arg =
  let doc = "Write one 'claim-id ok|FAIL' line per claim to $(docv): a canonical reduction \
             that is byte-identical at any --domains, for diffing across configurations." in
  Arg.(value & opt (some string) None & info [ "verdicts" ] ~docv:"FILE" ~doc)

let latency_arg =
  let doc = "Append a latency section: p50/p90/p99/max percentiles, peak channel \
             utilization and top head-of-line blocking channels over a fixed deterministic \
             workload set, measured with explicit per-run stats accumulators and \
             byte-identical at any --domains.  Claim verdicts do not change." in
  Arg.(value & flag & info [ "latency" ] ~doc)

let cmd =
  let doc = "regenerate the paper's figures and theorem checks" in
  let info = Cmd.info "experiments" ~doc in
  Cmd.v info
    Term.(
      const main $ names_arg $ quick_arg $ max_p_arg $ sanitize_arg $ detect_arg
      $ discipline_arg $ domains_arg $ json_arg $ metrics_arg $ verdicts_arg $ latency_arg)

let () = exit (Cmd.eval cmd)
