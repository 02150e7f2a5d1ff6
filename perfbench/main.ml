(* The repo benchmark.  One run times one workload and prints, as the last
   line of stdout, {"correct", "attempted", "failed", "metrics"}.

   Usage (from the repository root):
     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--nproc N] [--commit ID]

   --trace 0  sets up the workload five times (setup_s is the median),
              then repeats closed-loop passes for about S seconds and
              reports the end-to-end metrics as medians over the passes;
              a "samples" line before the result gives every set-up and
              pass time.
   --trace 1  profiles every layer: it runs a traced pass of each of the
              three call-sets with a span around every call into a layer,
              reports the per-layer metrics, and reports the tracing
              overhead as the named workload's traced pass wall time minus
              the mean of an untraced pass before and one after it.  The
              spans, with self times, go to
              .perfbench/trace-<workload>-seed<N>.json.

   The library's sweeps run on N domains, N being the host's core count
   (--nproc, default: the recommended domain count). *)

open Bench_core

let setup_repeats = 5
let out_dir = ".perfbench"

(* -- counters sampled at span boundaries ----------------------------- *)

let pool_claims = Atomic.make 0
let pool_cancels = Atomic.make 0

let observe_pool () =
  Wr_pool.set_observer
    (Some
       (function
         | Wr_pool.Claim _ -> Atomic.incr pool_claims
         | Wr_pool.Cancel _ -> Atomic.incr pool_cancels))

(* quick_stat counts the words of joined helper domains too *)
let sample () =
  [|
    (Gc.quick_stat ()).Gc.minor_words;
    float_of_int (Engine.run_count ());
    float_of_int (Engine.cancelled_count ());
    float_of_int (Atomic.get pool_claims);
    float_of_int (Atomic.get pool_cancels);
  |]

(* VmHWM, the resident-set high-water mark, from Linux's /proc *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l -> Scanf.sscanf l "VmHWM: %d kB" Fun.id
    | _ -> find ()
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.

(* Every set-up and pass, traced or not, starts from a compacted heap, so
   none inherits the previous one's major-GC debt. *)
let time_of f =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* -- untraced: end-to-end metrics ------------------------------------ *)

let end_to_end (w : Workloads.workload) ~seconds =
  let setups = List.init setup_repeats (fun _ -> time_of w.setup) in
  let start = Unix.gettimeofday () in
  let rec loop acc =
    Gc.compact ();
    let acc = w.pass () :: acc in
    let elapsed = Unix.gettimeofday () -. start in
    if elapsed +. median (List.map (fun p -> p.Workloads.p_wall) acc) <= seconds then loop acc
    else List.rev acc
  in
  let passes = loop [] in
  let walls = List.map (fun p -> p.Workloads.p_wall) passes in
  let floats l = String.concat ", " (List.map json_number l) in
  Printf.printf "{\"samples\": {\"setup_s\": [%s], \"pass_wall_s\": [%s]}}\n%!" (floats setups)
    (floats walls);
  let rate p = Workloads.safe_div p.Workloads.p_work p.Workloads.p_wall in
  [
    ("wall_s", "s", median walls);
    ("setup_s", "s", median setups);
    ("work_per_s", "1/s", median (List.map rate passes));
  ]

(* -- traced: per-layer metrics --------------------------------------- *)

let per_layer (ctx : Workloads.ctx) selected workloads ~seed =
  observe_pool ();
  let tracer = Span.create ~sample true and quiet = Span.create false in
  let overhead = ref 0. in
  let metrics =
    List.concat_map
      (fun (w : Workloads.workload) ->
        ctx.spans <- tracer;
        w.setup ();
        let untraced () =
          ctx.spans <- quiet;
          Gc.compact ();
          let p = w.pass () in
          ctx.spans <- tracer;
          p.p_wall
        in
        (* untraced passes before and after the traced one, so neither side
           alone pays the first pass's warm-up *)
        let before = if w.name = selected then untraced () else 0. in
        Gc.compact ();
        let traced = Span.run tracer ("pass." ^ w.name) w.pass in
        if w.name = selected then overhead := traced.p_wall -. ((before +. untraced ()) /. 2.);
        w.extras ();
        w.layer_metrics ())
      workloads
  in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" selected seed) in
  let oc = open_out path in
  output_string oc (Span.to_json ~counter_names:Workloads.counter_names tracer);
  close_out oc;
  prerr_string (Span.self_table tracer);
  Printf.eprintf "perfbench: spans written to %s\n%!" path;
  metrics @ [ Workloads.metric "trace.overhead_s" "s" !overhead ]

(* -- command line ----------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let nproc = ref (Domain.recommended_domain_count ()) and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME verdict-quick | mesh-traffic | analysis-plane");
      ("--seed", Arg.Set_int seed, "N traffic seed");
      ("--seconds", Arg.Set_float seconds, "S measured phase length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--nproc", Arg.Set_int nproc, "N host cores: the domain count (default: recommended count)");
      ("--commit", Arg.Set_string commit, "ID commit recorded in the provenance line");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then begin
    Printf.eprintf "--trace takes 0 or 1\n";
    exit 2
  end;
  let checks = Checks.create () in
  let ctx = { Workloads.spans = Span.create false; checks; seed = !seed } in
  let workloads = Workloads.all ctx in
  let w =
    match List.find_opt (fun (w : Workloads.workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : Workloads.workload) -> w.name) workloads));
      exit 2
  in
  if not (Sys.file_exists Workloads.golden) then begin
    Printf.eprintf "missing %s: run from the repository root\n" Workloads.golden;
    exit 2
  end;
  Wr_pool.set_default_domains !nproc;
  Printf.printf
    "{\"provenance\": {\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
     \"nproc\": %d, \"domains\": %d, \"ocaml\": %s, \"commit\": %s}}\n%!"
    (json_string w.name) !seed (json_number !seconds) !trace !nproc (Wr_pool.default_domains ())
    (json_string Sys.ocaml_version) (json_string !commit);
  let metrics =
    if !trace = 0 then begin
      let timings = end_to_end w ~seconds:!seconds in
      let attempted = float_of_int (Checks.attempted checks) in
      let passed = attempted -. float_of_int (Checks.failed checks) in
      List.map (fun (n, u, v) -> Workloads.metric n u v) timings
      @ [
          Workloads.metric "peak_rss_mb" "MB" (peak_rss_mb ());
          Workloads.metric "pass_frac" "ratio" (Workloads.safe_div passed attempted);
        ]
    end
    else per_layer ctx w.name workloads ~seed:!seed
  in
  print_endline
    (result_line ~attempted:(Checks.attempted checks) ~failed:(Checks.failed checks) metrics)
