(* Self-tests for the benchmark's own logic: span self times, metric naming,
   and output checks that count a corrupted verdict line or fingerprint in
   [fail_frac] instead of aborting. *)

open Bench_core

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

let close a b = Float.abs (a -. b) < 1e-9

(* A fake clock that advances one second per reading and a fake counter
   that advances by ten: every duration and delta below is exact. *)
let fake () =
  let now = ref 0. and ctr = ref 0. in
  ( (fun () ->
      now := !now +. 1.;
      !now),
    fun () ->
      ctr := !ctr +. 10.;
      [| !ctr |] )

let test_self_time () =
  let clock, sample = fake () in
  let t = Span.create ~clock ~sample true in
  (* clock readings: create=1; outer opens at 2; a: 3..4; b: 5..6; outer closes at 7 *)
  Span.run t "outer" (fun () ->
      Span.run t "a" ignore;
      Span.run t "b" ignore);
  match Span.spans t with
  | [ outer; a; b ] ->
    expect "outer duration" (close (Span.duration outer) 5.);
    expect "child durations" (close (Span.duration a) 1. && close (Span.duration b) 1.);
    expect "outer self time excludes children" (close (Span.self_time t outer) 3.);
    expect "leaf self time is its duration" (close (Span.self_time t a) 1.);
    expect "parents" (outer.parent = -1 && a.parent = outer.id && b.parent = outer.id);
    expect "totals by name" (close (Span.total t "a") 1. && close (Span.total t "b") 1.);
    expect "counter deltas" (close (Span.total_delta t "outer" 0) 50. && close a.deltas.(0) 10.);
    expect "unknown name totals zero" (Span.total t "none" = 0.)
  | l -> expect (Printf.sprintf "three spans recorded (got %d)" (List.length l)) false

let test_span_raises () =
  let clock, sample = fake () in
  let t = Span.create ~clock ~sample true in
  (try Span.run t "boom" (fun () -> failwith "x") with Failure _ -> ());
  Span.run t "after" ignore;
  match Span.spans t with
  | [ boom; after ] ->
    expect "a raising call still closes its span" (boom.name = "boom" && after.parent = -1)
  | _ -> expect "two spans after a raise" false

let test_disabled () =
  let t = Span.create false in
  expect "disabled recorder runs the call" (Span.run t "x" (fun () -> 42) = 42);
  expect "disabled recorder records nothing" (Span.spans t = [])

let test_names () =
  List.iter
    (fun n -> expect ("valid name " ^ n) (valid_name n))
    [ "wall_s"; "search.exp-f1.us_per_run"; "sim.mesh16-uniform-lo.wall_s"; "0x"; String.make 64 'a' ];
  List.iter
    (fun n -> expect (Printf.sprintf "invalid name %S" n) (not (valid_name n)))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "a:b"; String.make 65 'a' ];
  List.iter (fun u -> expect ("valid unit " ^ u) (valid_unit u)) [ "s"; "1/s"; "%"; "MB"; "words" ];
  List.iter
    (fun u -> expect (Printf.sprintf "invalid unit %S" u) (not (valid_unit u)))
    [ ""; "a b"; String.make 17 's' ];
  let m v = { m_name = "wall_s"; m_unit = "s"; m_value = v } in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  expect "repeated metric rejected" (raises (fun () -> result_line ~attempted:1 ~failed:0 [ m 1.; m 2. ]));
  expect "bad metric name rejected"
    (raises (fun () -> result_line ~attempted:1 ~failed:0 [ { (m 1.) with m_name = "a b" } ]));
  expect "NaN rejected" (raises (fun () -> result_line ~attempted:1 ~failed:0 [ m Float.nan ]));
  expect "result line"
    (result_line ~attempted:3 ~failed:1 [ m 0.5 ]
    = {|{"correct": false, "attempted": 3, "failed": 1, "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}|});
  expect "all digits" (json_number 0.1 = "0.10000000000000001")

let golden = [ "F1/cdg ok"; "F1/suffix ok"; "T2/classify ok" ]

let test_verdicts () =
  let rows = [ ("F1/cdg", true); ("F1/suffix", true); ("T2/classify", true) ] in
  let lines = List.map Checks.verdict_line rows in
  let c = Checks.create ~log:ignore () in
  Checks.compare_lines c ~what:"verdicts" ~expected:golden lines;
  expect "matching verdicts pass" (Checks.failed c = 0 && Checks.attempted c = 4);
  let corrupted = List.map Checks.verdict_line [ ("F1/cdg", true); ("F1/suffix", false); ("T2/classify", true) ] in
  let c = Checks.create ~log:ignore () in
  Checks.compare_lines c ~what:"verdicts" ~expected:golden corrupted;
  expect "a corrupted verdict line counts one failure" (Checks.failed c = 1 && Checks.attempted c = 4);
  let c = Checks.create ~log:ignore () in
  Checks.compare_lines c ~what:"verdicts" ~expected:golden (List.tl lines);
  expect "a missing verdict line counts as failures" (Checks.failed c = 4 && Checks.attempted c = 4)

let test_fingerprints () =
  let c = Checks.create ~log:ignore () in
  let pp (d, f) = Printf.sprintf "(%d, %h)" d f in
  Checks.check_equal c "fingerprint" ~pp (30550, 17.04) (30550, 17.04);
  Checks.check_equal c "fingerprint" ~pp (30550, 17.04) (30550, 17.040000000000003);
  expect "a corrupted fingerprint counts one failure" (Checks.attempted c = 2 && Checks.failed c = 1);
  Checks.protect c "raising call" (fun () -> failwith "boom");
  expect "an exception becomes a failed check" (Checks.attempted c = 3 && Checks.failed c = 2)

let test_median () =
  expect "odd median" (median [ 3.; 1.; 2. ] = 2.);
  expect "even median" (median [ 4.; 1.; 3.; 2. ] = 2.5);
  expect "empty median raises" (match median [] with _ -> false | exception Invalid_argument _ -> true)

let () =
  test_self_time ();
  test_span_raises ();
  test_disabled ();
  test_names ();
  test_verdicts ();
  test_fingerprints ();
  test_median ();
  if !failures > 0 then exit 1;
  print_endline "perfbench self-test: ok"
