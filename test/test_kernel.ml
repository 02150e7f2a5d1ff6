(* Kernel-equivalence pins for the struct-of-arrays switching kernel.

   A deterministic matrix of seeded runs -- paper figure networks and
   mesh/torus substrates, oblivious and adaptive, with holds, priorities,
   store-and-forward, faults, watchdog and online-detection recovery -- is
   fingerprinted (full outcome payload plus a digest of every per-cycle
   probe snapshot) and compared against the verdicts captured from the
   pre-refactor record-based kernel in test/golden/kernel-pins.txt.  The
   data-oriented kernel must not change a single decision: not an award,
   not a wait edge, not a witness.

   Regenerate the pins ONLY when kernel semantics change deliberately:

     dune build test/test_kernel.exe && \
       WORMHOLE_KERNEL_PIN_REGEN=$PWD/test/golden/kernel-pins.txt \
       ./_build/default/test/test_kernel.exe

   The steady-cycle allocation tests at the bottom pin the other half of
   the PR-8 contract: once a run is past setup, simulated cycles allocate
   nothing (no closures, no option lists, no boxed options). *)

let check = Alcotest.check

(* ---- fingerprinting ---- *)

let digest_add d (s : string) =
  (* djb2, folded into 30 bits: stable across OCaml versions, unlike
     Hashtbl.hash on arbitrary structure *)
  String.iter (fun ch -> d := ((!d lsl 5) + !d + Char.code ch) land 0x3FFFFFFF) s

let fp_messages (ms : Engine.message_result list) =
  String.concat ","
    (List.map
       (fun (r : Engine.message_result) ->
         Printf.sprintf "%s:%s:%s" r.r_label
           (match r.r_injected_at with Some t -> string_of_int t | None -> "-")
           (match r.r_delivered_at with Some t -> string_of_int t | None -> "-"))
       ms)

let fp_stats (ss : Engine.retry_stat list) =
  String.concat ","
    (List.map
       (fun (s : Engine.retry_stat) ->
         Printf.sprintf "%s:%d:%s" s.t_label s.t_retries
           (match s.t_fate with
           | Engine.Delivered -> "d"
           | Engine.Dropped -> "x"
           | Engine.Gave_up -> "g"))
       ss)

let fp_occupancy topo occ =
  String.concat ","
    (List.map
       (fun (c, l, n) -> Printf.sprintf "%s=%s*%d" (Topology.channel_name topo c) l n)
       occ)

let fp_outcome topo (o : Engine.outcome) =
  match o with
  | Engine.All_delivered { finished_at; messages } ->
    Printf.sprintf "all-delivered@%d[%s]" finished_at (fp_messages messages)
  | Engine.Cutoff { at; messages } ->
    Printf.sprintf "cutoff@%d[%s]" at (fp_messages messages)
  | Engine.Recovered { finished_at; messages; stats } ->
    Printf.sprintf "recovered@%d[%s][%s]" finished_at (fp_messages messages)
      (fp_stats stats)
  | Engine.Deadlock d ->
    let blocked =
      String.concat ";"
        (List.map
           (fun (b : Engine.blocked_info) ->
             Printf.sprintf "%s>{%s}%s" b.b_label
               (String.concat "," (List.map (Topology.channel_name topo) b.b_wants))
               (match b.b_holder with Some h -> "@" ^ h | None -> ""))
           d.d_blocked)
    in
    Printf.sprintf "deadlock@%d wait=[%s] blocked=[%s] occ=[%s]" d.d_cycle
      (String.concat ">" d.d_wait_cycle)
      blocked
      (fp_occupancy topo d.d_occupancy)

(* The two kernel entry points as runners for [run_fingerprint]. *)
let oblivious rt ?config ~probe sched = Engine.run ?config ~probe rt sched
let adaptive ad ?config ~probe sched = Engine.run_adaptive ?config ~probe ad sched

let run_fingerprint topo ?config run sched =
  let snap = ref 5381 in
  let probe (s : Engine.snapshot) =
    digest_add snap (Printf.sprintf "#%d%b" s.s_cycle s.s_moved);
    digest_add snap (fp_occupancy topo s.s_occupancy);
    List.iter
      (fun (l, c, h) ->
        digest_add snap
          (Printf.sprintf "%s?%s%s" l (Topology.channel_name topo c)
             (match h with Some x -> "@" ^ x | None -> "")))
      s.s_waiting
  in
  let outcome = run ?config ~probe sched in
  Printf.sprintf "%s snap=%08x" (fp_outcome topo outcome) !snap

(* ---- the seeded case matrix ---- *)

(* A seeded schedule over routable pairs.  [path_of] (oblivious only)
   supplies the fixed route so adversarial holds can name an on-path
   channel; adaptive families pass [None] and generate no holds. *)
let gen_sched rng topo ~routable ~path_of =
  let n = Topology.num_nodes topo in
  let nmsg = 4 + Rng.int rng 6 in
  let rec pick_pair tries =
    if tries > 200 then None
    else
      let s = Rng.int rng n and d = Rng.int rng n in
      if s <> d && routable s d then Some (s, d) else pick_pair (tries + 1)
  in
  List.filter_map
    (fun i ->
      match pick_pair 0 with
      | None -> None
      | Some (s, d) ->
        let length = 1 + Rng.int rng 5 in
        let at = Rng.int rng 8 in
        let holds =
          match path_of with
          | Some path_fn when Rng.int rng 3 = 0 -> (
            match path_fn s d with
            | [] -> []
            | path ->
              let c = List.nth path (Rng.int rng (List.length path)) in
              [ (c, 1 + Rng.int rng 3) ])
          | Some _ | None -> []
        in
        Some (Schedule.message ~length ~at ~holds (Printf.sprintf "m%d" i) s d))
    (List.init nmsg (fun i -> i))

let gen_config rng topo labels =
  let store_forward = Rng.int rng 5 = 0 in
  let buffer_capacity = if store_forward then 8 else 1 + Rng.int rng 2 in
  let arbitration =
    if Rng.bool rng then Engine.Fifo
    else begin
      let arr = Array.of_list labels in
      Rng.shuffle rng arr;
      let k = 1 + Rng.int rng (Array.length arr) in
      Engine.Priority (Array.to_list (Array.sub arr 0 k))
    end
  in
  let faults =
    if Rng.int rng 3 = 0 then
      Fault.random ~link_failures:1 ~stalls:1 ~max_stall:6
        ~drops:(match labels with l :: _ when Rng.bool rng -> [ l ] | _ -> [])
        ~horizon:40 rng topo
    else Fault.empty
  in
  let recovery =
    if Rng.bool rng then
      Some
        {
          Engine.trigger = Engine.Watchdog (16 + Rng.int rng 32);
          retry_limit = 1 + Rng.int rng 2;
          backoff = 2 + Rng.int rng 4;
          reroute = None;
        }
    else None
  in
  {
    Engine.default_config with
    buffer_capacity;
    arbitration;
    discipline = (if store_forward then Engine.Store_and_forward else Engine.Wormhole);
    faults;
    recovery;
  }

type case = { id : string; fp : unit -> string }

let oblivious_family name base topo rt ~store_forward_ok ~seeds =
  List.init seeds (fun seed ->
      {
        id = Printf.sprintf "obl/%s/%d" name seed;
        fp =
          (fun () ->
            let rng = Rng.create (0x5EED + (7919 * base) + seed) in
            let routable s d =
              match Routing.path rt s d with Ok _ -> true | Error _ -> false
            in
            let path_of s d =
              match Routing.path rt s d with Ok p -> p | Error _ -> []
            in
            let sched = gen_sched rng topo ~routable ~path_of:(Some path_of) in
            let labels = List.map (fun (m : Schedule.message_spec) -> m.ms_label) sched in
            let config = gen_config rng topo labels in
            let config =
              if store_forward_ok then config
              else { config with discipline = Engine.Wormhole }
            in
            run_fingerprint topo ~config (oblivious rt) sched);
      })

let adaptive_family name base topo ad ~routable ~seeds =
  List.init seeds (fun seed ->
      {
        id = Printf.sprintf "adp/%s/%d" name seed;
        fp =
          (fun () ->
            let rng = Rng.create (0xADA0 + (104729 * base) + seed) in
            let sched = gen_sched rng topo ~routable ~path_of:None in
            let labels = List.map (fun (m : Schedule.message_spec) -> m.ms_label) sched in
            let config = gen_config rng topo labels in
            (* adaptive runs switch wormhole; SF is rejected only for
               oblivious, but keep the matrix uniform *)
            let config = { config with discipline = Engine.Wormhole } in
            run_fingerprint topo ~config (adaptive ad) sched);
      })

(* Discipline families (PR 10): the same seeded schedules re-run under
   virtual cut-through and store-and-forward.  These pin the new
   disciplines' decisions the same way the oblivious/adaptive families pin
   wormhole's; the wormhole pins above them must never move.  SAF runs
   raise the buffer capacity to the longest scheduled message (the engine
   rejects under-provisioned store-and-forward outright). *)
let discipline_family name base topo rt disc tag ~seeds =
  List.init seeds (fun seed ->
      {
        id = Printf.sprintf "%s/%s/%d" tag name seed;
        fp =
          (fun () ->
            let rng = Rng.create (0xD15C + (7919 * base) + seed) in
            let routable s d =
              match Routing.path rt s d with Ok _ -> true | Error _ -> false
            in
            let path_of s d =
              match Routing.path rt s d with Ok p -> p | Error _ -> []
            in
            let sched = gen_sched rng topo ~routable ~path_of:(Some path_of) in
            let labels = List.map (fun (m : Schedule.message_spec) -> m.ms_label) sched in
            let config = gen_config rng topo labels in
            let buffer_capacity =
              match disc with
              | Engine.Store_and_forward ->
                List.fold_left
                  (fun acc (m : Schedule.message_spec) -> max acc m.ms_length)
                  config.Engine.buffer_capacity sched
              | _ -> config.Engine.buffer_capacity
            in
            let config = { config with Engine.discipline = disc; buffer_capacity } in
            run_fingerprint topo ~config (oblivious rt) sched);
      })

let mesh4 = Builders.mesh [ 4; 4 ]
let mesh4_rt = Dimension_order.mesh mesh4
let torus4 = Builders.torus [ 4; 4 ]
let torus4_rt = Dimension_order.torus torus4
let torus5 = Builders.torus [ 5; 5 ]
let torus5_rt = Dimension_order.torus torus5
let mesh2vc = Builders.mesh ~vcs:2 [ 4; 4 ]
let fig1 = Paper_nets.figure1 ()
let fig1_rt = Cd_algorithm.of_net fig1
let fig2 = Paper_nets.figure2 ()
let fig2_rt = Cd_algorithm.of_net fig2
let fig3c = Paper_nets.figure3 `C
let fig3c_rt = Cd_algorithm.of_net fig3c

(* the exact engine-hotpath / mesh8x8 bench workload: the perf target of
   the refactor must keep its verdict and its cycle-by-cycle snapshots *)
let mesh8 = Builders.mesh [ 8; 8 ]
let mesh8_rt = Dimension_order.mesh mesh8

let mesh8_schedule () =
  let rng = Rng.create 11 in
  let pattern = Traffic.uniform rng mesh8 in
  Traffic.bernoulli_schedule rng pattern ~coords:mesh8 ~rate:0.02 ~length:4 ~horizon:300

let tornado5 () = Traffic.permutation_schedule (Traffic.tornado torus5) ~coords:torus5 ~length:8
let mesh3 = Builders.mesh [ 3; 3 ]

let detect_config dcfg =
  {
    Engine.default_config with
    recovery = Some { Engine.default_recovery with trigger = Engine.Detect dcfg };
  }

(* fully adaptive minimal routing on a loaded 3x3 mesh knots up several
   times; the knots' members differ in age and held channels, so each
   victim policy aborts different messages *)
let mesh3_knot_case name policy =
  {
    id = "adp/mesh3x3-knot-detect-" ^ name;
    fp =
      (fun () ->
        let rng = Rng.create 1 in
        let pattern = Traffic.uniform rng mesh3 in
        let sched =
          Traffic.bernoulli_schedule rng pattern ~coords:mesh3 ~rate:0.5 ~length:6 ~horizon:20
        in
        run_fingerprint mesh3.Builders.topo
          ~config:(detect_config { Obs_detect.default_config with Obs_detect.policy })
          (adaptive (Adaptive.fully_adaptive_minimal mesh3))
          sched);
  }

let special_cases =
  [
    {
      id = "obl/mesh8x8-hotpath";
      fp = (fun () -> run_fingerprint mesh8.Builders.topo (oblivious mesh8_rt)
                        (mesh8_schedule ()));
    };
    {
      id = "adp/mesh8x8-hotpath";
      fp =
        (fun () ->
          run_fingerprint mesh8.Builders.topo
            (adaptive (Adaptive.of_oblivious mesh8_rt))
            (mesh8_schedule ()));
    };
    {
      id = "obl/torus5-tornado-deadlock";
      fp = (fun () -> run_fingerprint torus5.Builders.topo (oblivious torus5_rt)
                        (tornado5 ()));
    };
    {
      id = "obl/torus5-tornado-vct";
      fp =
        (fun () ->
          let config =
            { Engine.default_config with discipline = Engine.Virtual_cut_through }
          in
          run_fingerprint torus5.Builders.topo ~config (oblivious torus5_rt)
            (tornado5 ()));
    };
    {
      id = "obl/torus5-tornado-saf";
      fp =
        (fun () ->
          let config =
            {
              Engine.default_config with
              discipline = Engine.Store_and_forward;
              buffer_capacity = 8;
            }
          in
          run_fingerprint torus5.Builders.topo ~config (oblivious torus5_rt)
            (tornado5 ()));
    };
    {
      id = "obl/torus5-tornado-detect";
      fp =
        (fun () ->
          let config =
            {
              Engine.default_config with
              recovery =
                Some
                  {
                    Engine.default_recovery with
                    trigger = Engine.Detect Obs_detect.default_config;
                  };
            }
          in
          run_fingerprint torus5.Builders.topo ~config (oblivious torus5_rt)
            (tornado5 ()));
    };
    {
      (* a planned stall pushes the stall horizon past the knot: no
         confirmation before the stall has expired *)
      id = "obl/torus5-tornado-detect-stall";
      fp =
        (fun () ->
          let ch =
            match Topology.find_channel torus5.Builders.topo 0 1 with
            | Some c -> c
            | None -> Alcotest.fail "torus5 has no channel 0 -> 1"
          in
          let faults =
            Fault.make [ Fault.Transient_stall { channel = ch; at = 5; duration = 60 } ]
          in
          let config = { (detect_config Obs_detect.default_config) with faults } in
          run_fingerprint torus5.Builders.topo ~config (oblivious torus5_rt) (tornado5 ()));
    };
    mesh3_knot_case "minimal" Obs_detect.Minimal_victim;
    mesh3_knot_case "youngest" Obs_detect.Youngest;
    mesh3_knot_case "oldest" Obs_detect.Oldest;
    {
      id = "obl/torus5-tornado-watchdog";
      fp =
        (fun () ->
          let config =
            { Engine.default_config with recovery = Some Engine.default_recovery }
          in
          run_fingerprint torus5.Builders.topo ~config (oblivious torus5_rt)
            (tornado5 ()));
    };
  ]

let cases =
  special_cases
  @ oblivious_family "figure1" 1 fig1.Paper_nets.topo fig1_rt ~store_forward_ok:true ~seeds:6
  @ oblivious_family "figure2" 2 fig2.Paper_nets.topo fig2_rt ~store_forward_ok:true ~seeds:6
  @ oblivious_family "figure3c" 3 fig3c.Paper_nets.topo fig3c_rt ~store_forward_ok:true
      ~seeds:6
  @ oblivious_family "mesh4x4" 4 mesh4.Builders.topo mesh4_rt ~store_forward_ok:true ~seeds:8
  @ oblivious_family "torus4x4" 5 torus4.Builders.topo torus4_rt ~store_forward_ok:true
      ~seeds:8
  @ adaptive_family "mesh4x4-minimal" 6 mesh4.Builders.topo
      (Adaptive.fully_adaptive_minimal mesh4)
      ~routable:(fun s d -> s <> d)
      ~seeds:6
  @ adaptive_family "mesh4x4-duato" 7 mesh2vc.Builders.topo (Adaptive.duato_mesh mesh2vc)
      ~routable:(fun s d -> s <> d)
      ~seeds:6
  @ adaptive_family "figure1-singleton" 8 fig1.Paper_nets.topo
      (Adaptive.of_oblivious fig1_rt)
      ~routable:(fun s d ->
        match Routing.path fig1_rt s d with Ok _ -> true | Error _ -> false)
      ~seeds:6
  @ discipline_family "figure2" 2 fig2.Paper_nets.topo fig2_rt
      Engine.Virtual_cut_through "vct" ~seeds:4
  @ discipline_family "figure2" 2 fig2.Paper_nets.topo fig2_rt
      Engine.Store_and_forward "saf" ~seeds:4
  @ discipline_family "mesh4x4" 4 mesh4.Builders.topo mesh4_rt
      Engine.Virtual_cut_through "vct" ~seeds:4
  @ discipline_family "mesh4x4" 4 mesh4.Builders.topo mesh4_rt
      Engine.Store_and_forward "saf" ~seeds:4
  @ discipline_family "torus4x4" 5 torus4.Builders.topo torus4_rt
      Engine.Virtual_cut_through "vct" ~seeds:4
  @ discipline_family "torus4x4" 5 torus4.Builders.topo torus4_rt
      Engine.Store_and_forward "saf" ~seeds:4

(* ---- pins: load, compare, regenerate ---- *)

let pins_path = "golden/kernel-pins.txt"

let compute_pins () = List.map (fun c -> (c.id, c.fp ())) cases

let load_pins () =
  let ic = open_in pins_path in
  let tbl = Hashtbl.create 64 in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line ' ' with
       | Some i ->
         Hashtbl.replace tbl (String.sub line 0 i)
           (String.sub line (i + 1) (String.length line - i - 1))
       | None -> ()
     done
   with End_of_file -> close_in ic);
  tbl

let () =
  match Sys.getenv_opt "WORMHOLE_KERNEL_PIN_REGEN" with
  | Some path when path <> "" && path <> "0" ->
    let oc = open_out path in
    List.iter (fun (id, fp) -> Printf.fprintf oc "%s %s\n" id fp) (compute_pins ());
    close_out oc;
    Printf.printf "kernel pins written to %s (%d cases)\n" path (List.length cases);
    exit 0
  | Some _ | None -> ()

let test_pins_match () =
  let pins = load_pins () in
  List.iter
    (fun c ->
      match Hashtbl.find_opt pins c.id with
      | None ->
        Alcotest.failf "case %s has no pin; regenerate test/golden/kernel-pins.txt" c.id
      | Some expected -> check Alcotest.string c.id expected (c.fp ()))
    cases;
  (* and no stale pins for cases that no longer exist *)
  let ids = List.map (fun c -> c.id) cases in
  Hashtbl.iter
    (fun id _ ->
      if not (List.mem id ids) then
        Alcotest.failf "stale pin %s; regenerate test/golden/kernel-pins.txt" id)
    pins

(* the same equivalence as a sampled qcheck property: any case drawn from
   the matrix reproduces its pinned verdict (catches order-of-evaluation
   drift that a fixed iteration order might mask, and keeps the pins under
   the property-test umbrella that gets run with larger counts) *)
let prop_pins =
  let pins = lazy (load_pins ()) in
  QCheck.Test.make ~name:"sampled case matches pinned verdict" ~count:25
    QCheck.(int_bound (List.length cases - 1))
    (fun i ->
      let c = List.nth cases i in
      match Hashtbl.find_opt (Lazy.force pins) c.id with
      | None -> QCheck.Test.fail_reportf "case %s has no pin" c.id
      | Some expected ->
        let got = c.fp () in
        if got <> expected then
          QCheck.Test.fail_reportf "case %s diverged from pin:\n  pin %s\n  got %s" c.id
            expected got
        else true)

(* ---- steady-cycle allocation bound ---- *)

(* Long worms down a 4-node line: thousands of cycles of request, award,
   hop, cascade and release, with a once-only setup.  The bound (in minor
   words, <1.5 words/cycle amortized) only passes when the steady cycle
   itself allocates nothing; the record-based kernel's per-cycle closures
   alone cost an order of magnitude more.  WORMHOLE_SANITIZE installs a
   process-wide sanitizer whose per-cycle sweep allocates by design, so the
   bound is not meaningful under it. *)
let sanitize_on =
  match Sys.getenv_opt "WORMHOLE_SANITIZE" with
  | Some v when v <> "0" -> true
  | Some _ | None -> false

let line4 = Builders.line 4
let line4_rt = Dimension_order.mesh line4

let long_sched () =
  let a = 0 and d = 3 in
  [
    Schedule.message ~length:8000 "w1" a d;
    Schedule.message ~length:8000 "w2" a d;
  ]

let alloc_per_run run =
  (* one warm-up run (fills any per-state memo tables), then measure *)
  ignore (run (long_sched ()));
  let before = Gc.minor_words () in
  let outcome = run (long_sched ()) in
  let delta = Gc.minor_words () -. before in
  (match outcome with
  | Engine.All_delivered _ -> ()
  | o -> Alcotest.failf "expected all-delivered, got %s" (Engine.outcome_string o));
  delta

let test_steady_cycle_allocation_oblivious () =
  if sanitize_on then ()
  else begin
    let words = alloc_per_run (Engine.run line4_rt) in
    if words > 25_000.0 then
      Alcotest.failf "oblivious steady cycle allocates: %.0f minor words per ~16k-cycle run"
        words
  end

let test_steady_cycle_allocation_adaptive () =
  if sanitize_on then ()
  else begin
    let ad = Adaptive.of_oblivious line4_rt in
    let words = alloc_per_run (Engine.run_adaptive ad) in
    if words > 25_000.0 then
      Alcotest.failf "adaptive steady cycle allocates: %.0f minor words per ~16k-cycle run"
        words
  end

(* Online detection reads the kernel's own wait tables, so a Detect run
   with no sink attached must be as allocation-free as a plain one.  The
   backstop is out of reach: the second worm waits ~8000 cycles behind the
   first, which is no knot and must not be aborted either. *)
let test_steady_cycle_allocation_detect () =
  if sanitize_on then ()
  else begin
    let config = detect_config { Obs_detect.default_config with Obs_detect.backstop = 1_000_000 } in
    List.iter
      (fun (mode, run) ->
        let words = alloc_per_run run in
        if words > 25_000.0 then
          Alcotest.failf "%s detect steady cycle allocates: %.0f minor words per ~16k-cycle run"
            mode words)
      [
        ("oblivious", Engine.run ~config line4_rt);
        ("adaptive", Engine.run_adaptive ~config (Adaptive.of_oblivious line4_rt));
      ]
  end

let () =
  Alcotest.run "kernel"
    [
      ( "equivalence",
        [
          Alcotest.test_case "all pinned verdicts reproduced" `Quick test_pins_match;
          QCheck_alcotest.to_alcotest prop_pins;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "oblivious steady cycle allocation bound" `Quick
            test_steady_cycle_allocation_oblivious;
          Alcotest.test_case "adaptive steady cycle allocation bound" `Quick
            test_steady_cycle_allocation_adaptive;
          Alcotest.test_case "detect steady cycle allocation bound (no sink)" `Quick
            test_steady_cycle_allocation_detect;
        ] );
    ]
