type row = {
  x_id : string;
  x_claim : string;
  x_measured : string;
  x_ok : bool;
}

let row id claim measured ok = { x_id = id; x_claim = claim; x_measured = measured; x_ok = ok }

let header ppf title = Format.fprintf ppf "@\n=== %s ===@\n" title

(* Search space for a paper network's designated messages. *)
let net_space ?(quick = false) net =
  let extra = if quick then [ -2; -1; 0 ] else [ -2; -1; 0; 1 ] in
  let templates =
    List.map (fun i -> Explorer.intent_template ~extra net i) net.Paper_nets.intents
  in
  let base = Explorer.default_space templates in
  if quick then { base with buffers = [ 1 ] } else base

let search_net ?quick net rt = Explorer.explore rt (net_space ?quick net)

let describe_search topo ppf v =
  Format.fprintf ppf "search: %a@\n" (Explorer.pp_verdict topo) v

(* ---- Figure 1 / Theorem 1 ---- *)

let exp_f1 ?(quick = false) ppf =
  header ppf "EXP-F1: Figure 1 / Theorem 1 (Cyclic Dependency algorithm)";
  let net = Paper_nets.figure1 () in
  let rt = Cd_algorithm.of_net net in
  let cdg = Cdg.build rt in
  let cycles = Cdg.elementary_cycles cdg in
  Format.fprintf ppf "network: %d nodes, %d channels; routing table valid: %b@\n"
    (Topology.num_nodes net.topo) (Topology.num_channels net.topo)
    (Routing.validate rt = Ok ());
  Format.fprintf ppf "CDG: %d dependencies, acyclic=%b, %d elementary cycle(s)@\n"
    (Cdg.num_edges cdg) (Cdg.is_acyclic cdg) (List.length cycles);
  List.iter (fun c -> Format.fprintf ppf "  cycle: %a@\n" (Cdg.pp_cycle cdg) c) cycles;
  let props = Properties.summary rt in
  List.iter
    (fun (n, v) -> Format.fprintf ppf "  property %s: %a@\n" n Properties.pp_verdict v)
    props;
  let v = search_net ~quick net rt in
  describe_search net.topo ppf v;
  let one_cycle_of_8 =
    match cycles with [ c ] -> List.length c = 8 | _ -> false
  in
  let not_suffix =
    match List.assoc_opt "suffix-closed" props with
    | Some (Properties.Fails _) -> true
    | _ -> false
  in
  [
    row "F1/cdg" "CDG has a cycle (exactly the 8-channel ring)"
      (Printf.sprintf "%d cycle(s), len %s" (List.length cycles)
         (String.concat "," (List.map (fun c -> string_of_int (List.length c)) cycles)))
      one_cycle_of_8;
    row "F1/suffix" "CD algorithm is not suffix-closed (escapes Corollary 2)"
      (if not_suffix then "not suffix-closed" else "suffix-closed") not_suffix;
    row "F1/deadlock-free" "no reachable deadlock (Theorem 1)"
      (match v with
      | Explorer.No_deadlock { runs } -> Printf.sprintf "no deadlock in %d runs" runs
      | Explorer.Deadlock_found { runs; _ } -> Printf.sprintf "DEADLOCK after %d runs" runs)
      (not (Explorer.is_deadlock_found v));
  ]

(* ---- Theorem 2 / Corollary 1 ---- *)

let exp_t2 ?(quick = false) ppf =
  ignore quick;
  header ppf "EXP-T2: Theorem 2 (shared channels within the cycle)";
  let coords = Builders.ring ~unidirectional:true 4 in
  let rt = Ring_routing.clockwise coords in
  let cdg = Cdg.build rt in
  let cycles = Cdg.elementary_cycles cdg in
  let classified =
    List.map (fun c -> Cycle_analysis.classify cdg c) cycles
  in
  List.iteri
    (fun i (_, v) ->
      Format.fprintf ppf "cycle %d: %a@\n" i Cycle_analysis.pp_verdict v)
    classified;
  let all_reachable =
    classified <> []
    && List.for_all
         (fun (_, v) ->
           match v with Cycle_analysis.Deadlock_reachable _ -> true | _ -> false)
         classified
  in
  let sched =
    List.init 4 (fun i -> Schedule.message ~length:3 (Printf.sprintf "m%d" i) i ((i + 2) mod 4))
  in
  let out = Engine.run rt sched in
  Format.fprintf ppf "%a@\n" (Engine.pp_outcome (Routing.topology rt)) out;
  [
    row "T2/classify" "cycles with all shared channels inside are reachable (Theorem 2)"
      (if all_reachable then "all cycles classified reachable" else "unexpected verdict")
      all_reachable;
    row "T2/witness" "simultaneous ring traffic deadlocks"
      (if Engine.is_deadlock out then "deadlock witness at length 3" else "no deadlock")
      (Engine.is_deadlock out);
  ]

(* ---- Corollaries 1-3 over the algorithm suite ---- *)

let exp_corollaries ?(quick = false) ppf =
  header ppf "EXP-C123: Corollaries 1-3 (property checkers and verdicts)";
  let algorithms =
    ("cd-figure1", Cd_algorithm.of_net (Paper_nets.figure1 ())) :: Registry.suite ()
  in
  let table =
    Table.create
      [ "algorithm"; "minimal"; "suffix-closed"; "coherent"; "CDG"; "conclusion" ]
  in
  let rows =
    List.map
      (fun (name, rt) ->
        let report = Verify.analyze ~quick rt in
        let get p =
          match List.assoc_opt p report.Verify.properties with
          | Some v -> if Properties.is_holds v then "yes" else "no"
          | None -> "?"
        in
        let concl =
          match report.Verify.conclusion with
          | Verify.Deadlock_free _ -> "deadlock-free"
          | Verify.Deadlocks _ -> "deadlocks"
          | Verify.Unknown _ -> "unknown"
        in
        Table.add_row table
          [
            name;
            get "minimal";
            get "suffix-closed";
            get "coherent";
            (if report.Verify.acyclic then "acyclic"
             else Printf.sprintf "%d cycles" (List.length report.Verify.cycles));
            concl;
          ];
        (name, report))
      algorithms
  in
  Format.fprintf ppf "%s" (Table.render table);
  (* Corollary check: every suffix-closed algorithm's cycles (if any) are
     classified reachable, never Unreachable. *)
  let corollary_ok =
    List.for_all
      (fun (_, r) ->
        let suffix =
          match List.assoc_opt "suffix-closed" r.Verify.properties with
          | Some v -> Properties.is_holds v
          | None -> false
        in
        (not suffix)
        || List.for_all
             (fun cr ->
               match cr.Verify.cr_verdict with
               | Cycle_analysis.Unreachable _ -> false
               | _ -> true)
             r.Verify.cycles)
      rows
  in
  let cd_free =
    match List.assoc_opt "cd-figure1" (List.map (fun (n, r) -> (n, r.Verify.conclusion)) rows) with
    | Some (Verify.Deadlock_free _) -> true
    | _ -> false
  in
  [
    row "C2/suffix-closed" "no suffix-closed algorithm has an unreachable cycle (Corollary 2)"
      (if corollary_ok then "holds across the suite" else "violated") corollary_ok;
    row "C/cd-exception"
      "the non-suffix-closed CD algorithm is deadlock-free despite its cycle"
      (if cd_free then "verified deadlock-free" else "not verified")
      cd_free;
  ]

(* ---- Theorem 3 ---- *)

let exp_t3 ?(quick = false) ppf =
  ignore quick;
  header ppf "EXP-T3: Theorem 3 (minimal oblivious routing)";
  let net = Paper_nets.figure1 () in
  let rt = Cd_algorithm.of_net net in
  let cd_minimal = Properties.is_holds (Properties.minimal rt) in
  Format.fprintf ppf "CD algorithm minimal: %b (Theorem 3 forces nonminimality)@\n" cd_minimal;
  (* Minimal members of the suite: their cycles must all be reachable. *)
  let minimal_ok =
    List.for_all
      (fun (name, rt) ->
        let minimal = Properties.is_holds (Properties.minimal rt) in
        if not minimal then true
        else begin
          let cdg = Cdg.build rt in
          let cycles = Cdg.elementary_cycles cdg in
          let ok =
            List.for_all
              (fun c ->
                match snd (Cycle_analysis.classify ~minimal:true cdg c) with
                | Cycle_analysis.Unreachable _ -> false
                | _ -> true)
              cycles
          in
          Format.fprintf ppf "%s: minimal, %d cycle(s), all reachable: %b@\n" name
            (List.length cycles) ok;
          ok
        end)
      (Registry.suite ())
  in
  [
    row "T3/cd-nonminimal" "the CD example cannot be minimal"
      (if cd_minimal then "minimal (!)" else "nonminimal") (not cd_minimal);
    row "T3/minimal-suite" "minimal algorithms have no unreachable cycles"
      (if minimal_ok then "holds across the suite" else "violated") minimal_ok;
  ]

(* ---- Figure 2 / Theorem 4 ---- *)

let exp_t4 ?(quick = false) ppf =
  header ppf "EXP-T4: Figure 2 / Theorem 4 (two sharers outside the cycle)";
  let net = Paper_nets.figure2 () in
  let rt = Cd_algorithm.of_net net in
  let cdg = Cdg.build rt in
  let classified =
    List.map (fun c -> snd (Cycle_analysis.classify cdg c)) (Cdg.elementary_cycles cdg)
  in
  let thm4 =
    List.exists
      (function
        | Cycle_analysis.Deadlock_reachable why ->
          String.length why >= 9 && String.sub why 0 9 = "Theorem 4"
        | _ -> false)
      classified
  in
  List.iter (fun v -> Format.fprintf ppf "classifier: %a@\n" Cycle_analysis.pp_verdict v) classified;
  let v = search_net ~quick net rt in
  describe_search net.topo ppf v;
  [
    row "T4/classify" "classifier applies Theorem 4 (exactly two sharers)"
      (if thm4 then "Theorem 4 fired" else "did not fire") thm4;
    row "T4/deadlock" "the Figure-2 cycle forms a reachable deadlock"
      (match v with
      | Explorer.Deadlock_found { runs; _ } -> Printf.sprintf "witness after %d runs" runs
      | Explorer.No_deadlock { runs } -> Printf.sprintf "no deadlock in %d runs" runs)
      (Explorer.is_deadlock_found v);
  ]

(* ---- Figure 3 / Theorem 5 ---- *)

let exp_t5 ?(quick = false) ppf =
  header ppf "EXP-T5: Figure 3 / Theorem 5 (three sharers: the eight conditions)";
  (* the Figure-3 rows of the catalogue, named by their sub-figure letter *)
  let cases =
    let prefix = "figure3" in
    let k = String.length prefix in
    List.filter_map
      (fun (f : Paper_nets.figure) ->
        let name = Paper_nets.name f.f_net in
        if String.starts_with ~prefix name then
          Some (f.f_net, String.sub name k (String.length name - k), f.f_deadlock)
        else None)
      (Paper_nets.figures ())
  in
  let table =
    Table.create [ "case"; "paper"; "checker"; "search"; "agrees" ]
  in
  let rows =
    List.map
      (fun (net, name, paper_deadlock) ->
        let rt = Cd_algorithm.of_net net in
        let cdg = Cdg.build rt in
        let checker =
          match Cdg.elementary_cycles cdg with
          | [ cycle ] -> (
            match snd (Cycle_analysis.classify cdg cycle) with
            | Cycle_analysis.Unreachable _ -> Some false
            | Cycle_analysis.Deadlock_reachable _ -> Some true
            | Cycle_analysis.Needs_search _ -> None)
          | _ -> None
        in
        let v = search_net ~quick net rt in
        let search_deadlock = Explorer.is_deadlock_found v in
        let ok =
          search_deadlock = paper_deadlock
          && match checker with Some c -> c = paper_deadlock | None -> false
        in
        Table.add_row table
          [
            name;
            (if paper_deadlock then "deadlock" else "false cycle");
            (match checker with
            | Some true -> "deadlock"
            | Some false -> "false cycle"
            | None -> "undecided");
            (if search_deadlock then "deadlock" else "no deadlock");
            (if ok then "yes" else "NO");
          ];
        row (Printf.sprintf "T5/%s" name)
          (if paper_deadlock then "deadlock reachable" else "unreachable (false resource cycle)")
          (Printf.sprintf "checker=%s search=%s"
             (match checker with
             | Some true -> "deadlock"
             | Some false -> "false-cycle"
             | None -> "undecided")
             (if search_deadlock then "deadlock" else "safe"))
          ok)
      cases
  in
  Format.fprintf ppf "%s" (Table.render table);
  rows

(* ---- Section 6 ---- *)

let exp_g ?(quick = false) ?max_p ppf =
  header ppf "EXP-G: Section 6 (delay tolerance of the generalized family)";
  let max_p = match max_p with Some p -> p | None -> if quick then 2 else 3 in
  let table = Table.create [ "p"; "ring"; "safe w/o delay"; "min deadlock delay" ] in
  let results =
    List.map
      (fun p ->
        let net = Paper_nets.family p in
        let max_h = if quick then 4 + (2 * p) else 6 + (3 * p) in
        let r = Min_delay.search ~max_h net in
        Table.add_row table
          [
            string_of_int p;
            string_of_int (Array.length net.ring_channels);
            string_of_bool r.Min_delay.md_no_delay_safe;
            (match r.md_min_delay with
            | Some h -> string_of_int h
            | None -> Printf.sprintf ">%d" max_h);
          ];
        (p, r))
      (List.init (max 0 max_p) (fun i -> i + 1))
  in
  Format.fprintf ppf "%s" (Table.render table);
  (* a claim needs data: one measured member for safety, two for growth *)
  let all_safe =
    results <> [] && List.for_all (fun (_, r) -> r.Min_delay.md_no_delay_safe) results
  in
  let delays =
    List.map (fun (_, r) -> match r.Min_delay.md_min_delay with Some h -> h | None -> max_int)
      results
  in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  let growing = List.length delays >= 2 && strictly_increasing delays in
  [
    row "G/safe" "every family member is deadlock-free without adversarial delay"
      (if all_safe then "safe for all p tested" else "deadlocked without delay") all_safe;
    row "G/growth" "required adversarial delay grows with p (unbounded tolerance)"
      (Printf.sprintf "min delays: %s"
         (String.concat ","
            (List.map (fun d -> if d = max_int then ">max" else string_of_int d) delays)))
      growing;
  ]

(* ---- Substrate experiments (extensions) ---- *)

let exp_s1 ?(quick = false) ppf =
  ignore quick;
  header ppf "EXP-S1: substrate validation (torus/mesh deadlock behaviour)";
  let t1 = Builders.torus [ 5; 5 ] in
  let t2 = Builders.torus ~vcs:2 [ 5; 5 ] in
  let mesh = Builders.mesh [ 5; 5 ] in
  (* independent single runs: fan out on the pool, print in order *)
  let cases =
    [ ("torus-novc ", Dimension_order.torus t1, t1);
      ("torus-vc2  ", Dimension_order.torus ~datelines:true t2, t2);
      ("mesh-xy    ", Dimension_order.mesh mesh, mesh) ]
  in
  let reps =
    Wr_pool.map
      (fun (_, rt, coords) ->
        let pattern = Traffic.tornado coords in
        let sched = Traffic.permutation_schedule pattern ~coords ~length:8 in
        Measure.run rt sched)
      cases
  in
  List.iter2
    (fun (name, _, _) rep -> Format.fprintf ppf "%s: %a@\n" name Measure.pp rep)
    cases reps;
  let novc, dateline, meshrep =
    match reps with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  [
    row "S1/torus-novc" "torus e-cube without VCs deadlocks under tornado permutation"
      (if novc.Measure.deadlocked then "deadlock" else "delivered") novc.Measure.deadlocked;
    row "S1/torus-dateline" "dateline VCs restore deadlock freedom"
      (if dateline.Measure.deadlocked then "deadlock" else "all delivered")
      (not dateline.Measure.deadlocked);
    row "S1/mesh" "mesh XY routing never deadlocks"
      (if meshrep.Measure.deadlocked then "deadlock" else "all delivered")
      (not meshrep.Measure.deadlocked);
  ]

let exp_s2 ?(quick = false) ppf =
  header ppf "EXP-S2: substrate performance (8x8 mesh XY, latency vs offered load)";
  let coords = Builders.mesh [ 8; 8 ] in
  let rt = Dimension_order.mesh coords in
  let horizon = if quick then 300 else 1000 in
  let rates = if quick then [ 0.01; 0.03 ] else [ 0.005; 0.01; 0.02; 0.03; 0.05 ] in
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "pattern"; "rate"; "avg lat"; "p95 lat"; "thr (f/c)" ]
  in
  (* every (pattern, rate) run is independent and seeds its own Rng: fan
     out on the pool, then fold sequentially so the monotonicity check and
     the table keep their original order *)
  let jobs =
    List.concat_map
      (fun (pname, mk) -> List.map (fun rate -> (pname, mk, rate)) rates)
      [
        ("uniform", fun rng -> Traffic.uniform rng coords);
        ("transpose", fun _ -> Traffic.transpose coords);
      ]
  in
  let reps =
    Wr_pool.map
      (fun (_, mk, rate) ->
        let rng = Rng.create 42 in
        let pattern = mk rng in
        let sched = Traffic.bernoulli_schedule rng pattern ~coords ~rate ~length:4 ~horizon in
        Measure.run rt sched)
      jobs
  in
  let monotone = ref true in
  let prev = ref 0.0 in
  let last_pattern = ref "" in
  List.iter2
    (fun (pname, _, rate) rep ->
      if pname <> !last_pattern then begin
        last_pattern := pname;
        prev := 0.0
      end;
      if rep.Measure.avg_latency < !prev -. 2.0 then monotone := false;
      prev := rep.Measure.avg_latency;
      Table.add_row table
        [
          pname;
          Printf.sprintf "%.3f" rate;
          Printf.sprintf "%.1f" rep.Measure.avg_latency;
          Printf.sprintf "%.1f" rep.Measure.p95_latency;
          Printf.sprintf "%.3f" rep.Measure.throughput;
        ])
    jobs reps;
  Format.fprintf ppf "%s" (Table.render table);
  [
    row "S2/latency-load" "latency grows (weakly) with offered load"
      (if !monotone then "monotone within tolerance" else "non-monotone") !monotone;
  ]

(* ---- Message flow model (Section-2 discussion) ---- *)

let exp_mfm ?(quick = false) ppf =
  ignore quick;
  header ppf "EXP-MFM: the message flow model on unreachable cycles";
  let rows = ref [] in
  (* sound direction: complete on the acyclic suite *)
  let proves =
    List.for_all
      (fun (name, rt) ->
        let r = Message_flow.analyze rt in
        let cdg_acyclic = Cdg.is_acyclic (Cdg.build rt) in
        Format.fprintf ppf "%s: %a@
" name (Message_flow.pp (Routing.topology rt)) r;
        (not cdg_acyclic) || Message_flow.proves_deadlock_free r)
      (Registry.suite ())
  in
  rows :=
    row "MFM/acyclic-suite" "deadlock-immunity fixpoint proves the acyclic algorithms"
      (if proves then "all proven" else "some acyclic algorithm not proven") proves
    :: !rows;
  (* the paper's observation: the technique gets stuck on Figure 1 *)
  let net = Paper_nets.figure1 () in
  let rt = Cd_algorithm.of_net net in
  let r = Message_flow.analyze rt in
  Format.fprintf ppf "cd-figure1: %a@
" (Message_flow.pp net.topo) r;
  let ring_stuck =
    Array.for_all (fun c -> List.mem c r.Message_flow.stuck) net.ring_channels
  in
  let incomplete = ring_stuck && not (Message_flow.proves_deadlock_free r) in
  rows :=
    row "MFM/figure1-stuck"
      "on Figure 1 the fixpoint never marks the ring channels immune (Section 2: 'no \
       starting point'), although the algorithm is deadlock-free"
      (Printf.sprintf "%d channels stuck, including all %d ring channels"
         (List.length r.Message_flow.stuck)
         (Array.length net.ring_channels))
      incomplete
    :: !rows;
  List.rev !rows

(* ---- State-space model checking ---- *)

let exp_mc ?(quick = false) ppf =
  header ppf "EXP-MC: exhaustive state-space verification (all timings, all arbitrations)";
  let table = Table.create [ "network"; "paper"; "model checker"; "states"; "agrees" ] in
  let extra = if quick then [ -2; -1; 0 ] else [ -2; -1; 0; 1 ] in
  let rows =
    List.map
      (fun { Paper_nets.f_net = net; f_deadlock = paper_deadlock } ->
        let name = Paper_nets.name net in
        let v = Model_checker.check_net ~extra net in
        let found, states =
          match v with
          | Model_checker.Deadlock { states; _ } -> (true, states)
          | Model_checker.Safe { states } -> (false, states)
          | Model_checker.Out_of_budget { states } -> (paper_deadlock, states)
        in
        let ok = found = paper_deadlock in
        Table.add_row table
          [ name;
            (if paper_deadlock then "deadlock" else "safe");
            (if found then "deadlock" else "safe");
            string_of_int states;
            (if ok then "yes" else "NO") ];
        row ("MC/" ^ name)
          (if paper_deadlock then "deadlock reachable" else "unreachable for all timings")
          (Format.asprintf "%a" Model_checker.pp v)
          ok)
      (Paper_nets.figures ())
  in
  Format.fprintf ppf "%s" (Table.render table);
  (* Section-6 consistency: with the unbounded-delay adversary Figure 1
     DOES deadlock (the paper: delaying M1/M3 one or more cycles suffices) *)
  let v_stall = Model_checker.check_net ~allow_stalls:true ~extra (Paper_nets.figure1 ()) in
  Format.fprintf ppf "figure1 under the unbounded-delay adversary: %a@\n" Model_checker.pp
    v_stall;
  let stall_row =
    row "MC/figure1-stalls"
      "with unbounded in-network delay Figure 1 deadlocks (Section 6)"
      (Format.asprintf "%a" Model_checker.pp v_stall)
      (match v_stall with Model_checker.Deadlock _ -> true | _ -> false)
  in
  rows @ [ stall_row ]

(* ---- Switching-technique continuum (Section-1 discussion) ---- *)

let exp_sw ?(quick = false) ppf =
  header ppf "EXP-SW: wormhole vs buffered wormhole vs virtual cut-through vs SAF";
  (* latency of one message over a 3-hop line under each discipline *)
  let t = Topology.create () in
  let a = Topology.add_node t "a" in
  let b = Topology.add_node t "b" in
  let c = Topology.add_node t "c" in
  let d = Topology.add_node t "d" in
  let ab = Topology.add_channel t a b in
  let bc = Topology.add_channel t b c in
  let cd = Topology.add_channel t c d in
  let line =
    Routing.create ~name:"line" t (fun input _ ->
        match input with
        | Routing.Inject n -> if n = a then Some ab else None
        | Routing.From ch -> if ch = ab then Some bc else if ch = bc then Some cd else None)
  in
  let finish config =
    match Engine.run ~config line [ Schedule.message ~length:4 "m" a d ] with
    | Engine.All_delivered { finished_at; _ } -> finished_at
    | _ -> max_int
  in
  let wh = finish Engine.default_config in
  let vct = finish { Engine.default_config with buffer_capacity = 4 } in
  let saf =
    finish
      { Engine.default_config with buffer_capacity = 4; discipline = Engine.Store_and_forward }
  in
  Format.fprintf ppf "3-hop line, 4 flits: wormhole %d, cut-through %d, store-and-forward %d@\n"
    wh vct saf;
  (* a cyclic-CDG substrate deadlocks under every discipline *)
  let r = Builders.ring ~unidirectional:true 4 in
  let rr = Ring_routing.clockwise r in
  let sched =
    List.init 4 (fun i -> Schedule.message ~length:3 (Printf.sprintf "m%d" i) i ((i + 2) mod 4))
  in
  let vct_ring =
    Engine.is_deadlock (Engine.run ~config:{ Engine.default_config with buffer_capacity = 8 } rr sched)
  in
  Format.fprintf ppf "ring-4 under cut-through buffers: %s@\n"
    (if vct_ring then "deadlock (buffer cycle)" else "delivered");
  (* the Figure-1 false resource cycle survives the switch to cut-through *)
  let net = Paper_nets.figure1 () in
  let rt = Cd_algorithm.of_net net in
  let extra = if quick then [ -2; -1; 0 ] else [ -2; -1; 0; 1 ] in
  let templates = List.map (fun i -> Explorer.intent_template ~extra net i) net.intents in
  let sp =
    { (Explorer.default_space templates) with
      buffers = [ 8 ];
      priorities = (if quick then Explorer.Follow_order else Explorer.All_permutations) }
  in
  let v = Explorer.explore rt sp in
  describe_search net.topo ppf v;
  [
    row "SW/latency-order" "wormhole = cut-through < store-and-forward latency"
      (Printf.sprintf "%d = %d < %d" wh vct saf)
      (wh = vct && vct < saf);
    row "SW/vct-ring" "cut-through buffering does not rescue a cyclic-CDG substrate"
      (if vct_ring then "still deadlocks" else "delivered") vct_ring;
    row "SW/fig1-vct"
      "the Figure-1 cycle remains unreachable under virtual cut-through (the \
       unreachable-configuration theory generalizes beyond wormhole)"
      (match v with
      | Explorer.No_deadlock { runs } -> Printf.sprintf "no deadlock in %d runs" runs
      | Explorer.Deadlock_found { runs; _ } -> Printf.sprintf "DEADLOCK after %d runs" runs)
      (not (Explorer.is_deadlock_found v));
  ]

(* ---- EXP-SW1: the switching-discipline matrix ---- *)

let exp_sw1 ?(quick = false) ppf =
  header ppf "EXP-SW1: discipline matrix (wormhole / cut-through / SAF, deadlock taxonomy)";
  (* every run below pins its own [config.discipline]; the process-wide
     --discipline override (meant for whole-campaign sweeps) would collapse
     the matrix to one column, so it is suspended for the duration *)
  let saved = Engine.discipline_override () in
  Engine.set_discipline_override None;
  Fun.protect ~finally:(fun () -> Engine.set_discipline_override saved) @@ fun () ->
  let disciplines =
    [ Engine.Wormhole; Engine.Virtual_cut_through; Engine.Store_and_forward ]
  in
  let show = function
    | Engine.All_delivered { finished_at; _ } ->
      Printf.sprintf "all delivered by cycle %d" finished_at
    | Engine.Deadlock d ->
      Printf.sprintf "deadlock (%s) at cycle %d"
        (Engine.deadlock_class_string d.Engine.d_class)
        d.Engine.d_cycle
    | Engine.Cutoff { at; _ } -> Printf.sprintf "cutoff at cycle %d" at
    | Engine.Recovered { finished_at; _ } -> Printf.sprintf "recovered by cycle %d" finished_at
  in
  let delivered = function Engine.All_delivered _ -> true | _ -> false in
  let classed k = function
    | Engine.Deadlock d -> d.Engine.d_class = k
    | _ -> false
  in
  (* one matrix row: run the workload under all three disciplines (the runs
     are independent, so fan out on the pool), print one line each.  SAF
     refuses capacity below the longest message, so every discipline gets
     the process-wide override's provisioning ({!Engine.provision}) *)
  let sweep name ?(config = Engine.default_config) rt sched =
    let outs =
      Wr_pool.map (fun d -> Engine.run ~config:(Engine.provision d sched config) rt sched)
        disciplines
    in
    List.iter2
      (fun d o ->
        Format.fprintf ppf "%-14s %-19s %s@\n" name (Engine.discipline_string d) (show o))
      disciplines outs;
    match outs with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  let matrix3 a b c = Printf.sprintf "wh %s / vct %s / saf %s" (show a) (show b) (show c) in
  (* -- the Figure-2 witness (Theorem 4: a real deadlock through a false
     resource cycle's shared channel) replayed under each discipline -- *)
  let net2 = Paper_nets.figure2 () in
  let rt2 = Cd_algorithm.of_net net2 in
  let w2 =
    match search_net ~quick:true net2 rt2 with
    | Explorer.Deadlock_found { witness; _ } -> witness
    | Explorer.No_deadlock _ -> failwith "EXP-SW1: figure-2 witness sweep found no deadlock"
  in
  let fig2_wh, fig2_vct, fig2_saf =
    sweep "fig2-witness" ~config:w2.Explorer.w_config rt2 w2.Explorer.w_schedule
  in
  (* -- a true channel cycle: the unidirectional ring under tornado -- *)
  let ring = Builders.ring ~unidirectional:true 4 in
  let ring_rt = Ring_routing.clockwise ring in
  let tornado_sched =
    List.init 4 (fun i -> Schedule.message ~length:3 (Printf.sprintf "t%d" i) i ((i + 2) mod 4))
  in
  let ring_wh, ring_vct, ring_saf = sweep "ring-tornado" ring_rt tornado_sched in
  (* -- local deadlock: an early 1-hop message drains before the tornado
     messages (injected at cycle 4) close the knot -- *)
  let local_sched =
    Schedule.message ~length:1 "early" 0 1
    :: List.init 4 (fun i ->
           Schedule.message ~length:3 ~at:4 (Printf.sprintf "t%d" i) i ((i + 2) mod 4))
  in
  let local_wh, local_vct, local_saf = sweep "ring-local" ring_rt local_sched in
  (* -- weak deadlock: a permanently failed channel parks a lone worm with
     no wait cycle at all (recovery off, so it is reported as Deadlock) -- *)
  let lt = Topology.create () in
  let la = Topology.add_node lt "a" in
  let lb = Topology.add_node lt "b" in
  let lc = Topology.add_node lt "c" in
  let lab = Topology.add_channel lt la lb in
  let lbc = Topology.add_channel lt lb lc in
  let line_rt =
    Routing.create ~name:"line3" lt (fun input _ ->
        match input with
        | Routing.Inject n -> if n = la then Some lab else None
        | Routing.From ch -> if ch = lab then Some lbc else None)
  in
  let weak_faults = Fault.make [ Fault.Link_failure { channel = lbc; at = 0 } ] in
  let weak_sched = [ Schedule.message ~length:2 "w" la lc ] in
  let weak_wh, weak_vct, weak_saf =
    sweep "line-fault"
      ~config:{ Engine.default_config with faults = weak_faults }
      line_rt weak_sched
  in
  (* -- classic substrates: acyclic CDGs deliver everywhere, the torus
     wrap-around cycle deadlocks everywhere -- *)
  let mesh = Builders.mesh [ 4; 4 ] in
  let mesh_sched =
    Traffic.permutation_schedule (Traffic.transpose mesh) ~coords:mesh ~length:4
  in
  let mesh_wh, mesh_vct, mesh_saf =
    sweep "mesh-transpose" (Dimension_order.mesh mesh) mesh_sched
  in
  let torus = Builders.torus [ 5; 5 ] in
  let torus_sched =
    Traffic.permutation_schedule (Traffic.tornado torus) ~coords:torus ~length:8
  in
  let torus_wh, torus_vct, torus_saf =
    sweep "torus-tornado" (Dimension_order.torus torus) torus_sched
  in
  let cube = Builders.hypercube 3 in
  let cube_sched =
    Traffic.permutation_schedule (Traffic.bit_complement cube) ~coords:cube ~length:4
  in
  let cube_wh, cube_vct, cube_saf =
    sweep "hypercube-bc" (Dimension_order.hypercube cube) cube_sched
  in
  (* -- the Figure-1 false resource cycle: its designated messages deliver
     under every discipline (quick check; exp-sw sweeps the adversarial
     space under cut-through provisioning) -- *)
  let net1 = Paper_nets.figure1 () in
  let rt1 = Cd_algorithm.of_net net1 in
  let fig1_wh, fig1_vct, fig1_saf =
    sweep "fig1-intents" rt1 (Schedule.of_intents ~length:4 net1)
  in
  ignore quick;
  [
    row "SW1/fig2-wormhole" "the Figure-2 witness deadlocks under wormhole (Theorem 4)"
      (show fig2_wh)
      (classed Engine.Global fig2_wh);
    row "SW1/fig2-vct"
      "whole-packet buffers defuse the Figure-2 witness: the deadlock needs a worm \
       stretched across the shared channel (verdict FLIPS)"
      (show fig2_vct) (delivered fig2_vct);
    row "SW1/fig2-saf"
      "store-and-forward also defuses the Figure-2 witness (verdict FLIPS)"
      (show fig2_saf) (delivered fig2_saf);
    row "SW1/ring-tornado"
      "a true channel cycle (Theorem 2) deadlocks globally under every discipline \
       (verdict HOLDS)"
      (matrix3 ring_wh ring_vct ring_saf)
      (classed Engine.Global ring_wh && classed Engine.Global ring_vct
      && classed Engine.Global ring_saf);
    row "SW1/ring-local"
      "an early drained message turns the same wedge into a local deadlock under \
       every discipline"
      (matrix3 local_wh local_vct local_saf)
      (classed Engine.Local local_wh && classed Engine.Local local_vct
      && classed Engine.Local local_saf);
    row "SW1/line-weak"
      "a fault-parked worm is a weak deadlock (no wait cycle: a drain order exists) \
       under every discipline"
      (matrix3 weak_wh weak_vct weak_saf)
      (classed Engine.Weak weak_wh && classed Engine.Weak weak_vct
      && classed Engine.Weak weak_saf);
    row "SW1/mesh-xy" "the acyclic mesh XY CDG delivers under every discipline"
      (matrix3 mesh_wh mesh_vct mesh_saf)
      (delivered mesh_wh && delivered mesh_vct && delivered mesh_saf);
    row "SW1/torus-tornado"
      "the torus wrap-around cycle deadlocks under every discipline: buffers cannot \
       break a genuine cyclic channel dependency (verdict HOLDS)"
      (matrix3 torus_wh torus_vct torus_saf)
      (classed Engine.Global torus_wh && classed Engine.Global torus_vct
      && classed Engine.Global torus_saf);
    row "SW1/hypercube-ecube" "the acyclic hypercube e-cube CDG delivers under every discipline"
      (matrix3 cube_wh cube_vct cube_saf)
      (delivered cube_wh && delivered cube_vct && delivered cube_saf);
    row "SW1/fig1-intents"
      "the Figure-1 designated messages deliver under every discipline (the false \
       resource cycle stays unreachable)"
      (matrix3 fig1_wh fig1_vct fig1_saf)
      (delivered fig1_wh && delivered fig1_vct && delivered fig1_saf);
  ]

(* ---- Adaptive routing (Section-7 outlook) ---- *)

let exp_a ?(quick = false) ppf =
  header ppf "EXP-A: adaptive routing (Section 7: cycles vs. escape channels)";
  let mesh1 = Builders.mesh [ 4; 4 ] in
  let mesh2 = Builders.mesh ~vcs:2 [ 4; 4 ] in
  let fully = Adaptive.fully_adaptive_minimal mesh1 in
  let duato = Adaptive.duato_mesh mesh2 in
  let escape = Adaptive.escape_of_duato_mesh mesh2 in
  (* adaptive CDG of the unrestricted algorithm is cyclic *)
  let edges = Adaptive.cdg_edges fully in
  let nchan = Topology.num_channels mesh1.Builders.topo in
  let succs = Array.make nchan [] in
  List.iter (fun (a, b) -> succs.(a) <- b :: succs.(a)) edges;
  let fully_cyclic = Scc.has_cycle ~n:nchan ~succ:(fun c -> succs.(c)) in
  Format.fprintf ppf "fully-adaptive-minimal: %d adaptive dependencies, cyclic=%b@\n"
    (List.length edges) fully_cyclic;
  let r = Duato.check duato ~escape in
  Format.fprintf ppf "duato-mesh: %a@\n" Duato.pp r;
  (* stress the certified design in the adaptive engine *)
  let rng = Rng.create 9 in
  let pattern = Traffic.uniform rng mesh2 in
  let horizon = if quick then 120 else 400 in
  let sched =
    Traffic.bernoulli_schedule rng pattern ~coords:mesh2 ~rate:0.08 ~length:5 ~horizon
  in
  let delivered =
    match Engine.run_adaptive duato sched with
    | Engine.All_delivered { finished_at; messages } ->
      Format.fprintf ppf "stress: %d messages delivered by cycle %d@\n"
        (List.length messages) finished_at;
      true
    | o ->
      Format.fprintf ppf "stress: %a@\n" (Engine.pp_outcome mesh2.Builders.topo) o;
      false
  in
  [
    row "A/fully-cyclic" "unrestricted adaptive routing has a cyclic (adaptive) CDG"
      (if fully_cyclic then "cyclic" else "acyclic") fully_cyclic;
    row "A/duato-certified"
      "Duato escape condition certifies the two-class design (connected escape + acyclic \
       extended CDG)"
      (Printf.sprintf "connected=%b acyclic=%b (%d direct + %d indirect deps)"
         r.Duato.escape_connected r.Duato.extended_acyclic r.Duato.direct_edges
         r.Duato.indirect_edges)
      r.Duato.deadlock_free;
    row "A/stress" "the certified design delivers under heavy adaptive traffic"
      (if delivered then "all delivered" else "failed") delivered;
  ]

(* ---- Fault injection and recovery (robustness extension) ---- *)

let exp_fault ?(quick = false) ?(detect = false) ppf =
  header ppf "EXP-FR: fault injection and recovery (paper networks under faults)";
  (* [detect] swaps the plain watchdog for online detection with the same
     32-cycle no-progress backstop: acyclic fault wedges (a worm parked on a
     failed link emits no wait cycle) time out on the same schedule, so the
     claim verdicts must be preserved; genuine knots are handled by the
     detector instead. *)
  let trigger =
    if detect then Engine.Detect { Obs_detect.default_config with Obs_detect.backstop = 32 }
    else Engine.Watchdog 32
  in
  if detect then
    Format.fprintf ppf "(online detection armed: bound %d, backstop 32, minimal victim)@\n"
      Obs_detect.default_config.Obs_detect.bound;
  let recovery = { Engine.default_recovery with trigger; retry_limit = 4; backoff = 8 } in
  (* one-line outcome summaries for the claims table *)
  let brief = function
    | Engine.All_delivered { finished_at; messages } ->
      Printf.sprintf "all %d delivered by cycle %d" (List.length messages) finished_at
    | Engine.Recovered { finished_at; stats; _ } ->
      let count f = List.length (List.filter (fun s -> s.Engine.t_fate = f) stats) in
      Printf.sprintf "recovered by cycle %d: %d delivered, %d dropped, %d gave up, %d retries"
        finished_at (count Engine.Delivered) (count Engine.Dropped) (count Engine.Gave_up)
        (List.fold_left (fun acc s -> acc + s.Engine.t_retries) 0 stats)
    | Engine.Deadlock d -> Printf.sprintf "deadlock at cycle %d" d.Engine.d_cycle
    | Engine.Cutoff { at; _ } -> Printf.sprintf "cutoff at cycle %d" at
  in
  (* 1. seeded random fault campaigns on the figure networks: recovery with
     a retry cap must terminate every run, deterministically *)
  let nets =
    if quick then [ Paper_nets.figure1 () ]
    else
      [ Paper_nets.figure1 (); Paper_nets.figure2 (); Paper_nets.figure3 `C;
        Paper_nets.figure3 `F ]
  in
  (* each net's seeded campaign is independent: simulate on the pool, then
     print and build the claim rows in order *)
  let campaign =
    Wr_pool.map
      (fun net ->
        let rt = Cd_algorithm.of_net net in
        let sched = Schedule.of_intents ~length:4 net in
        let rng = Rng.create 7 in
        let faults =
          Fault.random ~link_failures:1 ~stalls:2 ~max_stall:16 ~horizon:15 rng
            net.Paper_nets.topo
        in
        let config = { Engine.default_config with faults; recovery = Some recovery } in
        let out = Engine.run ~config rt sched in
        let replay = Engine.run ~config rt sched in
        (Paper_nets.name net, net, faults, out, replay))
      nets
  in
  let campaign_rows =
    List.map
      (fun (name, net, faults, out, replay) ->
        Format.fprintf ppf "%s under %a:@\n  %a@\n" name (Fault.pp net.Paper_nets.topo) faults
          (Engine.pp_outcome net.Paper_nets.topo) out;
        let bounded =
          match out with
          | Engine.All_delivered _ -> true
          | Engine.Recovered { stats; _ } ->
            List.for_all
              (fun (s : Engine.retry_stat) -> s.t_retries <= recovery.Engine.retry_limit + 1)
              stats
          | Engine.Deadlock _ | Engine.Cutoff _ -> false
        in
        row (Printf.sprintf "FR/%s" name)
          "seeded faults + recovery terminate deterministically with bounded retries"
          (brief out ^ if out = replay then "" else " [REPLAY DIVERGED]")
          (bounded && out = replay))
      campaign
  in
  (* 2. recovery disabled: a permanent failure on a used channel blocks the
     run permanently, reported exactly like a protocol deadlock.  Failing
     the last hop of M1's path wedges M1 mid-network, holding channels the
     other messages need. *)
  let net = Paper_nets.figure1 () in
  let rt = Cd_algorithm.of_net net in
  let sched = Schedule.of_intents ~length:4 net in
  let victim_channel =
    match net.Paper_nets.intents with
    | it :: _ -> List.nth it.Paper_nets.i_path (List.length it.Paper_nets.i_path - 1)
    | [] -> assert false
  in
  let kill = Fault.make [ Fault.Link_failure { channel = victim_channel; at = 0 } ] in
  let out_off = Engine.run ~config:{ Engine.default_config with faults = kill } rt sched in
  Format.fprintf ppf "figure1, recovery off, %s failed at 0:@\n  %a@\n"
    (Topology.channel_name net.topo victim_channel)
    (Engine.pp_outcome net.topo) out_off;
  let off_row =
    row "FR/no-recovery"
      "with recovery disabled a permanent failure is reported as a deadlock"
      (brief out_off) (Engine.is_deadlock out_off)
  in
  (* 3. same scenario with recovery but no reroute: the victim retries its
     unusable path, exhausts the cap and gives up; the rest deliver *)
  let out_cap =
    Engine.run
      ~config:{ Engine.default_config with faults = kill; recovery = Some recovery }
      rt sched
  in
  Format.fprintf ppf "figure1, recovery on (no reroute):@\n  %a@\n"
    (Engine.pp_outcome net.topo) out_cap;
  let cap_row =
    row "FR/retry-cap" "without a reroute the victim gives up after the retry cap"
      (brief out_cap)
      (match out_cap with
      | Engine.Recovered { stats; _ } ->
        List.exists
          (fun (s : Engine.retry_stat) ->
            s.t_fate = Engine.Gave_up && s.t_retries = recovery.Engine.retry_limit + 1)
          stats
      | _ -> false)
  in
  (* 4. graceful degradation on a regular substrate: fail one mesh channel,
     re-certify the avoiding routing, and recover all traffic through it *)
  let coords = Builders.mesh [ 4; 4 ] in
  let mrt = Dimension_order.mesh coords in
  let mtopo = coords.Builders.topo in
  let failed = List.hd (Routing.path_exn mrt 0 15) in
  let degrade_rows =
    match Degrade.reroute ~quick ~failed:[ failed ] mrt with
    | Error e ->
      [ row "FR/degrade" "degraded mesh routing is re-certified deadlock-free"
          ("reroute failed: " ^ e) false ]
    | Ok d ->
      Format.fprintf ppf "%a@\n" Degrade.pp d;
      let sched =
        [ Schedule.message ~length:4 "across" 0 15; Schedule.message ~length:4 "back" 15 0 ]
      in
      let config =
        {
          Engine.default_config with
          faults = Fault.make [ Fault.Link_failure { channel = failed; at = 0 } ];
          recovery = Some { recovery with reroute = Some d.Degrade.routing };
        }
      in
      let out = Engine.run ~config mrt sched in
      Format.fprintf ppf "4x4 mesh, %s failed, certified reroute:@\n  %a@\n"
        (Topology.channel_name mtopo failed)
        (Engine.pp_outcome mtopo) out;
      let all_delivered_after_retry =
        match out with
        | Engine.Recovered { stats; _ } ->
          List.for_all (fun (s : Engine.retry_stat) -> s.t_fate = Engine.Delivered) stats
        | Engine.All_delivered _ -> true
        | _ -> false
      in
      [
        row "FR/degrade" "degraded mesh routing is re-certified deadlock-free"
          (Format.asprintf "%a" Degrade.pp d)
          (Degrade.certified d);
        row "FR/reroute" "with a certified reroute every message survives the failure"
          (brief out) all_delivered_after_retry;
      ]
  in
  campaign_rows @ [ off_row; cap_row ] @ degrade_rows

(* ---- Online deadlock detection (robustness extension) ---- *)

let exp_detect ?(quick = false) ppf =
  ignore quick;
  header ppf "EXP-D1: online deadlock detection vs. the no-progress watchdog";
  let dcfg = Obs_detect.default_config in
  let watchdog_recovery = { Engine.default_recovery with trigger = Engine.Watchdog 32 } in
  let detect_recovery = { Engine.default_recovery with trigger = Engine.Detect dcfg } in
  (* Two deterministic ground-truth deadlock workloads: the Figure-2
     explorer witness (the Theorem-4 knot) and tornado permutation traffic
     on the 5x5 torus, whose wrap-around channels close a wait cycle under
     plain dimension-order routing. *)
  let fig2_workload =
    let net = Paper_nets.figure2 () in
    let rt = Cd_algorithm.of_net net in
    let templates =
      List.map (fun i -> Explorer.intent_template net i) net.Paper_nets.intents
    in
    match Explorer.explore rt (Explorer.default_space templates) with
    | Explorer.No_deadlock _ -> None
    | Explorer.Deadlock_found { witness = w; _ } ->
      Some ("figure2-witness", net.Paper_nets.topo, rt, w.Explorer.w_schedule,
            w.Explorer.w_config)
  in
  let tornado_workload =
    let torus = Builders.torus [ 5; 5 ] in
    let rt = Dimension_order.torus torus in
    let sched = Traffic.permutation_schedule (Traffic.tornado torus) ~coords:torus ~length:8 in
    Some ("torus5x5-tornado", torus.Builders.topo, rt, sched, Engine.default_config)
  in
  (* the abort tally comes from the counting plane; the first detection's
     cycle, a post-mortem fact, from the event stream *)
  let observed_run ~recovery rt sched config =
    let sink, events = Obs.recorder () in
    let st = Obs_stats.create ~nchan:(Topology.num_channels (Routing.topology rt)) in
    let out = Engine.run ~config:{ config with Engine.recovery } ~obs:sink ~stats:st rt sched in
    let first_detection =
      List.find_map
        (function Obs_event.Deadlock_detected { cycle; _ } -> Some cycle | _ -> None)
        (events ())
    in
    (out, first_detection, Array.fold_left ( + ) 0 st.Obs_stats.st_aborts)
  in
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
  in
  let per_workload =
    List.filter_map
      (fun w ->
        match w with
        | None -> None
        | Some (name, topo, rt, sched, config) ->
          (* ground truth: the unrecovered run must deadlock *)
          let truth = Engine.run ~config:{ config with Engine.recovery = None } rt sched in
          let knot_cycle =
            match truth with Engine.Deadlock d -> Some d.Engine.d_cycle | _ -> None
          in
          let det_out, detected, det_aborts =
            observed_run ~recovery:(Some detect_recovery) rt sched config
          in
          let wd_out, _, wd_aborts = observed_run ~recovery:(Some watchdog_recovery) rt sched config in
          Format.fprintf ppf "%s: ground truth %s@\n" name
            (match truth with
            | Engine.Deadlock d -> Printf.sprintf "deadlock at cycle %d" d.Engine.d_cycle
            | o -> Engine.outcome_string o);
          Format.fprintf ppf "  detect   (bound %d): %a@\n    first detection %s, %d aborts@\n"
            dcfg.Obs_detect.bound (Engine.pp_outcome topo) det_out
            (match detected with Some c -> Printf.sprintf "at cycle %d" c | None -> "NEVER")
            det_aborts;
          Format.fprintf ppf "  watchdog (32 cycles): %a@\n    %d aborts@\n"
            (Engine.pp_outcome topo) wd_out wd_aborts;
          Some (name, knot_cycle, detected, det_out, wd_out, det_aborts, wd_aborts))
      [ fig2_workload; tornado_workload ]
  in
  let bound_rows =
    List.map
      (fun (name, knot_cycle, detected, _, _, _, _) ->
        let measured, ok =
          match (knot_cycle, detected) with
          | Some k, Some d ->
            ( Printf.sprintf "knot quiescent at cycle %d, detected at cycle %d (bound %d)" k d
                dcfg.Obs_detect.bound,
              d <= k + dcfg.Obs_detect.bound )
          | None, _ -> ("ground-truth run did not deadlock", false)
          | Some k, None -> (Printf.sprintf "knot at cycle %d NEVER detected" k, false)
        in
        row
          (Printf.sprintf "D1/%s-bound" name)
          "the detector confirms the ground-truth knot within the latency bound" measured ok)
      per_workload
  in
  let superset_rows =
    List.map
      (fun (name, _, _, det_out, wd_out, _, _) ->
        let det_set = delivered_labels det_out and wd_set = delivered_labels wd_out in
        let superset = List.for_all (fun l -> List.mem l det_set) wd_set in
        row
          (Printf.sprintf "D1/%s-delivery" name)
          "targeted recovery delivers every message the watchdog delivers"
          (Printf.sprintf "watchdog %d delivered, detect %d delivered%s" (List.length wd_set)
             (List.length det_set)
             (if superset then "" else " [LOST MESSAGES]"))
          superset)
      per_workload
  in
  let fewer_row =
    let briefs =
      List.map
        (fun (name, _, _, _, _, da, wa) -> Printf.sprintf "%s %d vs %d" name da wa)
        per_workload
    in
    row "D1/fewer-aborts"
      "minimal-victim recovery aborts strictly fewer messages than the watchdog on at least \
       one deadlocking workload"
      (Printf.sprintf "aborts (detect vs watchdog): %s" (String.concat ", " briefs))
      (per_workload <> []
      && List.exists (fun (_, _, _, _, _, da, wa) -> da < wa) per_workload)
  in
  bound_rows @ superset_rows @ [ fewer_row ]

(* ---- wormlint self-check ---- *)

let exp_lint ?(quick = false) ppf =
  ignore quick;
  header ppf "EXP-LINT: static analysis over the registry and the defect corpus";
  let entries = Registry.entries () in
  let lint_results =
    List.map
      (fun (e : Registry.entry) ->
        let topo = Registry.topology e in
        let diags = Registry.lint e in
        (e, topo, diags))
      entries
  in
  List.iter
    (fun ((e : Registry.entry), topo, diags) ->
      Format.fprintf ppf "%s: %d error(s), %d warning(s), %d info@\n" e.Registry.r_name
        (Diagnostic.count Diagnostic.Error diags)
        (Diagnostic.count Diagnostic.Warning diags)
        (Diagnostic.count Diagnostic.Info diags);
      List.iter
        (fun d ->
          if Diagnostic.is_error d then
            Format.fprintf ppf "  %a@\n" (Diagnostic.pp ~topo ()) d)
        diags)
    lint_results;
  let offending =
    List.filter (fun (_, _, diags) -> Diagnostic.errors diags <> []) lint_results
  in
  let corpus = Corpus.entries () in
  let corpus_failures =
    List.filter_map
      (fun (c : Corpus.entry) ->
        match Corpus.check c with
        | Ok () -> None
        | Error msg -> Some (c.Corpus.c_name, msg))
      corpus
  in
  List.iter
    (fun (name, msg) -> Format.fprintf ppf "corpus %s: FAILED (%s)@\n" name msg)
    corpus_failures;
  let codes =
    List.sort_uniq compare (List.map (fun (c : Corpus.entry) -> c.Corpus.c_expected) corpus)
  in
  Format.fprintf ppf "corpus: %d seeded defects over %d distinct codes (%s)@\n"
    (List.length corpus) (List.length codes) (String.concat " " codes);
  [
    row "LINT/registry" "every shipped algorithm lints with zero E-severity diagnostics"
      (Printf.sprintf "%d algorithms, %d with errors" (List.length lint_results)
         (List.length offending))
      (offending = []);
    row "LINT/corpus" "every seeded defect is flagged exactly once by its expected code"
      (Printf.sprintf "%d/%d corpus entries pass"
         (List.length corpus - List.length corpus_failures)
         (List.length corpus))
      (corpus_failures = []);
    row "LINT/coverage" "the corpus exercises at least 8 distinct lint codes"
      (Printf.sprintf "%d distinct codes" (List.length codes))
      (List.length codes >= 8);
  ]

(* ---- synthesis existence checker vs exhaustive search (EXP-SY1) ---- *)

(* Pinned multiplicative-congruential generator so the random digraphs are
   identical across runs, machines and domain counts (stdlib Random is
   off-limits here: its algorithm is an implementation detail). *)
let sy_rng seed =
  let state = ref (((seed * 2654435761) + 1) land 0x3FFFFFFF) in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound

(* Unidirectional ring backbone (strong connectivity for free) plus
   [chords] random extra channels: with no chords the network is the
   paper's under-provisioned ring (impossible); chords progressively
   unlock valley orders, so the sample exercises both verdicts. *)
let sy_random_digraph ~seed ~n ~chords =
  let rand = sy_rng seed in
  let t = Topology.create () in
  let nodes = Array.init n (fun i -> Topology.add_node t (Printf.sprintf "v%d" i)) in
  Array.iteri (fun i u -> ignore (Topology.add_channel t u nodes.((i + 1) mod n))) nodes;
  let added = ref 0 and attempts = ref 0 in
  while !added < chords && !attempts < chords * 8 do
    incr attempts;
    let i = rand n in
    let j = rand n in
    if i <> j && Topology.find_channel t nodes.(i) nodes.(j) = None then begin
      ignore (Topology.add_channel t nodes.(i) nodes.(j));
      incr added
    end
  done;
  t

let exp_synth ?(quick = false) ppf =
  header ppf "EXP-SY1: routing-existence checker vs exhaustive search";
  (* one work item per network; every item runs on the pool and returns
     (report text, row), so the printed report and the claim rows keep
     input order at any domain count *)
  let figure_item net () =
    let name = Paper_nets.name net in
    let buf = Buffer.create 256 in
    let bpf = Format.formatter_of_buffer buf in
    let topo = net.Paper_nets.topo in
    let result =
      match Synth.synthesize ~name:(name ^ "-synth") topo with
      | Error w ->
        Format.fprintf bpf "%s: IMPOSSIBLE (%a) -- but the paper routes it@\n" name
          (Synth.pp_witness topo) w;
        None
      | Ok (rt, plan) ->
        let report = Verify.analyze ~quick:true rt in
        let certified =
          match report.Verify.conclusion with Verify.Deadlock_free _ -> true | _ -> false
        in
        let templates =
          List.map
            (fun (i : Paper_nets.intent) ->
              Explorer.minimal_length_template rt i.Paper_nets.i_label i.Paper_nets.i_src
                i.Paper_nets.i_dst)
            net.Paper_nets.intents
        in
        let space =
          let base = Explorer.default_space templates in
          if quick then
            { base with Explorer.buffers = [ 1 ]; priorities = Explorer.Follow_order }
          else base
        in
        let v = Explorer.explore rt space in
        let runs =
          match v with
          | Explorer.No_deadlock { runs } -> runs
          | Explorer.Deadlock_found { runs; _ } -> runs
        in
        Format.fprintf bpf "%s: exists via %s; Verify %s; sweep %s in %d runs@\n" name
          plan.Synth.p_strategy
          (if certified then "Deadlock_free" else "NOT deadlock-free")
          (if Explorer.is_deadlock_found v then "DEADLOCK" else "no deadlock")
          runs;
        Some (plan, certified, v, runs)
    in
    Format.pp_print_flush bpf ();
    let measured, ok =
      match result with
      | None -> ("checker says impossible", false)
      | Some (plan, certified, v, runs) ->
        ( Printf.sprintf "exists via %s; certified %b; no deadlock in %d runs"
            plan.Synth.p_strategy certified runs,
          certified && not (Explorer.is_deadlock_found v) )
    in
    ( Buffer.contents buf,
      [
        row
          (Printf.sprintf "SY1/%s" name)
          "checker and exhaustive sweep agree: a deadlock-free routing exists and the \
           synthesized one survives the adversary"
          measured ok;
      ] )
  in
  let ring_item n () =
    let buf = Buffer.create 256 in
    let bpf = Format.formatter_of_buffer buf in
    let topo = (Builders.ring ~unidirectional:true n).Builders.topo in
    let impossible_ok, witness_desc =
      match Synth.check topo with
      | Synth.Exists plan -> (false, "EXISTS via " ^ plan.Synth.p_strategy)
      | Synth.Impossible w ->
        Format.fprintf bpf "ring-uni-%d: impossible; %a@\n" n (Synth.pp_witness topo) w;
        let checked = Synth.check_witness topo w in
        let desc =
          match w with
          | Synth.Forced_corner_cycle { w_cycle; _ } ->
            Printf.sprintf "forced corner cycle of %d channels, witness %s"
              (List.length w_cycle)
              (if checked then "checks" else "REJECTED")
          | _ -> "unexpected witness shape"
        in
        (checked && (match w with Synth.Forced_corner_cycle _ -> true | _ -> false), desc)
    in
    let family = Synth.greedy_family topo in
    let sweep_results =
      List.map
        (fun rt ->
          let templates =
            List.init n (fun s ->
                Explorer.minimal_length_template rt (Printf.sprintf "m%d" s) s
                  ((s + n - 1) mod n))
          in
          let v = Explorer.explore rt (Explorer.default_space templates) in
          Format.fprintf bpf "  family member %s: %a@\n" (Routing.name rt)
            (Explorer.pp_verdict topo) v;
          Explorer.is_deadlock_found v)
        family
    in
    Format.pp_print_flush bpf ();
    let all_deadlock = family <> [] && List.for_all Fun.id sweep_results in
    ( Buffer.contents buf,
      [
        row
          (Printf.sprintf "SY1/ring-uni-%d" n)
          "an under-provisioned unidirectional ring admits no deadlock-free routing, and \
           every member of the bounded routing family deadlocks"
          (Printf.sprintf "%s; %d-member family all deadlock: %b" witness_desc
             (List.length family) all_deadlock)
          (impossible_ok && all_deadlock);
      ] )
  in
  let random_specs =
    (* (seed, nodes, chords): chords 0 pins the impossible side, larger
       counts let valley orders succeed; the split below is asserted so a
       checker regression that collapses to one verdict fails the claim *)
    let full =
      [
        (1, 4, 0); (2, 4, 2); (3, 4, 4); (4, 5, 0); (5, 5, 3); (6, 5, 6);
        (7, 6, 2); (8, 6, 5); (9, 6, 8); (10, 5, 1);
      ]
    in
    if quick then [ (1, 4, 0); (2, 4, 2); (5, 5, 3); (9, 6, 8) ] else full
  in
  let random_item (seed, n, chords) () =
    let buf = Buffer.create 256 in
    let bpf = Format.formatter_of_buffer buf in
    let topo = sy_random_digraph ~seed ~n ~chords in
    let label = Printf.sprintf "digraph(seed=%d,n=%d,chords=%d)" seed n chords in
    let verdict_ok, verdict =
      match Synth.synthesize ~name:label topo with
      | Ok (rt, plan) ->
        let report = Verify.analyze ~quick:true rt in
        let certified =
          match report.Verify.conclusion with Verify.Deadlock_free _ -> true | _ -> false
        in
        let clean =
          List.for_all
            (fun d -> not (Diagnostic.is_error d))
            (Synth.diagnostics ~name:label topo (Ok (rt, plan)))
        in
        Format.fprintf bpf "%s: exists via %s; certified %b@\n" label plan.Synth.p_strategy
          certified;
        (certified && clean, `Exists)
      | Error w ->
        let checked = Synth.check_witness topo w in
        (* dynamic counterpart, cheap and sound: with no acyclic connector,
           no valid greedy member may have an acyclic CDG *)
        let family = Synth.greedy_family topo in
        let none_acyclic =
          List.for_all (fun rt -> not (Cdg.is_acyclic (Cdg.build rt))) family
        in
        Format.fprintf bpf "%s: impossible (%a); witness checks %b; %d family members, \
                            none with acyclic CDG: %b@\n"
          label (Synth.pp_witness topo) w checked (List.length family) none_acyclic;
        (checked && none_acyclic, `Impossible)
    in
    Format.pp_print_flush bpf ();
    (Buffer.contents buf, [ (label, verdict_ok, verdict) ])
  in
  let figure_nets =
    [
      Paper_nets.figure1 (); Paper_nets.figure2 (); Paper_nets.figure3 `A;
      Paper_nets.figure3 `F; Paper_nets.family 2;
    ]
    @
    if quick then []
    else [ Paper_nets.figure3 `B; Paper_nets.figure3 `C; Paper_nets.figure3 `D; Paper_nets.figure3 `E ]
  in
  let ring_sizes = if quick then [ 3; 4 ] else [ 3; 4; 5 ] in
  let fig_and_ring_items =
    List.map figure_item figure_nets @ List.map ring_item ring_sizes
  in
  (* one pool fan-out over every network; Wr_pool.map keeps input order *)
  let fig_ring_out = Wr_pool.map (fun item -> item ()) fig_and_ring_items in
  let random_out = Wr_pool.map (fun spec -> random_item spec ()) random_specs in
  List.iter (fun (text, _) -> Format.pp_print_string ppf text) fig_ring_out;
  List.iter (fun (text, _) -> Format.pp_print_string ppf text) random_out;
  let fig_ring_rows = List.concat_map snd fig_ring_out in
  let random_results = List.concat_map snd random_out in
  let n_exists =
    List.length (List.filter (fun (_, _, v) -> v = `Exists) random_results)
  in
  let n_impossible =
    List.length (List.filter (fun (_, _, v) -> v = `Impossible) random_results)
  in
  let bad = List.filter (fun (_, ok, _) -> not ok) random_results in
  Format.fprintf ppf "random digraphs: %d exist, %d impossible, %d disagreements@\n"
    n_exists n_impossible (List.length bad);
  let random_rows =
    [
      row "SY1/random-agreement"
        "on pinned random digraphs the checker verdict always agrees with the \
         certificate (exists) or the cyclic-CDG family sweep (impossible)"
        (Printf.sprintf "%d/%d digraphs agree%s" (List.length random_results - List.length bad)
           (List.length random_results)
           (match bad with [] -> "" | (l, _, _) :: _ -> "; first disagreement " ^ l))
        (bad = []);
      row "SY1/random-coverage" "the pinned sample exercises both verdicts"
        (Printf.sprintf "%d exists, %d impossible" n_exists n_impossible)
        (n_exists > 0 && n_impossible > 0);
    ]
  in
  fig_ring_rows @ random_rows

let registry ?(quick = false) ?max_p ?(detect = false) () :
    (string * (Format.formatter -> row list)) list =
  [
    ("exp-f1", exp_f1 ~quick);
    ("exp-t2", exp_t2 ~quick);
    ("exp-corollaries", exp_corollaries ~quick);
    ("exp-t3", exp_t3 ~quick);
    ("exp-t4", exp_t4 ~quick);
    ("exp-t5", exp_t5 ~quick);
    ("exp-g", exp_g ~quick ?max_p);
    ("exp-s1", exp_s1 ~quick);
    ("exp-s2", exp_s2 ~quick);
    ("exp-mfm", exp_mfm ~quick);
    ("exp-a", exp_a ~quick);
    ("exp-sw", exp_sw ~quick);
    ("exp-sw1", exp_sw1 ~quick);
    ("exp-mc", exp_mc ~quick);
    ("exp-fault", exp_fault ~quick ~detect);
    ("exp-detect", exp_detect ~quick);
    ("exp-lint", exp_lint ~quick);
    ("exp-synth", exp_synth ~quick);
  ]

let summary_table rows =
  let table = Table.create [ "experiment"; "paper claim"; "measured"; "ok" ] in
  List.iter
    (fun r -> Table.add_row table [ r.x_id; r.x_claim; r.x_measured; (if r.x_ok then "yes" else "NO") ])
    rows;
  Table.render table

(* ---- Campaign record and its renderers (run_experiments outputs) ---- *)

type entry = {
  e_name : string;
  e_rows : row list;
  e_wall : float;
  e_runs : int;
  e_cancelled : int;
}

type campaign = { c_quick : bool; c_domains : int; c_entries : entry list }

type totals = {
  t_claims : int;
  t_failed : int;
  t_wall : float;
  t_runs : int;
  t_cancelled : int;
  t_canonical : int;
}

let campaign_rows c = List.concat_map (fun e -> e.e_rows) c.c_entries

let totals c =
  List.fold_left
    (fun t e ->
      {
        t_claims = t.t_claims + List.length e.e_rows;
        t_failed = t.t_failed + List.length (List.filter (fun r -> not r.x_ok) e.e_rows);
        t_wall = t.t_wall +. e.e_wall;
        t_runs = t.t_runs + e.e_runs;
        t_cancelled = t.t_cancelled + e.e_cancelled;
        t_canonical = t.t_canonical + (e.e_runs - e.e_cancelled);
      })
    { t_claims = 0; t_failed = 0; t_wall = 0.; t_runs = 0; t_cancelled = 0; t_canonical = 0 }
    c.c_entries

let runs_per_sec runs wall = if wall > 0. then float_of_int runs /. wall else 0.

let verdict_lines c =
  String.concat ""
    (List.map
       (fun r -> Printf.sprintf "%s %s\n" r.x_id (if r.x_ok then "ok" else "FAIL"))
       (campaign_rows c))

(* Built from canonically reduced quantities only (claim verdicts, canonical
   run tallies), never from event-stream folds: interleaved event streams
   from parallel sweeps are schedule-dependent, so folding them would break
   the byte-determinism contract (DESIGN.md §11). *)
let metrics_text c =
  let rows = campaign_rows c in
  let failed = List.length (List.filter (fun r -> not r.x_ok) rows) in
  (* series in label order; an experiment named twice sums its runs *)
  let per_experiment =
    List.sort_uniq compare (List.map (fun e -> e.e_name) c.c_entries)
    |> List.map (fun name ->
           ( [ ("experiment", name) ],
             List.fold_left
               (fun acc e -> if e.e_name = name then acc + e.e_runs - e.e_cancelled else acc)
               0 c.c_entries ))
  in
  Obs_prom.render
    [
      Obs_prom.counter ~help:"Campaign claims by verdict" "wormhole_campaign_claims_total"
        [ ([ ("status", "failed") ], failed); ([ ("status", "ok") ], List.length rows - failed) ];
      Obs_prom.counter
        ~help:"Canonical engine runs per experiment (speculative cancelled runs excluded)"
        "wormhole_campaign_experiment_runs_total" per_experiment;
      Obs_prom.gauge ~help:"1 when the campaign ran with --quick" "wormhole_campaign_quick"
        [ ([], if c.c_quick then 1 else 0) ];
      Obs_prom.counter ~help:"Canonical engine runs across the campaign"
        "wormhole_campaign_runs_total" [ ([], (totals c).t_canonical) ];
    ]

let json_text c =
  let t = totals c in
  let last = List.length c.c_entries - 1 in
  let experiment i e =
    Printf.sprintf
      "    {\"name\": %S, \"wall_s\": %.3f, \"runs\": %d, \"cancelled\": %d, \
       \"runs_per_s\": %.0f}%s\n"
      e.e_name e.e_wall e.e_runs e.e_cancelled (runs_per_sec e.e_runs e.e_wall)
      (if i = last then "" else ",")
  in
  Printf.sprintf
    "{\n\
    \  \"schema\": \"wormhole-campaign/1\",\n\
    \  \"domains\": %d,\n\
    \  \"quick\": %b,\n\
    \  \"claims\": %d,\n\
    \  \"failed\": %d,\n\
    \  \"wall_s\": %.3f,\n\
    \  \"engine_runs\": %d,\n\
    \  \"engine_runs_cancelled\": %d,\n\
    \  \"experiments\": [\n%s  ]\n}\n"
    c.c_domains c.c_quick t.t_claims t.t_failed t.t_wall t.t_runs t.t_cancelled
    (String.concat "" (List.mapi experiment c.c_entries))

let timing_table c =
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "experiment"; "wall (s)"; "engine runs"; "cancelled"; "runs/sec" ]
  in
  let add name wall runs cancelled =
    Table.add_row table
      [
        name;
        Printf.sprintf "%.2f" wall;
        string_of_int runs;
        string_of_int cancelled;
        Printf.sprintf "%.0f" (runs_per_sec runs wall);
      ]
  in
  List.iter (fun e -> add e.e_name e.e_wall e.e_runs e.e_cancelled) c.c_entries;
  let t = totals c in
  add "total" t.t_wall t.t_runs t.t_cancelled;
  Table.render table

(* ---- Latency telemetry report (run_experiments --latency) ---- *)

let latency_report ?(quick = false) ppf =
  header ppf
    (Printf.sprintf "Latency (%s campaign, counters-first telemetry)"
       (if quick then "quick" else "full"));
  let mesh = Builders.mesh [ 8; 8 ] in
  let mesh_rt = Dimension_order.mesh mesh in
  let torus = Builders.torus [ 5; 5 ] in
  let torus_rt = Dimension_order.torus torus in
  let fig2 = Paper_nets.figure2 () in
  let fig2_rt = Cd_algorithm.of_net fig2 in
  let horizon = if quick then 300 else 1000 in
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5; 6 ] in
  (* every workload is a list of independent runs, each filling a private
     accumulator; the pool merges them in task-index order, so the whole
     report is byte-identical at any --domains count *)
  let merged nchan runs =
    Wr_pool.map_reduce
      ~map:(fun run ->
        let st = Obs_stats.create ~nchan in
        run st;
        st)
      ~reduce:(fun acc st ->
        Obs_stats.merge ~into:acc st;
        acc)
      ~init:(Obs_stats.create ~nchan) runs
  in
  let bernoulli coords rt pattern_of seed st =
    let rng = Rng.create seed in
    let pattern = pattern_of rng in
    let sched =
      Traffic.bernoulli_schedule rng pattern ~coords ~rate:0.02 ~length:4 ~horizon
    in
    ignore (Engine.run ~stats:st rt sched)
  in
  let workloads =
    [
      ( "figure2-cd",
        fig2.Paper_nets.topo,
        merged
          (Topology.num_channels fig2.Paper_nets.topo)
          [
            (fun st ->
              ignore (Engine.run ~stats:st fig2_rt (Schedule.of_intents ~length:4 fig2)));
          ] );
      ( "mesh8x8-xy-uniform",
        mesh.Builders.topo,
        merged
          (Topology.num_channels mesh.Builders.topo)
          (List.map
             (fun seed -> bernoulli mesh mesh_rt (fun rng -> Traffic.uniform rng mesh) seed)
             seeds) );
      ( "mesh8x8-xy-transpose",
        mesh.Builders.topo,
        merged
          (Topology.num_channels mesh.Builders.topo)
          [ bernoulli mesh mesh_rt (fun _ -> Traffic.transpose mesh) 42 ] );
      ( "torus5x5-ecube-tornado",
        torus.Builders.topo,
        merged
          (Topology.num_channels torus.Builders.topo)
          [
            (fun st ->
              let sched =
                Traffic.permutation_schedule (Traffic.tornado torus) ~coords:torus
                  ~length:8
              in
              ignore (Engine.run ~stats:st torus_rt sched));
          ] );
    ]
  in
  let pct st q =
    if st.Obs_stats.st_delivered = 0 then "-"
    else
      let v = Obs_stats.percentile st q in
      if v >= st.Obs_stats.st_lat_max then string_of_int st.Obs_stats.st_lat_max
      else "<=" ^ string_of_int v
  in
  let table =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right ]
      [ "workload"; "runs"; "delivered"; "p50"; "p90"; "p99"; "max"; "max util" ]
  in
  List.iter
    (fun (name, _, st) ->
      let max_util = ref 0.0 in
      for c = 0 to st.Obs_stats.st_nchan - 1 do
        let u = Obs_stats.utilization st c in
        if u > !max_util then max_util := u
      done;
      Table.add_row table
        [
          name;
          string_of_int st.Obs_stats.st_runs;
          string_of_int st.Obs_stats.st_delivered;
          pct st 50.0;
          pct st 90.0;
          pct st 99.0;
          string_of_int st.Obs_stats.st_lat_max;
          Printf.sprintf "%.1f%%" (!max_util *. 100.0);
        ])
    workloads;
  Format.fprintf ppf "%s" (Table.render table);
  Format.fprintf ppf "@\ntop head-of-line blocking channels:@\n";
  let blocking =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right ]
      [ "workload"; "channel"; "hol-cycles"; "wait-cycles" ]
  in
  let any = ref false in
  List.iter
    (fun (name, topo, st) ->
      List.iter
        (fun (c, hol) ->
          any := true;
          Table.add_row blocking
            [
              name;
              Topology.channel_name topo c;
              string_of_int hol;
              string_of_int st.Obs_stats.st_waited.(c);
            ])
        (Obs_stats.top_blocking ~k:3 st))
    workloads;
  if !any then Format.fprintf ppf "%s" (Table.render blocking)
  else Format.fprintf ppf "(no blocking recorded)@\n"
