(* Tests for the extension modules: the message flow model (Section-2
   discussion), the Corollary-1 input-independence checker, and the engine
   probe. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ---- message flow model ---- *)

let test_mfm_proves_xy () =
  let rt = Dimension_order.mesh (Builders.mesh [ 4; 4 ]) in
  let r = Message_flow.analyze rt in
  check cb "proves" true (Message_flow.proves_deadlock_free r);
  check cb "no stuck channels" true (r.Message_flow.stuck = []);
  check cb "needs several rounds" true (r.Message_flow.rounds > 1)

let test_mfm_proves_dateline () =
  let rt = Ring_routing.dateline (Builders.ring ~unidirectional:true ~vcs:2 6) in
  check cb "proves" true (Message_flow.proves_deadlock_free (Message_flow.analyze rt))

let test_mfm_stuck_on_ring () =
  (* genuinely deadlocking algorithm: correctly not proven *)
  let rt = Ring_routing.clockwise (Builders.ring ~unidirectional:true 4) in
  let r = Message_flow.analyze rt in
  check cb "not proven" false (Message_flow.proves_deadlock_free r);
  check ci "all ring channels stuck" 4 (List.length r.Message_flow.stuck)

let test_mfm_incomplete_on_figure1 () =
  (* the paper's Section-2 point: the model cannot prove the CD algorithm
     although it is deadlock-free; the ring channels are all stuck *)
  let net = Paper_nets.figure1 () in
  let rt = Cd_algorithm.of_net net in
  let r = Message_flow.analyze rt in
  check cb "not proven" false (Message_flow.proves_deadlock_free r);
  Array.iter
    (fun c -> check cb "ring channel stuck" true (List.mem c r.Message_flow.stuck))
    net.ring_channels;
  (* direct hub channels N*->v are immune: every message using them is
     consumed right after *)
  let direct = Option.get (Topology.find_channel net.topo net.hub net.source) in
  check cb "hub->Src immune" true r.Message_flow.immune.(direct)

let test_mfm_used_flags () =
  let rt = Dimension_order.mesh (Builders.mesh [ 2; 2 ]) in
  let r = Message_flow.analyze rt in
  (* on a 2x2 mesh with XY routing every channel carries some message *)
  check cb "all used" true (Array.for_all Fun.id r.Message_flow.used)

let test_mfm_pp () =
  let rt = Dimension_order.mesh (Builders.mesh [ 2; 2 ]) in
  let r = Message_flow.analyze rt in
  let s = Format.asprintf "%a" (Message_flow.pp (Routing.topology rt)) r in
  check cb "renders" true (String.length s > 20)

(* ---- input independence (Corollary 1) ---- *)

let test_input_independent_xy () =
  let rt = Dimension_order.mesh (Builders.mesh [ 4; 4 ]) in
  check cb "xy input-independent" true
    (Properties.is_holds (Properties.input_independent rt))

let test_input_dependent_cd () =
  let rt = Cd_algorithm.of_net (Paper_nets.figure1 ()) in
  (* Corollary 1: an N x N -> C algorithm has no unreachable cycles, so the
     CD algorithm must be input-dependent *)
  check cb "cd input-dependent" false
    (Properties.is_holds (Properties.input_independent rt))

let test_input_dependent_dateline () =
  (* the dateline discipline consults the input channel's vc *)
  let rt = Ring_routing.dateline (Builders.ring ~unidirectional:true ~vcs:2 6) in
  check cb "dateline input-dependent" false
    (Properties.is_holds (Properties.input_independent rt))

let test_summary_includes_new_property () =
  let rt = Dimension_order.mesh (Builders.mesh [ 2; 2 ]) in
  check cb "summary has input-independent" true
    (List.mem_assoc "input-independent" (Properties.summary rt))

(* ---- engine probe ---- *)

let test_probe_sees_every_cycle () =
  let rt = Dimension_order.mesh (Builders.mesh [ 3; 3 ]) in
  let cycles = ref [] in
  let probe (s : Engine.snapshot) = cycles := s.Engine.s_cycle :: !cycles in
  (match Engine.run ~probe rt [ Schedule.message ~length:4 "m" 0 8 ] with
  | Engine.All_delivered { finished_at; _ } ->
    check ci "one snapshot per cycle" (finished_at + 1) (List.length !cycles);
    check (Alcotest.list ci) "in order" (List.init (finished_at + 1) Fun.id) (List.rev !cycles)
  | _ -> Alcotest.fail "expected delivery")

let test_probe_occupancy_consistent () =
  let rt = Dimension_order.mesh (Builders.mesh [ 3; 3 ]) in
  let max_flits = ref 0 in
  let probe (s : Engine.snapshot) =
    let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 s.Engine.s_occupancy in
    if total > !max_flits then max_flits := total;
    (* per-queue occupancy never exceeds the buffer capacity (1) *)
    List.iter (fun (_, _, n) -> if n > 1 then Alcotest.fail "overfull queue") s.Engine.s_occupancy
  in
  ignore (Engine.run ~probe rt [ Schedule.message ~length:4 "m" 0 8 ]);
  check cb "some flits in flight" true (!max_flits >= 1);
  check cb "bounded by length" true (!max_flits <= 4)

let () =
  Alcotest.run "extensions"
    [
      ( "message_flow",
        [
          Alcotest.test_case "proves xy" `Quick test_mfm_proves_xy;
          Alcotest.test_case "proves dateline" `Quick test_mfm_proves_dateline;
          Alcotest.test_case "stuck on deadlocking ring" `Quick test_mfm_stuck_on_ring;
          Alcotest.test_case "incomplete on figure 1" `Quick test_mfm_incomplete_on_figure1;
          Alcotest.test_case "used flags" `Quick test_mfm_used_flags;
          Alcotest.test_case "pp" `Quick test_mfm_pp;
        ] );
      ( "input_independence",
        [
          Alcotest.test_case "xy independent" `Quick test_input_independent_xy;
          Alcotest.test_case "cd dependent" `Quick test_input_dependent_cd;
          Alcotest.test_case "dateline dependent" `Quick test_input_dependent_dateline;
          Alcotest.test_case "summary row" `Quick test_summary_includes_new_property;
        ] );
      ( "probe",
        [
          Alcotest.test_case "every cycle" `Quick test_probe_sees_every_cycle;
          Alcotest.test_case "occupancy consistent" `Quick test_probe_occupancy_consistent;
        ] );
    ]
