(* Channel-dependency-graph analysis CLI.

   Examples:
     cdg_tool --net figure1
     cdg_tool --net figure3c --dot /tmp/net.dot
     cdg_tool --net torus-5x5 *)

open Cmdliner

(* The paper networks analyze their CD routing and can be model-checked:
   the figure catalogue plus two Section-6 family members. *)
let paper_net_of = function
  | "family2" -> Some (Paper_nets.family 2)
  | "family3" -> Some (Paper_nets.family 3)
  | n -> Option.map (fun (f : Paper_nets.figure) -> f.f_net) (Paper_nets.find n)

let classic =
  [
    ("ring-4", fun () -> Ring_routing.clockwise (Builders.ring ~unidirectional:true 4));
    ("ring-dateline-6", fun () -> Ring_routing.dateline (Builders.ring ~unidirectional:true ~vcs:2 6));
    ("mesh-4x4", fun () -> Dimension_order.mesh (Builders.mesh [ 4; 4 ]));
    ("torus-4x4", fun () -> Dimension_order.torus (Builders.torus [ 4; 4 ]));
    ("torus-5x5", fun () -> Dimension_order.torus (Builders.torus [ 5; 5 ]));
    ( "torus-dateline-4x4",
      fun () -> Dimension_order.torus ~datelines:true (Builders.torus ~vcs:2 [ 4; 4 ]) );
    ("hypercube-3", fun () -> Dimension_order.hypercube (Builders.hypercube 3));
    ("west-first-4x4", fun () -> Turn_model.west_first (Builders.mesh [ 4; 4 ]));
  ]

let nets =
  List.map (fun (f : Paper_nets.figure) -> Paper_nets.name f.f_net) (Paper_nets.figures ())
  @ [ "family2"; "family3" ] @ List.map fst classic

let main net dot no_search model_check =
  let pnet = paper_net_of net in
  let rt =
    match (pnet, List.assoc_opt net classic) with
    | Some p, _ -> Cd_algorithm.of_net p
    | None, Some routing -> routing ()
    | None, None ->
      Printf.eprintf "unknown net %s (known: %s)\n" net (String.concat ", " nets);
      exit 2
  in
  let report = Verify.analyze ~use_search:(not no_search) rt in
  Format.printf "%a@?" Verify.pp_report report;
  (if model_check then
     match pnet with
     | Some pnet ->
       Format.printf "model checker (all timings, all arbitrations): %a@?" Model_checker.pp
         (Model_checker.check_net pnet);
       Format.print_newline ()
     | None ->
       Format.printf "model checking is only wired up for the paper networks@.");
  (match report.Verify.numbering with
  | Some f ->
    let topo = Routing.topology rt in
    Format.printf "Dally-Seitz numbering (first 10 channels):@.";
    List.iteri
      (fun i c ->
        if i < 10 then Format.printf "  %s -> %d@." (Topology.channel_name topo c) f.(c))
      (Topology.channels topo)
  | None -> ());
  (match dot with
  | Some path ->
    let topo = Routing.topology rt in
    let highlight = List.concat_map (fun cr -> cr.Verify.cr_cycle) report.Verify.cycles in
    Dot.write_file ~highlight ~label:net path topo;
    Format.printf "wrote %s@." path
  | None -> ());
  match report.Verify.conclusion with
  | Verify.Deadlock_free _ -> ()
  | Verify.Deadlocks _ -> exit 3
  | Verify.Unknown _ -> exit 4

let net_arg =
  Arg.(value & opt string "figure1" & info [ "net" ] ~docv:"NET" ~doc:"network/algorithm to analyze")

let dot_arg =
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"PATH" ~doc:"write a Graphviz rendering (cycles highlighted)")

let no_search_arg =
  Arg.(value & flag & info [ "no-search" ] ~doc:"skip the schedule-space search (static analysis only)")

let model_check_arg =
  Arg.(value & flag & info [ "model-check" ] ~doc:"also run the exhaustive state-space model checker (paper networks only)")

let cmd =
  let doc = "analyze a routing algorithm's channel dependency graph" in
  Cmd.v (Cmd.info "cdg_tool" ~doc)
    Term.(const main $ net_arg $ dot_arg $ no_search_arg $ model_check_arg)

let () = exit (Cmd.eval cmd)
