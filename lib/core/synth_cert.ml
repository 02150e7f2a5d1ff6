type t = {
  sc_network : string;
  sc_topology : Topology.t;
  sc_result : (Routing.t * Synth.plan, Synth.witness) result;
  sc_conclusion : Verify.conclusion option;
  sc_diagnostics : Diagnostic.t list;
}

let run ?(quick = true) ?budget ?(name = "synth") topo =
  let result = Synth.synthesize ?budget ~name topo in
  let synth_diags = Synth.diagnostics ~name topo result in
  match result with
  | Error _ ->
    {
      sc_network = name;
      sc_topology = topo;
      sc_result = result;
      sc_conclusion = None;
      sc_diagnostics = Diagnostic.by_severity synth_diags;
    }
  | Ok (rt, _) ->
    let report = Verify.analyze ~quick rt in
    {
      sc_network = name;
      sc_topology = topo;
      sc_result = result;
      sc_conclusion = Some report.Verify.conclusion;
      sc_diagnostics = Diagnostic.by_severity (synth_diags @ Verify.diagnostics report);
    }

let certified t =
  match (t.sc_result, t.sc_conclusion) with
  | Ok _, Some (Verify.Deadlock_free _) -> true
  | _ -> false

let networks () =
  List.map
    (fun (f : Paper_nets.figure) -> (Paper_nets.name f.f_net, f.f_net.topo))
    (Paper_nets.figures ())
  @ [
    ("family-2", (Paper_nets.family 2).Paper_nets.topo);
    ("mesh-4x4", (Builders.mesh [ 4; 4 ]).Builders.topo);
    ("mesh-4x4-vc2", (Builders.mesh ~vcs:2 [ 4; 4 ]).Builders.topo);
    ("hypercube-3", (Builders.hypercube 3).Builders.topo);
    ("torus-4x4", (Builders.torus [ 4; 4 ]).Builders.topo);
    ("torus-4x4-vc2", (Builders.torus ~vcs:2 [ 4; 4 ]).Builders.topo);
    ("ring-uni-4", (Builders.ring ~unidirectional:true 4).Builders.topo);
    ("ring-uni-6-vc2", (Builders.ring ~unidirectional:true ~vcs:2 6).Builders.topo);
  ]

let run_all ?quick () =
  Wr_pool.map (fun (name, topo) -> run ?quick ~name topo) (networks ())

let json t =
  let verdict = match t.sc_result with Ok _ -> "exists" | Error _ -> "impossible" in
  Printf.sprintf "{\"network\":%s,\"verdict\":\"%s\",\"diagnostics\":%s}"
    ("\"" ^ Diagnostic.json_escape t.sc_network ^ "\"")
    verdict
    (Diagnostic.list_to_json ~topo:t.sc_topology t.sc_diagnostics)

let registry_json ?quick () =
  "[" ^ String.concat "," (List.map json (run_all ?quick ())) ^ "]"
