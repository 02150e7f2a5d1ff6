type source_kind = Shared | Own of string

type msg_spec = {
  m_label : string;
  m_source : source_kind;
  m_access : int;
  m_entry : int;
  m_dist : int;
}

type spec = {
  s_name : string;
  s_ring_len : int;
  s_msgs : msg_spec list;
}

type intent = {
  i_label : string;
  i_src : Topology.node;
  i_dst : Topology.node;
  i_path : Topology.channel list;
}

type net = {
  n_spec : spec;
  topo : Topology.t;
  source : Topology.node;
  hub : Topology.node;
  cs : Topology.channel;
  ring_nodes : Topology.node array;
  ring_channels : Topology.channel array;
  intents : intent list;
}

let validate spec =
  let l = spec.s_ring_len in
  if l < 3 then invalid_arg "Paper_nets: ring_len < 3";
  if spec.s_msgs = [] then invalid_arg "Paper_nets: no messages";
  let labels = List.map (fun m -> m.m_label) spec.s_msgs in
  if List.length (List.sort_uniq compare labels) <> List.length labels then
    invalid_arg "Paper_nets: duplicate message labels";
  List.iter
    (fun m ->
      if m.m_access < 1 then invalid_arg "Paper_nets: access < 1";
      if m.m_entry < 0 || m.m_entry >= l then invalid_arg "Paper_nets: entry out of range";
      if m.m_dist < 1 || m.m_dist > l then invalid_arg "Paper_nets: dist out of range")
    spec.s_msgs

(* Ring node names reflect their roles in the figures: entry positions are
   P<i>, destination positions D<i>, plain positions R<pos>. *)
let ring_node_names spec =
  let l = spec.s_ring_len in
  let names = Array.make l "" in
  List.iteri
    (fun i m -> names.(m.m_entry) <- names.(m.m_entry) ^ Printf.sprintf "P%d" (i + 1))
    spec.s_msgs;
  List.iteri
    (fun i m ->
      let d = (m.m_entry + m.m_dist) mod l in
      names.(d) <- names.(d) ^ Printf.sprintf "D%d" (i + 1))
    spec.s_msgs;
  Array.mapi (fun pos n -> if n = "" then Printf.sprintf "R%d" pos else n) names

let build spec =
  validate spec;
  let l = spec.s_ring_len in
  let topo = Topology.create () in
  let source = Topology.add_node topo "Src" in
  let hub = Topology.add_node topo "N*" in
  let names = ring_node_names spec in
  let ring_nodes = Array.map (Topology.add_node topo) names in
  let ring_channels =
    Array.init l (fun i -> Topology.add_channel topo ring_nodes.(i) ring_nodes.((i + 1) mod l))
  in
  let cs = Topology.add_channel topo source hub in
  (* Access chains.  The first channel out of the chain's origin is reused if
     it already exists (several messages may share an access prefix). *)
  let ensure_channel a b =
    match Topology.find_channel topo a b with
    | Some c -> c
    | None -> Topology.add_channel topo a b
  in
  let access_chain origin label access entry =
    let target = ring_nodes.(entry) in
    if access = 1 then [ ensure_channel origin target ]
    else begin
      let rec chain prev k acc =
        if k = access - 1 then List.rev (ensure_channel prev target :: acc)
        else begin
          let mid = Topology.add_node topo (Printf.sprintf "a%s_%d" label (k + 1)) in
          chain mid (k + 1) (ensure_channel prev mid :: acc)
        end
      in
      chain origin 0 []
    end
  in
  let intents =
    List.map
      (fun m ->
        let dest_pos = (m.m_entry + m.m_dist) mod l in
        let ring_part = List.init m.m_dist (fun k -> ring_channels.((m.m_entry + k) mod l)) in
        match m.m_source with
        | Shared ->
          let chain = access_chain hub m.m_label m.m_access m.m_entry in
          {
            i_label = m.m_label;
            i_src = source;
            i_dst = ring_nodes.(dest_pos);
            i_path = (cs :: chain) @ ring_part;
          }
        | Own name ->
          let own = Topology.add_node topo name in
          let chain = access_chain own m.m_label m.m_access m.m_entry in
          {
            i_label = m.m_label;
            i_src = own;
            i_dst = ring_nodes.(dest_pos);
            i_path = chain @ ring_part;
          })
      spec.s_msgs
  in
  (* Hub connectivity for strong connectivity and default routes. *)
  List.iter
    (fun v ->
      if v <> hub then begin
        ignore (ensure_channel v hub);
        ignore (ensure_channel hub v)
      end)
    (Topology.nodes topo);
  { n_spec = spec; topo; source; hub; cs; ring_nodes; ring_channels; intents }

let in_cycle_channels net intent =
  let on_ring c = Array.exists (fun r -> r = c) net.ring_channels in
  List.filter on_ring intent.i_path

let access_channel_count net intent =
  let on_ring c = Array.exists (fun r -> r = c) net.ring_channels in
  let rec count n = function
    | [] -> n
    | c :: rest -> if on_ring c then n else count (n + if c = net.cs then 0 else 1) rest
  in
  count 0 intent.i_path

let check_blocking_chain net =
  let intents = Array.of_list net.intents in
  let n = Array.length intents in
  let l = Array.length net.ring_channels in
  let spec_msgs = Array.of_list net.n_spec.s_msgs in
  let errors = ref [] in
  let descs = ref [] in
  for i = 0 to n - 1 do
    let mi = spec_msgs.(i) and mj = spec_msgs.((i + 1) mod n) in
    (* Channel into Mi's destination is ring channel at position dest-1. *)
    let dest = (mi.m_entry + mi.m_dist) mod l in
    let into_dest = (dest - 1 + l) mod l in
    (* Mj's in-cycle channels are positions entry .. entry+dist-1. *)
    let covers =
      let rec scan k = k < mj.m_dist && ((mj.m_entry + k) mod l = into_dest || scan (k + 1)) in
      scan 0
    in
    if covers then
      descs :=
        Printf.sprintf "%s blocked by %s at ring channel %d" mi.m_label mj.m_label into_dest
        :: !descs
    else
      errors :=
        Printf.sprintf "%s's destination channel (ring %d) is not on %s's in-cycle path"
          mi.m_label into_dest mj.m_label
        :: !errors
  done;
  match !errors with
  | [] -> Ok (String.concat "; " (List.rev !descs))
  | e :: _ -> Error e

(* Section-6 family.  [family 1] reproduces the Figure-1 geometry: ring
   P1(0) D4(1) P2(2) D1(3) P3(4) P4(5) D2(6) D3(7), access distances 2/3,
   in-cycle distances 3/4. *)
let family p =
  if p < 1 then invalid_arg "Paper_nets.family: p < 1";
  let l = 8 * p in
  let spec =
    {
      s_name = Printf.sprintf "family-%d" p;
      s_ring_len = l;
      s_msgs =
        [
          { m_label = "M1"; m_source = Shared; m_access = p + 1; m_entry = 0; m_dist = (2 * p) + 1 };
          { m_label = "M2"; m_source = Shared; m_access = p + 2; m_entry = 2 * p; m_dist = (2 * p) + 2 };
          { m_label = "M3"; m_source = Shared; m_access = p + 1; m_entry = 4 * p; m_dist = (2 * p) + 1 };
          {
            m_label = "M4";
            m_source = Shared;
            m_access = p + 2;
            m_entry = (6 * p) - 1;
            m_dist = (2 * p) + 2;
          };
        ];
    }
  in
  build spec

let figure1 () =
  let net = family 1 in
  { net with n_spec = { net.n_spec with s_name = "figure1" } }

let figure2 () =
  build
    {
      s_name = "figure2";
      s_ring_len = 6;
      s_msgs =
        [
          { m_label = "M1"; m_source = Shared; m_access = 2; m_entry = 0; m_dist = 4 };
          { m_label = "M2"; m_source = Shared; m_access = 3; m_entry = 3; m_dist = 4 };
        ];
    }

(* Figure-3 instances.  The OCR of the paper loses the exact drawn
   geometries, so these are concrete networks constructed (and calibrated
   against the exhaustive schedule search) to exhibit the behaviour the
   text ascribes to each sub-figure: (a) and (b) are false resource cycles,
   (c)-(f) admit deadlock, each via the mechanism the paper describes.
   Sharer accesses are 2/3/4 throughout; entries are listed in ring order. *)
let figure3 case =
  let mk name msgs ring_len = build { s_name = name; s_ring_len = ring_len; s_msgs = msgs } in
  let shared label access entry dist =
    { m_label = label; m_source = Shared; m_access = access; m_entry = entry; m_dist = dist }
  in
  match case with
  | `A ->
    (* All three sharers use more channels within the cycle (5) than from cs
       to the cycle (2/3/4), and cyclically the longest-access message (M3)
       is followed by the shortest (M1).  Unreachable: the serial order
       through cs can never let every blocker arrive in time. *)
    mk "figure3a" [ shared "M1" 2 0 5; shared "M2" 3 3 5; shared "M3" 4 6 5 ] 9
  | `B ->
    (* The shortest-access sharer (M1) uses no more channels within the
       cycle (2) than from cs to the cycle (2), so it could be parked
       outside the cycle -- but every message that could hold its entry
       channel also uses cs and hence cannot block it long enough.  Still
       unreachable. *)
    mk "figure3b" [ shared "M1" 2 0 2; shared "M2" 3 1 4; shared "M3" 4 4 5 ] 8
  | `C ->
    (* Condition-4 mechanism: the longest-access sharer (M3) uses no more
       channels within the cycle (3) than from cs to the cycle (4), and its
       cyclic predecessor MX does NOT use cs.  A long MX parks M3 outside
       the cycle indefinitely, reducing the situation to two cs-sharers
       (Theorem 4) -> deadlock. *)
    mk "figure3c"
      [
        { m_label = "MX"; m_source = Own "SX"; m_access = 2; m_entry = 0; m_dist = 6 };
        shared "M3" 4 2 3;
        shared "M1" 2 5 4;
        shared "M2" 3 8 5;
      ]
      12
  | `D ->
    (* Ordering mechanism: cyclically the longest-access sharer (M2, access
       4) is followed by the middle one (M3, access 3) -- the paper's
       condition 1 fails.  Injecting in cycle order with minimal lengths
       lets every blocker arrive exactly in time -> deadlock. *)
    mk "figure3d" [ shared "M1" 2 0 4; shared "M2" 4 3 4; shared "M3" 3 6 4 ] 9
  | `E ->
    (* Interposition mechanism (condition 7): a non-cs message MX interposed
       between the longest-access sharer (M3) and the shortest (M1) spans
       deep into the ring, providing the slack the cs serialization denies
       -> deadlock. *)
    mk "figure3e"
      [
        shared "M3" 4 0 4;
        { m_label = "MX"; m_source = Own "SX"; m_access = 2; m_entry = 3; m_dist = 7 };
        shared "M1" 2 5 4;
        shared "M2" 3 8 5;
      ]
      12
  | `F ->
    (* The paper's fourth-message case: S4->D4 does not use the shared
       channel; injected late, it bridges M1 and M2 (condition 8 fails)
       -> deadlock. *)
    mk "figure3f"
      [
        shared "M3" 4 0 4;
        shared "M1" 2 3 3;
        { m_label = "M4"; m_source = Own "S4"; m_access = 2; m_entry = 5; m_dist = 4 };
        shared "M2" 3 8 5;
      ]
      12

type figure = { f_net : net; f_deadlock : bool }

let figures () =
  let fig net deadlock = { f_net = net; f_deadlock = deadlock } in
  [
    fig (figure1 ()) false;
    fig (figure2 ()) true;
    fig (figure3 `A) false;
    fig (figure3 `B) false;
    fig (figure3 `C) true;
    fig (figure3 `D) true;
    fig (figure3 `E) true;
    fig (figure3 `F) true;
  ]

let name net = net.n_spec.s_name

let find n = List.find_opt (fun f -> name f.f_net = n) (figures ())
