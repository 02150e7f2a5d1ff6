(* Deadlock detection over the functional wait-for graph; see
   obs_detect.mli for the contract and DESIGN.md section 13 for the
   bounded-latency argument.

   Distinct cycles of a functional graph are vertex-disjoint, so aborting
   any one member of a knot breaks that knot completely and victims for
   different knots never interfere: "minimal victim" is always a single
   message. *)

type victim_policy = Minimal_victim | Youngest | Oldest

let victim_policy_string = function
  | Minimal_victim -> "minimal"
  | Youngest -> "youngest"
  | Oldest -> "oldest"

let victim_policy_of_string = function
  | "minimal" -> Some Minimal_victim
  | "youngest" -> Some Youngest
  | "oldest" -> Some Oldest
  | _ -> None

(* Stramaglia, Keiren & Zantema's taxonomy (arXiv 2101.06015), shared by
   the kernel witness, the online detector and the post-mortem: the three
   layers classify from different evidence but agree on the vocabulary. *)
type deadlock_class = Global | Local | Weak

let deadlock_class_string = function
  | Global -> "global"
  | Local -> "local"
  | Weak -> "weak"

type config = { bound : int; backstop : int; policy : victim_policy }

let default_config = { bound = 16; backstop = 512; policy = Minimal_victim }

type detection = {
  dk_cycle : int;
  dk_formed : int;
  dk_members : (string * Topology.channel) list;
  dk_held : (string * Topology.channel list) list;
  dk_victims : string list;
  dk_class : deadlock_class;
}

(* Walk [k] stamps the nodes it visits with [k + 1] and stops at the first
   node already stamped or at a node without successor.  Stopping on its
   own stamp closes a cycle, entered at that node; stopping on an earlier
   walk's stamp joins a path whose cycle (if any) is already reported.  The
   second pass retraces every walk to restore the zeros.  The local refs
   never escape, so the loops allocate nothing. *)
let find_cycles ~succ ~mark ~starts ~nstarts =
  let found = ref [] in
  for k = 0 to nstarts - 1 do
    let stamp = k + 1 in
    let v = ref starts.(k) in
    while !v >= 0 && mark.(!v) = 0 do
      mark.(!v) <- stamp;
      v := succ.(!v)
    done;
    if !v >= 0 && mark.(!v) = stamp then found := !v :: !found
  done;
  for k = 0 to nstarts - 1 do
    let v = ref starts.(k) in
    while !v >= 0 && mark.(!v) <> 0 do
      mark.(!v) <- 0;
      v := succ.(!v)
    done
  done;
  List.rev !found

let cycle_at succ e =
  let rec go v acc = if v = e then List.rev acc else go succ.(v) (v :: acc) in
  go succ.(e) [ e ]

let cycles succ =
  let n = Array.length succ in
  find_cycles ~succ ~mark:(Array.make n 0) ~starts:(Array.init n Fun.id) ~nstarts:n
  |> List.map (cycle_at succ)

let rotate_to_min = function
  | [] -> []
  | x0 :: _ as cycle ->
    let m = List.fold_left min x0 cycle in
    let rec go before = function
      | x :: rest when x <> m -> go (x :: before) rest
      | from_min -> from_min @ List.rev before
    in
    go [] cycle

let due cfg ~now ~formed ~stall_horizon = now - max formed stall_horizon >= cfg.bound

(* All policies reduce to "smallest key wins" over an (int, int, label)
   triple, so ties always fall through to the label and the choice is
   independent of member order and domain count. *)
let choose_victim policy members =
  let key (l, _, held, since) =
    match policy with
    | Minimal_victim -> (List.length held, -since, l)
    | Youngest -> (0, -since, l)
    | Oldest -> (0, since, l)
  in
  let _, _, l = List.fold_left (fun best m -> min best (key m)) (key (List.hd members)) members in
  l

let confirm cfg ~now ~formed ~delivered members =
  let members = rotate_to_min members in
  {
    dk_cycle = now;
    dk_formed = formed;
    dk_members = List.map (fun (l, c, _, _) -> (l, c)) members;
    dk_held = List.map (fun (l, _, held, _) -> (l, held)) members;
    dk_victims = [ choose_victim cfg.policy members ];
    (* a confirmed knot is a genuine wait cycle, never [Weak]; the split is
       whether anyone else made it out before the knot locked up
       (provisional -- the run-end kernel classification is
       authoritative) *)
    dk_class = (if delivered then Local else Global);
  }
