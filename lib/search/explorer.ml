type msg_template = {
  t_label : string;
  t_src : Topology.node;
  t_dst : Topology.node;
  t_lengths : int list;
  t_holds : (Topology.channel * int) list list;
  t_offsets : int list;
}

type priority_mode = Fifo_only | Follow_order | All_permutations

type space = {
  messages : msg_template list;
  gaps : int list;
  buffers : int list;
  priorities : priority_mode;
}

(* per-run safety cutoff: every swept run finishes long before it *)
let max_cycles = 10_000

let default_space messages =
  {
    messages;
    gaps = [ 0; 1 ];
    buffers = [ 1; 2 ];
    priorities = All_permutations;
  }

let minimal_length_template rt ?(extra = [ 0; 1 ]) ?(holds = [ [] ]) ?(offsets = [ 0 ]) label
    src dst =
  let hops = List.length (Routing.path_exn rt src dst) in
  {
    t_label = label;
    t_src = src;
    t_dst = dst;
    t_lengths = List.map (fun e -> max 1 (hops + e)) extra;
    t_holds = holds;
    t_offsets = offsets;
  }

let intent_template ?(extra = [ -2; -1; 0; 1 ]) ?(holds = [ [] ]) ?offsets net
    (intent : Paper_nets.intent) =
  let span = List.length (Paper_nets.in_cycle_channels net intent) in
  let base = max 1 span in
  let offsets =
    match offsets with
    | Some l -> l
    | None ->
      (* own-source messages do not contend for the shared channel, so the
         interesting injection times are not captured by the serial order;
         sweep a window of extra delays for them *)
      if intent.i_src = net.Paper_nets.source then [ 0 ] else [ 0; 2; 4; 6; 8; 10 ]
  in
  {
    t_label = intent.i_label;
    t_src = intent.i_src;
    t_dst = intent.i_dst;
    t_lengths = List.map (fun e -> max 1 (base + e)) extra;
    t_holds = holds;
    t_offsets = offsets;
  }

type witness = {
  w_schedule : Schedule.t;
  w_config : Engine.config;
  w_info : Engine.deadlock_info;
}

type verdict =
  | No_deadlock of { runs : int }
  | Deadlock_found of { runs : int; witness : witness }

let is_deadlock_found = function Deadlock_found _ -> true | No_deadlock _ -> false

let fact n =
  let rec go acc k = if k <= 1 then acc else go (acc * k) (k - 1) in
  go 1 n

let pow b e =
  let rec go acc k = if k = 0 then acc else go (acc * b) (k - 1) in
  go 1 e

let space_size sp =
  let n = List.length sp.messages in
  let prios = match sp.priorities with All_permutations -> fact n | Fifo_only | Follow_order -> 1 in
  let gaps = pow (List.length sp.gaps) (max 0 (n - 1)) in
  let lengths = List.fold_left (fun acc t -> acc * List.length t.t_lengths) 1 sp.messages in
  let holds = List.fold_left (fun acc t -> acc * List.length t.t_holds) 1 sp.messages in
  let offsets = List.fold_left (fun acc t -> acc * List.length t.t_offsets) 1 sp.messages in
  fact n * prios * gaps * lengths * holds * offsets * List.length sp.buffers

exception Engine_bug of Diagnostic.t

let engine_bug code ~rt ~sched ~cycle msg =
  let context =
    [
      ("algorithm", Routing.name rt);
      ("cycle", string_of_int cycle);
      ( "schedule",
        String.concat ", " (List.map (fun s -> s.Schedule.ms_label) sched) );
    ]
  in
  raise (Engine_bug (Diagnostic.error ~context code (Diagnostic.Algorithm (Routing.name rt)) msg))

(* One task of the parallel sweep: a single (order, priority) cell of the
   outer product, with the whole gap/length/offset/hold/buffer enumeration
   run inside it.  [t_started] counts every [Engine.run] call the task
   issued (including determinism-confirm replays), as opposed to [t_runs]
   which is the sweep's reported tally; the difference between the global
   start count and the canonical-prefix sum of [t_started] is exactly the
   speculative work a parallel sweep discarded. *)
type task_result = { t_runs : int; t_started : int; t_witness : witness option }

let explore ?(stop_at_first = true) ?domains rt sp =
  let n = List.length sp.messages in
  if n = 0 then invalid_arg "Explorer.explore: empty message set";
  List.iter
    (fun t ->
      if t.t_lengths = [] || t.t_holds = [] || t.t_offsets = [] then
        invalid_arg "Explorer.explore: template with empty candidate list")
    sp.messages;
  let templates = Array.of_list sp.messages in
  let gap_arr = Array.of_list sp.gaps in
  (* All permutations of 0..n-1 in [Combinat.iter_permutations] order, so a
     task index maps to exactly the (order, priority) pair the sequential
     nesting would visit at that position. *)
  let perms =
    let acc = ref [] in
    Combinat.iter_permutations (fun p -> acc := Array.copy p :: !acc) (Array.init n Fun.id);
    Array.of_list (List.rev !acc)
  in
  let prios_per_order =
    match sp.priorities with
    | All_permutations -> Array.length perms
    | Fifo_only | Follow_order -> 1
  in
  let ntasks = Array.length perms * prios_per_order in
  (* Every Engine.run call across all tasks and domains, whether or not its
     task's result survives the canonical reduce. *)
  let started = Atomic.make 0 in
  let emit e = match Obs.current () with Some s -> s.Obs.emit e | None -> () in
  let exception Task_done in
  let run_task ~stop ti =
    let order = perms.(ti / prios_per_order) in
    let priority =
      match sp.priorities with
      | Fifo_only -> None
      | Follow_order -> Some order
      | All_permutations -> Some perms.(ti mod prios_per_order)
    in
    let runs = ref 0 in
    let my_started = ref 0 in
    let witness = ref None in
    let note_start () =
      incr my_started;
      ignore (Atomic.fetch_and_add started 1)
    in
    let run ~gap_choice ~len_choice ~hold_choice ~off_choice ~buffer =
      (* a lower-indexed task has already found a witness: this task's
         partial tally is discarded by the reduce, so just bail out *)
      if stop () then raise Task_done;
      let inject_time = Array.make n 0 in
      let t = ref 0 in
      Array.iteri
        (fun j mi ->
          if j > 0 then t := !t + gap_choice.(j - 1);
          inject_time.(mi) <- !t + List.nth templates.(mi).t_offsets off_choice.(mi))
        order;
      let sched =
        List.init n (fun mi ->
            let tpl = templates.(mi) in
            {
              Schedule.ms_label = tpl.t_label;
              ms_src = tpl.t_src;
              ms_dst = tpl.t_dst;
              ms_length = List.nth tpl.t_lengths len_choice.(mi);
              ms_inject_at = inject_time.(mi);
              ms_holds = List.nth tpl.t_holds hold_choice.(mi);
            })
      in
      let arbitration =
        match priority with
        | None -> Engine.Fifo
        | Some p ->
          Engine.Priority (Array.to_list (Array.map (fun mi -> templates.(mi).t_label) p))
      in
      let config =
        { Engine.buffer_capacity = buffer; arbitration; discipline = Engine.Wormhole;
          max_cycles; faults = Fault.empty; recovery = None }
      in
      incr runs;
      note_start ();
      match Engine.run ~config rt sched with
      | Engine.Deadlock info ->
        (* replay to confirm determinism before reporting *)
        let confirmed =
          note_start ();
          match Engine.run ~config rt sched with
          | Engine.Deadlock info' -> info'.Engine.d_cycle = info.Engine.d_cycle
          | _ -> false
        in
        if not confirmed then
          engine_bug "E090" ~rt ~sched ~cycle:info.Engine.d_cycle
            "deadlock witness failed to replay: the engine is not deterministic";
        if info.Engine.d_wait_cycle = [] then
          engine_bug "E091" ~rt ~sched ~cycle:info.Engine.d_cycle
            "reported deadlock has no wait-for cycle";
        let w = { w_schedule = sched; w_config = config; w_info = info } in
        witness := Some w;
        if stop_at_first then raise Task_done
      | Engine.All_delivered _ | Engine.Cutoff _ | Engine.Recovered _ -> ()
    in
    let gap_choice = Array.make (max 0 (n - 1)) 0 in
    let len_choice = Array.make n 0 in
    let hold_choice = Array.make n 0 in
    let off_choice = Array.make n 0 in
    let rec gaps j =
      if j = Array.length gap_choice then lens 0
      else
        for g = 0 to Array.length gap_arr - 1 do
          gap_choice.(j) <- gap_arr.(g);
          gaps (j + 1)
        done
    and lens mi =
      if mi = n then offs 0
      else
        for l = 0 to List.length templates.(mi).t_lengths - 1 do
          len_choice.(mi) <- l;
          lens (mi + 1)
        done
    and offs mi =
      if mi = n then holds 0
      else
        for o = 0 to List.length templates.(mi).t_offsets - 1 do
          off_choice.(mi) <- o;
          offs (mi + 1)
        done
    and holds mi =
      if mi = n then
        List.iter
          (fun b -> run ~gap_choice ~len_choice ~hold_choice ~off_choice ~buffer:b)
          sp.buffers
      else
        for h = 0 to List.length templates.(mi).t_holds - 1 do
          hold_choice.(mi) <- h;
          holds (mi + 1)
        done
    in
    (try gaps 0 with Task_done -> ());
    { t_runs = !runs; t_started = !my_started; t_witness = !witness }
  in
  emit (Obs_event.Search_start { algorithm = Routing.name rt; tasks = ntasks });
  let results =
    Wr_pool.map_until ?domains
      ~hit:(fun r -> stop_at_first && r.t_witness <> None)
      (fun ~stop ti () -> run_task ~stop ti)
      (Array.make ntasks ())
  in
  (* Canonical reduce in task-index order.  With [stop_at_first] the pool
     guarantees every task up to (and including) the least-indexed hit ran
     to its natural end and everything beyond is [None], so the totals and
     the selected witness are byte-identical to the sequential sweep. *)
  let total = ref 0 in
  let canonical_started = ref 0 in
  let last_witness = ref None in
  (try
     Array.iter
       (function
         | None -> raise Exit
         | Some r ->
           total := !total + r.t_runs;
           canonical_started := !canonical_started + r.t_started;
           (match r.t_witness with Some w -> last_witness := Some w | None -> ()))
       results
   with Exit -> ());
  (* Everything started beyond the canonical prefix was speculative work
     whose results the reduce above discarded; report it so run totals
     elsewhere (Engine.run_count, sanitizer summaries) stay exact. *)
  let cancelled = Atomic.get started - !canonical_started in
  Engine.note_runs_cancelled cancelled;
  (match Sanitizer.current () with
  | Some s -> Sanitizer.note_runs_cancelled s cancelled
  | None -> ());
  emit
    (Obs_event.Search_end
       {
         algorithm = Routing.name rt;
         runs = !total;
         cancelled;
         witness = !last_witness <> None;
       });
  match !last_witness with
  | Some w -> Deadlock_found { runs = !total; witness = w }
  | None -> No_deadlock { runs = !total }

let pp_verdict topo ppf = function
  | No_deadlock { runs } -> Format.fprintf ppf "no deadlock in %d runs" runs
  | Deadlock_found { runs; witness } ->
    Format.fprintf ppf "deadlock found after %d runs:@\n" runs;
    Format.fprintf ppf "%a" (Engine.pp_outcome topo) (Engine.Deadlock witness.w_info);
    Format.fprintf ppf "schedule:@\n%a" (Schedule.pp topo) witness.w_schedule
