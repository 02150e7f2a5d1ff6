(* Counters-first telemetry accumulator.  See obs_stats.mli for the
   contract; the short version is: every field is a plain int (or int
   array) the kernel bumps with direct stores, allocation happens only in
   [create], and determinism comes from merging per-run accumulators in
   canonical task-index order rather than sharing state across domains. *)

type t = {
  st_nchan : int;
  st_owned : int array;
  st_busy : int array;
  st_acquired : int array;
  st_waited : int array;
  st_hol : int array;
  st_lat_counts : int array;
  mutable st_lat_sum : int;
  mutable st_lat_max : int;
  mutable st_delivered : int;
  mutable st_blocked : int;
  mutable st_runs : int;
  mutable st_cycles : int;
  mutable st_ph_arb : int;
  mutable st_ph_claim : int;
  mutable st_ph_advance : int;
  mutable st_ph_fault : int;
  mutable st_ph_detect : int;
  st_disc_runs : int array;
  st_classes : int array;
  st_outcomes : int array;
  st_aborts : int array;
  mutable st_retries : int;
  mutable st_gave_up : int;
  mutable st_detections : int;
  mutable st_victims : int;
  st_faults : int array;
}

(* fixed slot orders for the small labelled rows *)
let disciplines = [| "wormhole"; "virtual-cut-through"; "store-and-forward" |]
let classes = [| "global"; "local"; "weak" |]
let outcomes = [| "all-delivered"; "cutoff"; "deadlock"; "recovered" |]
let abort_reasons = [| "deadlock"; "drop"; "watchdog" |]
let fault_kinds = [| "drop"; "drop-fired"; "failure"; "stall" |]

let lat_bounds = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 |]
let n_buckets = Array.length lat_bounds

let create ~nchan =
  {
    st_nchan = nchan;
    st_owned = Array.make (max nchan 1) 0;
    st_busy = Array.make (max nchan 1) 0;
    st_acquired = Array.make (max nchan 1) 0;
    st_waited = Array.make (max nchan 1) 0;
    st_hol = Array.make (max nchan 1) 0;
    st_lat_counts = Array.make (n_buckets + 1) 0;
    st_lat_sum = 0;
    st_lat_max = 0;
    st_delivered = 0;
    st_blocked = 0;
    st_runs = 0;
    st_cycles = 0;
    st_ph_arb = 0;
    st_ph_claim = 0;
    st_ph_advance = 0;
    st_ph_fault = 0;
    st_ph_detect = 0;
    st_disc_runs = Array.make (Array.length disciplines) 0;
    st_classes = Array.make (Array.length classes) 0;
    st_outcomes = Array.make (Array.length outcomes) 0;
    st_aborts = Array.make (Array.length abort_reasons) 0;
    st_retries = 0;
    st_gave_up = 0;
    st_detections = 0;
    st_victims = 0;
    st_faults = Array.make (Array.length fault_kinds) 0;
  }

let clear a = Array.fill a 0 (Array.length a) 0

let reset t =
  clear t.st_owned;
  clear t.st_busy;
  clear t.st_acquired;
  clear t.st_waited;
  clear t.st_hol;
  clear t.st_lat_counts;
  clear t.st_disc_runs;
  clear t.st_classes;
  clear t.st_outcomes;
  clear t.st_aborts;
  clear t.st_faults;
  t.st_lat_sum <- 0;
  t.st_lat_max <- 0;
  t.st_delivered <- 0;
  t.st_blocked <- 0;
  t.st_runs <- 0;
  t.st_cycles <- 0;
  t.st_ph_arb <- 0;
  t.st_ph_claim <- 0;
  t.st_ph_advance <- 0;
  t.st_ph_fault <- 0;
  t.st_ph_detect <- 0;
  t.st_retries <- 0;
  t.st_gave_up <- 0;
  t.st_detections <- 0;
  t.st_victims <- 0

let merge ~into src =
  if into.st_nchan <> src.st_nchan then
    invalid_arg
      (Printf.sprintf "Obs_stats.merge: nchan mismatch (%d vs %d)"
         into.st_nchan src.st_nchan);
  (* every row is sized identically on both sides once nchan agrees *)
  let add dst s =
    for i = 0 to Array.length s - 1 do
      dst.(i) <- dst.(i) + s.(i)
    done
  in
  add into.st_owned src.st_owned;
  add into.st_busy src.st_busy;
  add into.st_acquired src.st_acquired;
  add into.st_waited src.st_waited;
  add into.st_hol src.st_hol;
  add into.st_lat_counts src.st_lat_counts;
  into.st_lat_sum <- into.st_lat_sum + src.st_lat_sum;
  into.st_lat_max <- max into.st_lat_max src.st_lat_max;
  into.st_delivered <- into.st_delivered + src.st_delivered;
  into.st_blocked <- into.st_blocked + src.st_blocked;
  into.st_runs <- into.st_runs + src.st_runs;
  into.st_cycles <- into.st_cycles + src.st_cycles;
  into.st_ph_arb <- into.st_ph_arb + src.st_ph_arb;
  into.st_ph_claim <- into.st_ph_claim + src.st_ph_claim;
  into.st_ph_advance <- into.st_ph_advance + src.st_ph_advance;
  into.st_ph_fault <- into.st_ph_fault + src.st_ph_fault;
  into.st_ph_detect <- into.st_ph_detect + src.st_ph_detect;
  add into.st_disc_runs src.st_disc_runs;
  add into.st_classes src.st_classes;
  add into.st_outcomes src.st_outcomes;
  add into.st_aborts src.st_aborts;
  into.st_retries <- into.st_retries + src.st_retries;
  into.st_gave_up <- into.st_gave_up + src.st_gave_up;
  into.st_detections <- into.st_detections + src.st_detections;
  into.st_victims <- into.st_victims + src.st_victims;
  add into.st_faults src.st_faults

let none = create ~nchan:0

let observe_latency t lat =
  t.st_delivered <- t.st_delivered + 1;
  t.st_lat_sum <- t.st_lat_sum + lat;
  if lat > t.st_lat_max then t.st_lat_max <- lat;
  (* linear walk: 13 bounds, delivery is a cold event next to the cycle
     sweeps, and the walk allocates nothing *)
  let i = ref 0 in
  while !i < n_buckets && lat > lat_bounds.(!i) do
    incr i
  done;
  t.st_lat_counts.(!i) <- t.st_lat_counts.(!i) + 1

(* -- derived quantities ------------------------------------------------ *)

let utilization t c =
  if t.st_cycles = 0 then 0.0
  else float_of_int t.st_busy.(c) /. float_of_int t.st_cycles

let percentile t q =
  if t.st_delivered = 0 then 0
  else begin
    (* smallest bound whose cumulative count covers q% of deliveries;
       ceil so p100 always lands on a populated bucket *)
    let target =
      let n = float_of_int t.st_delivered *. q /. 100.0 in
      max 1 (int_of_float (ceil n))
    in
    let cum = ref 0 and i = ref 0 in
    while !i < n_buckets && !cum + t.st_lat_counts.(!i) < target do
      cum := !cum + t.st_lat_counts.(!i);
      incr i
    done;
    if !i < n_buckets then lat_bounds.(!i) else t.st_lat_max
  end

let top_blocking ?(k = 3) t =
  let all = ref [] in
  for c = t.st_nchan - 1 downto 0 do
    if t.st_hol.(c) > 0 then all := (c, t.st_hol.(c)) :: !all
  done;
  let sorted =
    List.stable_sort (fun (_, a) (_, b) -> compare b a) !all
  in
  List.filteri (fun i _ -> i < k) sorted

(* -- renderers --------------------------------------------------------- *)

let chan_name topo c =
  match topo with
  | Some t -> Topology.channel_name t c
  | None -> Printf.sprintf "channel#%d" c

(* a channel earns a row/series once any of its counters is nonzero; the
   predicate is a pure function of accumulator values, so the filtered
   output stays byte-deterministic *)
let active t c =
  t.st_owned.(c) > 0 || t.st_busy.(c) > 0 || t.st_acquired.(c) > 0
  || t.st_waited.(c) > 0
  || t.st_hol.(c) > 0

let to_prometheus ?topo t =
  let channels name help value_of =
    let rows = ref [] in
    for c = t.st_nchan - 1 downto 0 do
      if active t c then rows := ([ ("channel", chan_name topo c) ], value_of c) :: !rows
    done;
    Obs_prom.counter ~help name !rows
  in
  let scalar name help v = Obs_prom.counter ~help name [ ([], v) ] in
  let by label slots row name help =
    Obs_prom.counter ~help name
      (Array.to_list (Array.mapi (fun i s -> ([ (label, s) ], row.(i))) slots))
  in
  (* families in name order *)
  Obs_prom.render
    [
      by "reason" abort_reasons t.st_aborts "wormhole_stats_aborts_total"
        "recovery aborts by reason";
      channels "wormhole_stats_channel_acquisitions_total"
        "successful channel acquisitions (awards/claims)" (fun c -> t.st_acquired.(c));
      channels "wormhole_stats_channel_busy_cycles_total"
        "cycles the channel held at least one buffered flit" (fun c -> t.st_busy.(c));
      channels "wormhole_stats_channel_hol_blocked_cycles_total"
        "waiter-cycles attributed to the channel as head of the wait chain" (fun c ->
          t.st_hol.(c));
      channels "wormhole_stats_channel_owned_cycles_total"
        "cycles the channel was owned by some message" (fun c -> t.st_owned.(c));
      channels "wormhole_stats_channel_wait_cycles_total"
        "waiter-cycles spent blocked on the channel" (fun c -> t.st_waited.(c));
      scalar "wormhole_stats_cycles_total" "kernel cycles accumulated" t.st_cycles;
      scalar "wormhole_stats_deadlocks_detected_total"
        "deadlock knots confirmed by the online detector" t.st_detections;
      by "class" classes t.st_classes "wormhole_stats_deadlocks_total"
        "deadlock outcomes by Stramaglia-Keiren-Zantema class";
      scalar "wormhole_stats_delivered_total" "messages delivered" t.st_delivered;
      by "kind" fault_kinds t.st_faults "wormhole_stats_faults_total"
        "fault-plan events by kind (planned at run start, drops as they fire)";
      scalar "wormhole_stats_gave_up_total"
        "messages abandoned: dropped without recovery or out of retries" t.st_gave_up;
      Obs_prom.histogram ~help:"injection-to-delivery latency"
        "wormhole_stats_latency_cycles" ~bounds:lat_bounds ~counts:t.st_lat_counts
        ~sum:t.st_lat_sum;
      by "outcome" outcomes t.st_outcomes "wormhole_stats_outcomes_total"
        "finished runs by outcome";
      Obs_prom.counter ~help:"per-phase message visits" "wormhole_stats_phase_work_total"
        [
          ([ ("phase", "advance") ], t.st_ph_advance);
          ([ ("phase", "arbitration") ], t.st_ph_arb);
          ([ ("phase", "claims") ], t.st_ph_claim);
          ([ ("phase", "detect") ], t.st_ph_detect);
          ([ ("phase", "fault") ], t.st_ph_fault);
        ];
      scalar "wormhole_stats_retries_total" "messages rescheduled after an abort"
        t.st_retries;
      by "discipline" disciplines t.st_disc_runs "wormhole_stats_runs_by_discipline_total"
        "runs per switching discipline";
      scalar "wormhole_stats_runs_total" "simulator runs accumulated" t.st_runs;
      scalar "wormhole_stats_victims_aborted_total" "messages aborted as deadlock victims"
        t.st_victims;
    ]

let to_json ?topo t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"schema\":\"wormhole-stats/1\"";
  Buffer.add_string buf
    (Printf.sprintf ",\"nchan\":%d,\"runs\":%d,\"cycles\":%d" t.st_nchan
       t.st_runs t.st_cycles);
  Buffer.add_string buf
    (Printf.sprintf ",\"delivered\":%d,\"blocked_cycles\":%d" t.st_delivered
       t.st_blocked);
  Buffer.add_string buf ",\"latency\":{\"buckets\":[";
  for i = 0 to n_buckets - 1 do
    if i > 0 then Buffer.add_char buf ',';
    Buffer.add_string buf
      (Printf.sprintf "{\"le\":%d,\"count\":%d}" lat_bounds.(i)
         t.st_lat_counts.(i))
  done;
  Buffer.add_string buf
    (Printf.sprintf "],\"overflow\":%d,\"sum\":%d,\"max\":%d}"
       t.st_lat_counts.(n_buckets) t.st_lat_sum t.st_lat_max);
  Buffer.add_string buf
    (Printf.sprintf
       ",\"phases\":{\"arbitration\":%d,\"claims\":%d,\"advance\":%d,\"fault\":%d,\"detect\":%d}"
       t.st_ph_arb t.st_ph_claim t.st_ph_advance t.st_ph_fault t.st_ph_detect);
  let row name slots counts =
    Buffer.add_string buf (Printf.sprintf ",\"%s\":{" name);
    Array.iteri
      (fun i s ->
        Buffer.add_string buf
          (Printf.sprintf "%s\"%s\":%d" (if i > 0 then "," else "") s counts.(i)))
      slots;
    Buffer.add_char buf '}'
  in
  row "disciplines" disciplines t.st_disc_runs;
  row "deadlocks" classes t.st_classes;
  row "outcomes" outcomes t.st_outcomes;
  row "aborts" abort_reasons t.st_aborts;
  Buffer.add_string buf
    (Printf.sprintf ",\"retries\":%d,\"gave_up\":%d,\"detections\":%d,\"victims\":%d"
       t.st_retries t.st_gave_up t.st_detections t.st_victims);
  row "faults" fault_kinds t.st_faults;
  Buffer.add_string buf ",\"channels\":[";
  let first = ref true in
  for c = 0 to t.st_nchan - 1 do
    if active t c then begin
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           "{\"id\":%d,\"name\":\"%s\",\"owned\":%d,\"busy\":%d,\"acquired\":%d,\"wait\":%d,\"hol\":%d}"
           c
           (Diagnostic.json_escape (chan_name topo c))
           t.st_owned.(c) t.st_busy.(c) t.st_acquired.(c) t.st_waited.(c)
           t.st_hol.(c))
    end
  done;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let heatmap ?(width = 40) ?topo t =
  let actives = ref [] in
  for c = t.st_nchan - 1 downto 0 do
    if active t c then actives := c :: !actives
  done;
  match !actives with
  | [] -> ""
  | channels ->
      let name_width =
        List.fold_left
          (fun w c -> max w (String.length (chan_name topo c)))
          7 channels
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf "%-*s  %5s  %s  %6s %6s %6s\n" name_width "channel"
           "util" (String.make width ' ') "acq" "wait" "hol");
      List.iter
        (fun c ->
          let u = utilization t c in
          let filled =
            (* ceil so any nonzero utilization shows at least one mark *)
            min width (int_of_float (ceil (u *. float_of_int width)))
          in
          let bar =
            String.make filled '#' ^ String.make (width - filled) '.'
          in
          Buffer.add_string buf
            (Printf.sprintf "%-*s  %4.0f%%  %s  %6d %6d %6d\n" name_width
               (chan_name topo c) (u *. 100.0) bar t.st_acquired.(c)
               t.st_waited.(c) t.st_hol.(c)))
        channels;
      Buffer.contents buf

let summary ?(top = 3) ?topo t =
  let buf = Buffer.create 512 in
  let tbl = Table.create ~aligns:[ Table.Left; Table.Right ] [ "metric"; "value" ] in
  let pct q =
    if t.st_delivered = 0 then "-"
    else
      let v = percentile t q in
      (* a bucket bound at or above the observed max collapses to the
         exact max; anything else is the bucket's upper bound *)
      if v >= t.st_lat_max then string_of_int t.st_lat_max
      else "<=" ^ string_of_int v
  in
  Table.add_row tbl [ "runs"; string_of_int t.st_runs ];
  Table.add_row tbl [ "cycles"; string_of_int t.st_cycles ];
  Table.add_row tbl [ "delivered"; string_of_int t.st_delivered ];
  Table.add_row tbl [ "p50 latency (cycles)"; pct 50.0 ];
  Table.add_row tbl [ "p90 latency (cycles)"; pct 90.0 ];
  Table.add_row tbl [ "p99 latency (cycles)"; pct 99.0 ];
  Table.add_row tbl [ "max latency (cycles)"; string_of_int t.st_lat_max ];
  let max_util = ref 0.0 and max_util_c = ref (-1) in
  for c = 0 to t.st_nchan - 1 do
    let u = utilization t c in
    if u > !max_util then begin
      max_util := u;
      max_util_c := c
    end
  done;
  Table.add_row tbl
    [
      "max channel util";
      (if !max_util_c < 0 then "-"
       else
         Printf.sprintf "%.1f%% (%s)" (!max_util *. 100.0)
           (chan_name topo !max_util_c));
    ];
  Table.add_row tbl [ "blocked cycles"; string_of_int t.st_blocked ];
  Buffer.add_string buf (Table.render tbl);
  Buffer.add_char buf '\n';
  (match top_blocking ~k:top t with
  | [] -> Buffer.add_string buf "no head-of-line blocking recorded\n"
  | tops ->
      let bt =
        Table.create
          ~aligns:[ Table.Left; Table.Right; Table.Right ]
          [ "blocking channel"; "hol-cycles"; "wait-cycles" ]
      in
      List.iter
        (fun (c, hol) ->
          Table.add_row bt
            [
              chan_name topo c; string_of_int hol; string_of_int t.st_waited.(c);
            ])
        tops;
      Buffer.add_string buf (Table.render bt));
  Buffer.contents buf
