(* Chrome trace_event exporter.

   Renders a recorded event stream as the JSON Array Format understood by
   chrome://tracing and Perfetto: channel occupancies become "X" complete
   events on pid 0 (one tid per channel), message lifetimes become "X"
   events on pid 1 (one tid per message label), and point phenomena
   (delivery, abort, retry, faults, sanitizer trips) become "i" instant
   events.  Cycles map 1:1 to microseconds, so a 40-cycle run renders as a
   40us trace. *)

let esc = Diagnostic.json_escape

type open_span = { os_start : int; os_label : string }

let to_json ?topo events =
  let chan_name c =
    match topo with
    | Some t -> Topology.channel_name t c
    | None -> Printf.sprintf "channel#%d" c
  in
  let final_cycle =
    List.fold_left
      (fun acc e -> match Obs_event.cycle_of e with Some c when c > acc -> c | _ -> acc)
      0 events
  in
  let buf = Buffer.create 4096 in
  let first = ref true in
  let add_obj fields =
    if not !first then Buffer.add_string buf ",";
    first := false;
    Buffer.add_string buf "{";
    Buffer.add_string buf (String.concat "," fields);
    Buffer.add_string buf "}"
  in
  let str k v = Printf.sprintf "\"%s\":\"%s\"" k (esc v) in
  let num k v = Printf.sprintf "\"%s\":%d" k v in
  let complete ~pid ~tid ~name ~cat ~ts ~dur args =
    add_obj
      ([ str "name" name; str "cat" cat; str "ph" "X"; num "pid" pid; num "tid" tid;
         num "ts" ts; num "dur" dur ]
      @ (if args = [] then [] else [ "\"args\":{" ^ String.concat "," args ^ "}" ]))
  in
  let instant ~pid ~tid ~name ~cat ~ts args =
    add_obj
      ([ str "name" name; str "cat" cat; str "ph" "i"; str "s" "t"; num "pid" pid;
         num "tid" tid; num "ts" ts ]
      @ (if args = [] then [] else [ "\"args\":{" ^ String.concat "," args ^ "}" ]))
  in
  Buffer.add_string buf "{\"traceEvents\":[";
  add_obj [ str "name" "process_name"; str "ph" "M"; num "pid" 0;
            "\"args\":{\"name\":\"channels\"}" ];
  add_obj [ str "name" "process_name"; str "ph" "M"; num "pid" 1;
            "\"args\":{\"name\":\"messages\"}" ];
  (* Message labels get tids in order of first appearance. *)
  let msg_tids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let msg_tid label =
    match Hashtbl.find_opt msg_tids label with
    | Some tid -> tid
    | None ->
      let tid = Hashtbl.length msg_tids in
      Hashtbl.add msg_tids label tid;
      add_obj [ str "name" "thread_name"; str "ph" "M"; num "pid" 1; num "tid" tid;
                "\"args\":{\"name\":\"" ^ esc label ^ "\"}" ];
      tid
  in
  let named_channels : (Topology.channel, unit) Hashtbl.t = Hashtbl.create 16 in
  let chan_tid c =
    if not (Hashtbl.mem named_channels c) then begin
      Hashtbl.add named_channels c ();
      add_obj [ str "name" "thread_name"; str "ph" "M"; num "pid" 0; num "tid" c;
                "\"args\":{\"name\":\"" ^ esc (chan_name c) ^ "\"}" ]
    end;
    c
  in
  (* Channel occupancy spans: acquire opens, release closes. *)
  let chan_open : (Topology.channel, open_span) Hashtbl.t = Hashtbl.create 16 in
  (* Message lifetime spans: first labelled activity opens, delivery /
     abort / giving up closes (a retry's next activity reopens). *)
  let msg_open : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let touch_msg label cycle =
    if not (Hashtbl.mem msg_open label) then Hashtbl.replace msg_open label cycle
  in
  let close_msg ~name ~cat label cycle args =
    let tid = msg_tid label in
    (match Hashtbl.find_opt msg_open label with
    | Some start ->
      Hashtbl.remove msg_open label;
      complete ~pid:1 ~tid ~name:label ~cat:"message" ~ts:start ~dur:(max 0 (cycle - start)) []
    | None -> ());
    instant ~pid:1 ~tid ~name ~cat ~ts:cycle args
  in
  List.iter
    (fun (e : Obs_event.t) ->
      match e with
      | Run_start _ | Search_start _ | Search_end _ -> ()
      | Run_end _ -> ()
      | Channel_acquire { cycle; label; channel; waited } ->
        touch_msg label cycle;
        let tid = chan_tid channel in
        (match Hashtbl.find_opt chan_open channel with
        | Some os ->
          (* A re-acquire without a release closes the stale span. *)
          complete ~pid:0 ~tid ~name:os.os_label ~cat:"channel" ~ts:os.os_start
            ~dur:(max 0 (cycle - os.os_start)) []
        | None -> ());
        Hashtbl.replace chan_open channel { os_start = cycle; os_label = label };
        if waited > 0 then
          instant ~pid:0 ~tid ~name:(label ^ " waited") ~cat:"wait" ~ts:cycle
            [ num "cycles" waited ]
      | Channel_release { cycle; channel; _ } -> (
        let tid = chan_tid channel in
        match Hashtbl.find_opt chan_open channel with
        | Some os ->
          Hashtbl.remove chan_open channel;
          complete ~pid:0 ~tid ~name:os.os_label ~cat:"channel" ~ts:os.os_start
            ~dur:(max 0 (cycle - os.os_start)) []
        | None -> ())
      | Wait_add { cycle; label; channel; holder } ->
        touch_msg label cycle;
        instant ~pid:0 ~tid:(chan_tid channel) ~name:(label ^ " blocked") ~cat:"wait"
          ~ts:cycle
          (match holder with Some h -> [ str "holder" h ] | None -> [])
      | Wait_drop _ -> ()
      | Flit { cycle; label; _ } -> touch_msg label cycle
      | Delivered { cycle; label; latency } ->
        close_msg ~name:"delivered" ~cat:"delivery" label cycle [ num "latency" latency ]
      | Abort { cycle; label; retries; reason } ->
        close_msg ~name:"abort" ~cat:"recovery" label cycle
          [ str "reason" reason; num "retries" retries ]
      | Retry { cycle; label; resume_at } ->
        instant ~pid:1 ~tid:(msg_tid label) ~name:"retry" ~cat:"recovery" ~ts:cycle
          [ num "resume_at" resume_at ]
      | Gave_up { cycle; label; fate } ->
        close_msg ~name:"gave-up" ~cat:"recovery" label cycle [ str "fate" fate ]
      | Fault { cycle; kind; channel; label; duration } ->
        let tid = match channel with Some c -> chan_tid c | None -> 0 in
        instant ~pid:0 ~tid ~name:("fault " ^ Obs_event.fault_kind_string kind) ~cat:"fault"
          ~ts:cycle
          ((match label with Some l -> [ str "message" l ] | None -> [])
          @ if duration > 0 then [ num "duration" duration ] else [])
      | Deadlock_detected { cycle; members; victims; _ } ->
        instant ~pid:0 ~tid:0 ~name:"deadlock detected" ~cat:"detection" ~ts:cycle
          [ str "members" (String.concat " -> " members);
            str "victims" (String.concat ", " victims) ]
      | Victim_aborted { cycle; label; policy } ->
        instant ~pid:1 ~tid:(msg_tid label) ~name:"deadlock victim" ~cat:"detection"
          ~ts:cycle [ str "policy" policy ]
      | Sanitizer_trip d ->
        instant ~pid:0 ~tid:0 ~name:("sanitizer " ^ d.Diagnostic.code) ~cat:"sanitizer"
          ~ts:(match Obs_event.cycle_of e with Some c -> c | None -> final_cycle)
          [ str "message" d.Diagnostic.message ])
    events;
  (* Close anything still open at the end of the stream (deadlocked owners
     never release; deadlocked messages never deliver). *)
  let open_chans =
    Hashtbl.fold (fun c os acc -> (c, os) :: acc) chan_open []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (c, os) ->
      complete ~pid:0 ~tid:(chan_tid c) ~name:os.os_label ~cat:"channel" ~ts:os.os_start
        ~dur:(max 0 (final_cycle - os.os_start))
        [ "\"released\":false" ])
    open_chans;
  let open_msgs =
    Hashtbl.fold (fun l s acc -> (l, s) :: acc) msg_open []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (label, start) ->
      complete ~pid:1 ~tid:(msg_tid label) ~name:label ~cat:"message" ~ts:start
        ~dur:(max 0 (final_cycle - start))
        [ "\"delivered\":false" ])
    open_msgs;
  (* Derived counter series: channels owned, messages in flight, messages
     waiting — one "C" (counter) event per value change, so Perfetto draws
     congestion as stepped area charts above the spans.  Derived in a
     second pass over the stream (viewers order by ts, so appending after
     the spans is fine). *)
  let n_cycles = final_cycle + 1 in
  let samp_owned = Array.make n_cycles (-1)
  and samp_flight = Array.make n_cycles (-1)
  and samp_wait = Array.make n_cycles (-1) in
  let owned_now : (Topology.channel, unit) Hashtbl.t = Hashtbl.create 16 in
  let flight_now : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let wait_now : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let enter tbl k = if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k () in
  let sample samp cycle tbl =
    if cycle >= 0 && cycle < n_cycles then samp.(cycle) <- Hashtbl.length tbl
  in
  List.iter
    (fun (e : Obs_event.t) ->
      match e with
      | Channel_acquire { cycle; label; channel; _ } ->
        enter owned_now channel;
        sample samp_owned cycle owned_now;
        (* an acquisition resolves the waiter's advertised edge *)
        Hashtbl.remove wait_now label;
        sample samp_wait cycle wait_now
      | Channel_release { cycle; channel; _ } ->
        Hashtbl.remove owned_now channel;
        sample samp_owned cycle owned_now
      | Flit { cycle; label; kind = Obs_event.Inject; _ } ->
        enter flight_now label;
        sample samp_flight cycle flight_now
      | Delivered { cycle; label; _ }
      | Abort { cycle; label; _ }
      | Gave_up { cycle; label; _ } ->
        Hashtbl.remove flight_now label;
        sample samp_flight cycle flight_now;
        Hashtbl.remove wait_now label;
        sample samp_wait cycle wait_now
      | Wait_add { cycle; label; _ } ->
        enter wait_now label;
        sample samp_wait cycle wait_now
      | Wait_drop { cycle; label; _ } ->
        Hashtbl.remove wait_now label;
        sample samp_wait cycle wait_now
      | _ -> ())
    events;
  let emit_series name samp =
    let prev = ref (-1) in
    for c = 0 to n_cycles - 1 do
      if samp.(c) >= 0 && samp.(c) <> !prev then begin
        prev := samp.(c);
        add_obj
          [ str "name" name; str "cat" "counter"; str "ph" "C"; num "pid" 0;
            num "tid" 0; num "ts" c;
            "\"args\":{\"value\":" ^ string_of_int samp.(c) ^ "}" ]
      end
    done
  in
  emit_series "channels owned" samp_owned;
  emit_series "messages in flight" samp_flight;
  emit_series "messages waiting" samp_wait;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf
