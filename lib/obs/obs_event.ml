type flit_kind = Inject | Hop | Cascade | Consume

type fault_kind = Planned_failure | Planned_stall | Planned_drop | Drop_fired

type t =
  | Run_start of { engine : string; algorithm : string; messages : int }
  | Run_end of { cycle : int; outcome : string }
  | Channel_acquire of {
      cycle : int;
      label : string;
      channel : Topology.channel;
      waited : int;
    }
  | Channel_release of { cycle : int; label : string; channel : Topology.channel }
  | Wait_add of {
      cycle : int;
      label : string;
      channel : Topology.channel;
      holder : string option;
    }
  | Wait_drop of {
      cycle : int;
      label : string;
      channel : Topology.channel;
      waited : int;
    }
  | Flit of { cycle : int; label : string; channel : Topology.channel; kind : flit_kind }
  | Delivered of { cycle : int; label : string; latency : int }
  | Abort of { cycle : int; label : string; retries : int; reason : string }
  | Retry of { cycle : int; label : string; resume_at : int }
  | Gave_up of { cycle : int; label : string; fate : string }
  | Fault of {
      cycle : int;
      kind : fault_kind;
      channel : Topology.channel option;
      label : string option;
      duration : int;
    }
  | Deadlock_detected of {
      cycle : int;
      members : string list;
      channels : Topology.channel list;
      victims : string list;
    }
  | Victim_aborted of { cycle : int; label : string; policy : string }
  | Sanitizer_trip of Diagnostic.t
  | Search_start of { algorithm : string; tasks : int }
  | Search_end of { algorithm : string; runs : int; cancelled : int; witness : bool }

let flit_kind_string = function
  | Inject -> "inject"
  | Hop -> "hop"
  | Cascade -> "cascade"
  | Consume -> "consume"

let fault_kind_string = function
  | Planned_failure -> "failure"
  | Planned_stall -> "stall"
  | Planned_drop -> "drop"
  | Drop_fired -> "drop-fired"

let cycle_of = function
  | Run_start _ | Search_start _ | Search_end _ -> None
  | Run_end { cycle; _ }
  | Channel_acquire { cycle; _ }
  | Channel_release { cycle; _ }
  | Wait_add { cycle; _ }
  | Wait_drop { cycle; _ }
  | Flit { cycle; _ }
  | Delivered { cycle; _ }
  | Abort { cycle; _ }
  | Retry { cycle; _ }
  | Gave_up { cycle; _ }
  | Fault { cycle; _ }
  | Deadlock_detected { cycle; _ }
  | Victim_aborted { cycle; _ } -> Some cycle
  | Sanitizer_trip d -> (
    match List.assoc_opt "cycle" d.Diagnostic.context with
    | Some s -> int_of_string_opt s
    | None -> None)

let pp ?topo () ppf e =
  let chan c =
    match topo with
    | Some t -> Topology.channel_name t c
    | None -> Printf.sprintf "channel#%d" c
  in
  match e with
  | Run_start { engine; algorithm; messages } ->
    Format.fprintf ppf "run-start engine=%s algorithm=%s messages=%d" engine algorithm messages
  | Run_end { cycle; outcome } -> Format.fprintf ppf "[%d] run-end %s" cycle outcome
  | Channel_acquire { cycle; label; channel; waited } ->
    Format.fprintf ppf "[%d] %s acquires %s (waited %d)" cycle label (chan channel) waited
  | Channel_release { cycle; label; channel } ->
    Format.fprintf ppf "[%d] %s releases %s" cycle label (chan channel)
  | Wait_add { cycle; label; channel; holder } ->
    Format.fprintf ppf "[%d] %s blocks on %s%s" cycle label (chan channel)
      (match holder with Some h -> " held by " ^ h | None -> "")
  | Wait_drop { cycle; label; channel; waited } ->
    Format.fprintf ppf "[%d] %s stops waiting for %s (waited %d)" cycle label (chan channel)
      waited
  | Flit { cycle; label; channel; kind } ->
    Format.fprintf ppf "[%d] %s flit %s at %s" cycle label (flit_kind_string kind)
      (chan channel)
  | Delivered { cycle; label; latency } ->
    Format.fprintf ppf "[%d] %s delivered (latency %d)" cycle label latency
  | Abort { cycle; label; retries; reason } ->
    Format.fprintf ppf "[%d] %s aborted (%s, retry %d)" cycle label reason retries
  | Retry { cycle; label; resume_at } ->
    Format.fprintf ppf "[%d] %s will retry at cycle %d" cycle label resume_at
  | Gave_up { cycle; label; fate } -> Format.fprintf ppf "[%d] %s %s" cycle label fate
  | Fault { cycle; kind; channel; label; duration } ->
    Format.fprintf ppf "[%d] fault %s%s%s%s" cycle (fault_kind_string kind)
      (match channel with Some c -> " " ^ chan c | None -> "")
      (match label with Some l -> " " ^ l | None -> "")
      (if duration > 0 then Printf.sprintf " +%d" duration else "")
  | Deadlock_detected { cycle; members; channels; victims } ->
    Format.fprintf ppf "[%d] deadlock detected: %s over {%s}; victim%s %s" cycle
      (String.concat " -> " members)
      (String.concat ", " (List.map chan channels))
      (if List.length victims = 1 then "" else "s")
      (String.concat ", " victims)
  | Victim_aborted { cycle; label; policy } ->
    Format.fprintf ppf "[%d] %s aborted as deadlock victim (%s policy)" cycle label policy
  | Sanitizer_trip d -> Format.fprintf ppf "sanitizer-trip %a" (Diagnostic.pp ?topo ()) d
  | Search_start { algorithm; tasks } ->
    Format.fprintf ppf "search-start %s (%d tasks)" algorithm tasks
  | Search_end { algorithm; runs; cancelled; witness } ->
    Format.fprintf ppf "search-end %s: %d runs, %d cancelled, witness=%b" algorithm runs
      cancelled witness
