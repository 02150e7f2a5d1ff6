type message_spec = {
  ms_label : string;
  ms_src : Topology.node;
  ms_dst : Topology.node;
  ms_length : int;
  ms_inject_at : int;
  ms_holds : (Topology.channel * int) list;
}

type t = message_spec list

let message ?(length = 1) ?(at = 0) ?(holds = []) label src dst =
  { ms_label = label; ms_src = src; ms_dst = dst; ms_length = length; ms_inject_at = at;
    ms_holds = holds }

let of_intents ~length net =
  List.map
    (fun (it : Paper_nets.intent) -> message ~length it.i_label it.i_src it.i_dst)
    net.Paper_nets.intents

let max_length sched = List.fold_left (fun acc m -> max acc m.ms_length) 1 sched

(* label uniqueness via a hash pass (not a sort: comparing every label
   against every other through polymorphic compare shows up in the
   per-run validation cost of the bench hot paths) *)
let has_duplicate_label sched =
  let seen = Hashtbl.create 64 in
  List.exists
    (fun m ->
      Hashtbl.mem seen m.ms_label
      ||
      (Hashtbl.add seen m.ms_label ();
       false))
    sched

(* each channel may appear at most once on a path; paths are node-degree
   short, so the quadratic scan beats building a sorted copy *)
let has_duplicate_channel (a : int array) =
  let k = Array.length a in
  let dup = ref false in
  for x = 0 to k - 1 do
    for y = x + 1 to k - 1 do
      if a.(x) = a.(y) then dup := true
    done
  done;
  !dup

let validate_paths rt sched =
  if has_duplicate_label sched then Error "duplicate message labels"
  else begin
    let paths = Array.make (List.length sched) [||] in
    let rec check i = function
      | [] -> Ok paths
      | m :: rest ->
        if m.ms_length < 1 then Error (m.ms_label ^ ": length < 1")
        else if m.ms_inject_at < 0 then Error (m.ms_label ^ ": negative injection time")
        else if m.ms_src = m.ms_dst then Error (m.ms_label ^ ": source equals destination")
        else if List.exists (fun (_, t) -> t < 0) m.ms_holds then
          Error (m.ms_label ^ ": negative hold")
        else
          match Routing.path rt m.ms_src m.ms_dst with
          | Error e -> Error (m.ms_label ^ ": " ^ Routing.error_message e)
          | Ok p ->
            (* the engine's occupancy model needs each channel to appear at
               most once on a message's path *)
            let row = Array.of_list p in
            if has_duplicate_channel row then
              Error (m.ms_label ^ ": path visits a channel twice")
            else begin
              paths.(i) <- row;
              check (i + 1) rest
            end
    in
    check 0 sched
  end

let validate rt sched =
  match validate_paths rt sched with Ok _ -> Ok () | Error e -> Error e

let pp topo ppf sched =
  List.iter
    (fun m ->
      Format.fprintf ppf "%s: %s->%s len=%d t=%d" m.ms_label
        (Topology.node_name topo m.ms_src) (Topology.node_name topo m.ms_dst) m.ms_length
        m.ms_inject_at;
      List.iter
        (fun (c, t) -> Format.fprintf ppf " hold(%s,%d)" (Topology.channel_name topo c) t)
        m.ms_holds;
      Format.pp_print_newline ppf ())
    sched
