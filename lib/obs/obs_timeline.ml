(* ASCII channel-occupancy timeline reconstructed from the event stream:
   one row per channel, one column per cycle, first letter of the owning
   label, uppercase when more than one flit queues, '.' when free.  Built
   from Obs events, so it works wherever a recorder ran.

   Reconstruction: Channel_acquire/Channel_release bound ownership; Flit
   events move flit counts.  A Hop/Cascade into channel [c] removes a flit
   from the channel immediately before [c] in the owner's acquisition
   order (the worm's body), Inject adds one at the source channel, Consume
   removes one at the destination. *)

type chan_state = {
  mutable owner : string;
  mutable count : int;
  mutable last : int;  (* first cycle not yet rendered into [row] *)
  mutable first_busy : int;  (* max_int until the channel first holds a flit *)
  row : Bytes.t;
}

let render ?(max_cycles = 120) topo events =
  let last_cycle =
    List.fold_left
      (fun acc e -> match Obs_event.cycle_of e with Some c -> max acc c | None -> acc)
      (-1) events
  in
  if last_cycle < 0 then ""
  else begin
    let cycles = last_cycle + 1 in
    let shown = min cycles max_cycles in
    let n = Topology.num_channels topo in
    let states =
      Array.init n (fun _ ->
          { owner = ""; count = 0; last = 0; first_busy = max_int; row = Bytes.make shown '.' })
    in
    let cell st =
      if st.count = 0 then '.'
      else begin
        let ch = if st.owner = "" then '?' else st.owner.[0] in
        if st.count > 1 then Char.uppercase_ascii ch else Char.lowercase_ascii ch
      end
    in
    (* Render the channel's current state into columns [st.last .. t-1];
       events at cycle [t] change what is visible from column [t] on. *)
    let advance c t =
      let st = states.(c) in
      if st.count > 0 && st.last < t then st.first_busy <- min st.first_busy st.last;
      let ch = cell st in
      for i = st.last to min (t - 1) (shown - 1) do
        Bytes.set st.row i ch
      done;
      if t > st.last then st.last <- t;
      st
    in
    (* Channels each label currently holds, in acquisition (path) order. *)
    let held : (string, Topology.channel list ref) Hashtbl.t = Hashtbl.create 16 in
    let held_of label =
      match Hashtbl.find_opt held label with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.add held label r;
        r
    in
    let prev_of label c =
      let rec scan = function
        | a :: b :: _ when b = c -> Some a
        | _ :: tl -> scan tl
        | [] -> None
      in
      scan !(held_of label)
    in
    let bump c t d owner =
      if c >= 0 && c < n then begin
        let st = advance c t in
        st.count <- max 0 (st.count + d);
        match owner with Some o -> st.owner <- o | None -> ()
      end
    in
    List.iter
      (fun (e : Obs_event.t) ->
        match e with
        | Channel_acquire { cycle; label; channel; _ } ->
          if channel >= 0 && channel < n then begin
            let r = held_of label in
            if not (List.mem channel !r) then r := !r @ [ channel ];
            (advance channel cycle).owner <- label
          end
        | Channel_release { cycle; channel; _ } ->
          if channel >= 0 && channel < n then begin
            let st = advance channel cycle in
            st.count <- 0;
            st.owner <- "";
            Hashtbl.iter
              (fun _ r -> if List.mem channel !r then r := List.filter (fun c -> c <> channel) !r)
              held
          end
        | Flit { cycle; label; channel; kind } -> (
          match kind with
          | Obs_event.Inject -> bump channel cycle 1 (Some label)
          | Obs_event.Hop | Obs_event.Cascade ->
            (match prev_of label channel with Some p -> bump p cycle (-1) None | None -> ());
            bump channel cycle 1 (Some label)
          | Obs_event.Consume -> bump channel cycle (-1) None)
        | Abort { label; _ } | Gave_up { label; _ } -> (
          match Hashtbl.find_opt held label with Some r -> r := [] | None -> ())
        | _ -> ())
      events;
    let channels = ref [] in
    for c = n - 1 downto 0 do
      ignore (advance c cycles);
      if states.(c).first_busy < max_int then channels := (states.(c).first_busy, c) :: !channels
    done;
    let channels = List.map snd (List.sort compare !channels) in
    let truncated = cycles > shown in
    let buf = Buffer.create 1024 in
    let name_width =
      List.fold_left (fun w c -> max w (String.length (Topology.channel_name topo c))) 7 channels
    in
    Buffer.add_string buf (Printf.sprintf "%-*s " name_width "channel");
    for i = 0 to shown - 1 do
      Buffer.add_char buf
        (if i mod 10 = 0 then Char.chr (Char.code '0' + (i / 10 mod 10)) else ' ')
    done;
    Buffer.add_char buf '\n';
    List.iter
      (fun c ->
        Buffer.add_string buf (Printf.sprintf "%-*s " name_width (Topology.channel_name topo c));
        Buffer.add_bytes buf states.(c).row;
        if truncated then Buffer.add_string buf " …";
        Buffer.add_char buf '\n')
      channels;
    if truncated then Buffer.add_string buf (Printf.sprintf "… +%d cycles\n" (cycles - shown));
    Buffer.contents buf
  end
