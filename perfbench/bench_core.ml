module Span = struct
  type counters = float array

  type span = {
    id : int;
    name : string;
    parent : int;
    start : float;
    stop : float;
    deltas : counters;
  }

  type t = {
    on : bool;
    clock : unit -> float;
    sample : unit -> counters;
    origin : float;
    mutable next_id : int;
    mutable stack : int list;  (* ids of the open spans, innermost first *)
    mutable closed : span list;  (* newest first *)
  }

  let create ?(clock = Unix.gettimeofday) ?(sample = fun () -> [||]) on =
    { on; clock; sample; origin = clock (); next_id = 0; stack = []; closed = [] }

  let enabled t = t.on

  let run t name f =
    if not t.on then f ()
    else begin
      let id = t.next_id in
      t.next_id <- id + 1;
      let parent = match t.stack with p :: _ -> p | [] -> -1 in
      t.stack <- id :: t.stack;
      let c0 = t.sample () in
      let start = t.clock () -. t.origin in
      let close () =
        let stop = t.clock () -. t.origin in
        let c1 = t.sample () in
        t.stack <- List.tl t.stack;
        let deltas = Array.mapi (fun i v -> v -. c0.(i)) c1 in
        t.closed <- { id; name; parent; start; stop; deltas } :: t.closed
      in
      Fun.protect ~finally:close f
    end

  let spans t = List.sort (fun a b -> compare a.id b.id) t.closed
  let duration s = s.stop -. s.start

  let self_time t s =
    List.fold_left
      (fun acc c -> if c.parent = s.id then acc -. duration c else acc)
      (duration s) t.closed

  let named t name = List.filter (fun s -> s.name = name) t.closed
  let total t name = List.fold_left (fun acc s -> acc +. duration s) 0. (named t name)

  let total_delta t name i =
    List.fold_left
      (fun acc s -> if i < Array.length s.deltas then acc +. s.deltas.(i) else acc)
      0. (named t name)

  let to_json ?(counter_names = [||]) t =
    let counter_name i =
      if i < Array.length counter_names then counter_names.(i) else Printf.sprintf "c%d" i
    in
    let one s =
      let deltas =
        Array.to_list
          (Array.mapi (fun i v -> Printf.sprintf "%S: %.17g" (counter_name i) v) s.deltas)
      in
      Printf.sprintf
        "  {\"id\": %d, \"name\": %S, \"parent\": %d, \"start\": %.9f, \"end\": %.9f, \
         \"self_s\": %.9f%s}"
        s.id s.name s.parent s.start s.stop (self_time t s)
        (String.concat "" (List.map (fun d -> ", " ^ d) deltas))
    in
    "[\n" ^ String.concat ",\n" (List.map one (spans t)) ^ "\n]\n"

  let self_table t =
    let names = List.sort_uniq compare (List.map (fun s -> s.name) t.closed) in
    let rows =
      List.map
        (fun n ->
          let ss = named t n in
          (n, List.length ss, total t n, List.fold_left (fun a s -> a +. self_time t s) 0. ss))
        names
    in
    let rows = List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) rows in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "%-34s %7s %12s %12s\n" "span" "calls" "total (s)" "self (s)");
    List.iter
      (fun (n, c, tot, self) ->
        Buffer.add_string buf (Printf.sprintf "%-34s %7d %12.6f %12.6f\n" n c tot self))
      rows;
    Buffer.contents buf
end

module Checks = struct
  type t = { log : string -> unit; mutable attempted : int; mutable failed : int }

  let create ?(log = fun what -> Printf.eprintf "perfbench: check failed: %s\n%!" what) () =
    { log; attempted = 0; failed = 0 }
  let attempted t = t.attempted
  let failed t = t.failed

  let check t what ok =
    t.attempted <- t.attempted + 1;
    if not ok then begin
      t.failed <- t.failed + 1;
      t.log what
    end

  let check_equal t what ~pp expected actual =
    let ok = expected = actual in
    check t
      (if ok then what
       else Printf.sprintf "%s: expected %s, got %s" what (pp expected) (pp actual))
      ok

  let protect t what f =
    try f () with e -> check t (Printf.sprintf "%s raised %s" what (Printexc.to_string e)) false

  let verdict_line (id, ok) = Printf.sprintf "%s %s" id (if ok then "ok" else "FAIL")

  let compare_lines t ~what ~expected actual =
    let actual_a = Array.of_list actual in
    List.iteri
      (fun i e ->
        let a = if i < Array.length actual_a then actual_a.(i) else "<missing>" in
        check_equal t (Printf.sprintf "%s line %d" what (i + 1)) ~pp:(Printf.sprintf "%S") e a)
      expected;
    check_equal t (what ^ " line count") ~pp:string_of_int (List.length expected)
      (Array.length actual_a)
end

let is_alnum c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> is_alnum c || String.contains "_/%.-" c) s

let median = function
  | [] -> invalid_arg "median: empty list"
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "json_number: non-finite value"

type metric = { m_name : string; m_unit : string; m_value : float }

let result_line ~attempted ~failed metrics =
  let seen = Hashtbl.create 64 in
  let field m =
    if not (valid_name m.m_name) then invalid_arg ("result_line: bad metric name " ^ m.m_name);
    if Hashtbl.mem seen m.m_name then invalid_arg ("result_line: repeated metric " ^ m.m_name);
    Hashtbl.add seen m.m_name ();
    if not (valid_unit m.m_unit) then invalid_arg ("result_line: bad unit " ^ m.m_unit);
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.m_name)
      (json_number m.m_value) (json_string m.m_unit)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed
    (String.concat ", " (List.map field metrics))
