(* Prometheus text exposition: families in, text out.  See obs_prom.mli. *)

type labels = (string * string) list

type series =
  | Samples of (labels * int) list
  | Buckets of { bounds : int array; counts : int array; sum : int }

type family = { name : string; help : string; kind : string; series : series }

let counter ~help name samples = { name; help; kind = "counter"; series = Samples samples }
let gauge ~help name samples = { name; help; kind = "gauge"; series = Samples samples }

let histogram ~help name ~bounds ~counts ~sum =
  { name; help; kind = "histogram"; series = Buckets { bounds; counts; sum } }

let label_text = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (Diagnostic.json_escape v)) labels)
    ^ "}"

let render families =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  List.iter
    (fun f ->
      line "# HELP %s %s" f.name f.help;
      line "# TYPE %s %s" f.name f.kind;
      match f.series with
      | Samples samples ->
        List.iter (fun (labels, v) -> line "%s%s %d" f.name (label_text labels) v) samples
      | Buckets { bounds; counts; sum } ->
        let cum = ref 0 in
        Array.iteri
          (fun i b ->
            cum := !cum + counts.(i);
            line "%s_bucket{le=\"%d\"} %d" f.name b !cum)
          bounds;
        cum := !cum + counts.(Array.length bounds);
        line "%s_bucket{le=\"+Inf\"} %d" f.name !cum;
        line "%s_sum %d" f.name sum;
        line "%s_count %d" f.name !cum)
    families;
  Buffer.contents buf
