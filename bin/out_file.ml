(* Output files named on the command line.  A file that cannot be written
   is reported as "cannot write FILE: reason" on stderr and the remaining
   files are still written; [exit_if_failed] then ends the process with
   status 2, the usage-error status. *)

let failed = ref false

let write path text =
  try
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
    true
  with Sys_error msg ->
    (* the message reads "PATH: reason" *)
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix) (String.length msg - String.length prefix)
      else msg
    in
    Printf.eprintf "cannot write %s: %s\n%!" path reason;
    failed := true;
    false

let exit_if_failed () = if !failed then exit 2
