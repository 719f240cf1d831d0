(* Sink: how dl4 writes a file; see sink.mli for the failure rule.
   Unix calls, so a failure names the caller's path, not its ".tmp". *)

let fail path err = raise (Sys_error (path ^ ": " ^ Unix.error_message err))
let replace_mutex = Mutex.create ()

let replace path contents =
  let tmp = path ^ ".tmp" in
  Mutex.protect replace_mutex (fun () ->
      try
        let flags = Unix.[ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] in
        let fd = Unix.openfile tmp flags 0o666 in
        (match Unix.write_substring fd contents 0 (String.length contents) with
        | _ -> Unix.close fd
        | exception e ->
            Unix.close fd;
            raise e);
        Unix.rename tmp path
      with Unix.Unix_error (err, _, _) ->
        (try Unix.unlink tmp with Unix.Unix_error _ -> ());
        fail path err)

type log = {
  path : string;
  max_bytes : int;
  mutex : Mutex.t;
  mutable chan : out_channel option;  (* None once closed *)
  mutable bytes : int;  (* bytes in the live file *)
}

let open_append path =
  let flags = Unix.[ O_WRONLY; O_APPEND; O_CREAT; O_CLOEXEC ] in
  let fd = Unix.openfile path flags 0o644 in
  (Unix.out_channel_of_descr fd, (Unix.fstat fd).Unix.st_size)

let log ?(max_bytes = max_int) path =
  match open_append path with
  | chan, bytes ->
      { path; max_bytes; mutex = Mutex.create (); chan = Some chan; bytes }
  | exception Unix.Unix_error (err, _, _) -> fail path err

(* The live file becomes [path ^ ".1"] and a fresh one starts; if either
   step fails, lines keep going to the open file. *)
let rotate l oc =
  match
    Unix.rename l.path (l.path ^ ".1");
    open_append l.path
  with
  | chan, bytes ->
      close_out_noerr oc;
      l.chan <- Some chan;
      l.bytes <- bytes
  | exception Unix.Unix_error _ -> ()

let line l s =
  let len = String.length s + 1 in
  Mutex.protect l.mutex (fun () ->
      if l.bytes > 0 && l.bytes + len > l.max_bytes then
        Option.iter (rotate l) l.chan;
      match l.chan with
      | None -> ()
      | Some oc -> (
          try
            output_string oc s;
            output_char oc '\n';
            l.bytes <- l.bytes + len
          with Sys_error _ -> ()))

let flush l =
  Mutex.protect l.mutex (fun () ->
      Option.iter (fun oc -> try Stdlib.flush oc with Sys_error _ -> ()) l.chan)

let close l =
  Mutex.protect l.mutex (fun () ->
      Option.iter close_out_noerr l.chan;
      l.chan <- None)
