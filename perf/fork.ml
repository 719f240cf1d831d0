(* Run a closure in a forked child and bring its result back through a
   pipe.  Cold ops run this way so that no state one op leaves behind in
   the process — caches, interned tables, a grown heap — can serve a
   later op: every child starts from the parent's pristine image and is
   reaped before the next one starts. *)

exception Child_failed of string

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let run (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let result : ('a, string) result =
        try Ok (f ()) with e -> Error (Printexc.to_string e)
      in
      Marshal.to_channel oc result [];
      close_out oc;
      (* skip at_exit: the parent's buffers must not be flushed twice *)
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let data = In_channel.input_all ic in
      close_in ic;
      match waitpid_retry pid with
      | Unix.WEXITED 0 when data <> "" -> (
          match (Marshal.from_string data 0 : ('a, string) result) with
          | Ok x -> x
          | Error msg -> raise (Child_failed msg))
      | Unix.WEXITED n -> raise (Child_failed (Printf.sprintf "exit %d" n))
      | Unix.WSIGNALED n | Unix.WSTOPPED n ->
          raise (Child_failed (Printf.sprintf "signal %d" n)))
