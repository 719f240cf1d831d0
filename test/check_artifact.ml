(* CI's artifact checker: vets the Chrome traces, dl4-flight/1 dumps,
   Prometheus scrape files, dl4-plan/1 plans and dl4-audit/1 reports
   dl4 writes, recognising each file's kind from its content (see
   artifact.ml).

   Usage: check_artifact FILE...  Exit 0 when every file is valid, 1
   when any holds a defect (each printed as FILE:LINE: PATH: MESSAGE),
   2 on a usage error or an unreadable file. *)

let read path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error msg ->
    Printf.eprintf "check_artifact: %s\n" msg;
    exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
      prerr_endline "usage: check_artifact FILE...";
      exit 2
  | files ->
      let texts = List.map (fun path -> (path, read path)) files in
      let bad =
        List.fold_left
          (fun bad (file, text) ->
            match Artifact.check ~file text with
            | summary, [] ->
                Printf.printf "check_artifact: %s: ok (%s)\n" file summary;
                bad
            | _, defects ->
                List.iter
                  (fun d -> prerr_endline (Artifact.to_string d))
                  defects;
                Printf.eprintf "check_artifact: %s: %d defect(s)\n" file
                  (List.length defects);
                true)
          false texts
      in
      if bad then exit 1
