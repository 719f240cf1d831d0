(* dl4-snap/4 — the versioned on-disk snapshot container.

   Layout:

     bytes 0..7    magic "dl4-snap"
     u32           format version (= 4)
     u32           section count
     per section:  name (length-prefixed string), u32 payload length,
                   u32 Adler-32 of the payload
     payloads, concatenated in table order

   Sections are named and checksummed independently so a reader can
   refuse exactly the torn part, and so a future version can add
   sections without disturbing old readers (unknown names are skipped;
   structural changes to an existing section's payload bump [version]).

   Decoding never trusts the input: every read is bounds-checked
   ([Snap_codec.Corrupt]), every section is checksum-verified before its
   codec runs, and [restore] re-validates the semantic invariants (the
   requested KB matches, the stored classical KB is the transform of the
   stored four-valued KB) before any cached verdict is believed.  The
   failure mode is always a clean [Error _] — callers fall back to a
   cold build, never serve from a bad snapshot. *)

let magic = "dl4-snap"
(* 3: cost records carry the trace ID that paid for them;
   4: the config loses the pool width and cost records the shard id *)
let version = 4

type snapshot = {
  s_config : Oracle.config;
  s_kb : Kb4.t;
  s_classical : Axiom.kb;  (** the induced [K̄] at capture time *)
  s_classification : Classify.t option;
  s_entries : Oracle.export_entry list;  (** LRU order, least recent first *)
  s_totals : Oracle.cost_totals;
  s_cache_stats : Verdict_cache.stats;
}

type error =
  | Io of string
  | Bad_magic
  | Bad_version of int
  | Bad_checksum of string
  | Corrupt of string
  | Kb_mismatch

let pp_error ppf = function
  | Io msg -> Format.fprintf ppf "i/o error: %s" msg
  | Bad_magic -> Format.fprintf ppf "not a dl4 snapshot (bad magic)"
  | Bad_version v ->
      Format.fprintf ppf
        "unsupported snapshot version %d (this build reads version %d)" v
        version
  | Bad_checksum section ->
      Format.fprintf ppf "checksum mismatch in section %S" section
  | Corrupt msg -> Format.fprintf ppf "corrupt snapshot: %s" msg
  | Kb_mismatch ->
      Format.fprintf ppf "snapshot was taken over a different knowledge base"

let error_to_string e = Format.asprintf "%a" pp_error e

(* ------------------------------------------------------------------ *)
(* Capture *)

let capture session =
  let oracle = Session.oracle session in
  { s_config = Session.config session;
    s_kb = Session.kb session;
    s_classical = Session.classical_kb session;
    s_classification = Session.classification_if_built session;
    s_entries = Oracle.export_entries oracle;
    s_totals = Session.cost_totals session;
    s_cache_stats = Oracle.cache_stats oracle }

(* ------------------------------------------------------------------ *)
(* Encode *)

let section name encode =
  let b = Buffer.create 1024 in
  encode b;
  (name, Buffer.contents b)

let to_string s =
  let sections =
    [ section "config" (fun b -> Snap_codec.w_config b s.s_config);
      section "kb" (fun b -> Snap_codec.w_kb4 b s.s_kb);
      section "ckb" (fun b -> Snap_codec.w_ckb b s.s_classical);
      section "classify" (fun b ->
          Snap_codec.w_option b Snap_codec.w_classification s.s_classification);
      section "verdicts" (fun b ->
          Snap_codec.w_list b Snap_codec.w_entry s.s_entries);
      section "totals" (fun b -> Snap_codec.w_cost_totals b s.s_totals);
      section "cache_stats" (fun b ->
          Snap_codec.w_cache_stats b s.s_cache_stats) ]
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Snap_codec.w_u32 b version;
  Snap_codec.w_u32 b (List.length sections);
  List.iter
    (fun (name, payload) ->
      Snap_codec.w_string b name;
      Snap_codec.w_u32 b (String.length payload);
      Snap_codec.w_u32 b (Snap_codec.adler32 payload))
    sections;
  List.iter (fun (_, payload) -> Buffer.add_string b payload) sections;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decode *)

let of_string data =
  try
    if String.length data < String.length magic then Error Bad_magic
    else if String.sub data 0 (String.length magic) <> magic then
      Error Bad_magic
    else begin
      let r = Snap_codec.reader ~pos:(String.length magic) data in
      let v = Snap_codec.r_u32 r in
      if v <> version then Error (Bad_version v)
      else begin
        let count = Snap_codec.r_u32 r in
        if count > 64 then
          Snap_codec.corrupt "implausible section count %d" count;
        let table =
          List.init count (fun _ ->
              let name = Snap_codec.r_string r in
              let len = Snap_codec.r_u32 r in
              let sum = Snap_codec.r_u32 r in
              (name, len, sum))
        in
        (* slice out the payloads in table order, checksum each *)
        let bad = ref None in
        let sections =
          List.filter_map
            (fun (name, len, sum) ->
              if r.Snap_codec.pos + len > r.Snap_codec.limit then
                Snap_codec.corrupt "truncated: section %S claims %d bytes" name
                  len;
              let payload = String.sub data r.Snap_codec.pos len in
              r.Snap_codec.pos <- r.Snap_codec.pos + len;
              if Snap_codec.adler32 payload <> sum then begin
                if !bad = None then bad := Some name;
                None
              end
              else Some (name, payload))
            table
        in
        match !bad with
        | Some name -> Error (Bad_checksum name)
        | None ->
            let decode name codec =
              match List.assoc_opt name sections with
              | None -> Snap_codec.corrupt "missing section %S" name
              | Some payload ->
                  let r = Snap_codec.reader payload in
                  let v = codec r in
                  if not (Snap_codec.at_end r) then
                    Snap_codec.corrupt "trailing bytes in section %S" name;
                  v
            in
            Ok
              { s_config = decode "config" Snap_codec.r_config;
                s_kb = decode "kb" Snap_codec.r_kb4;
                s_classical = decode "ckb" Snap_codec.r_ckb;
                s_classification =
                  decode "classify" (fun r ->
                      Snap_codec.r_option r Snap_codec.r_classification);
                s_entries =
                  decode "verdicts" (fun r ->
                      Snap_codec.r_list r Snap_codec.r_entry);
                s_totals = decode "totals" Snap_codec.r_cost_totals;
                s_cache_stats = decode "cache_stats" Snap_codec.r_cache_stats }
      end
    end
  with Snap_codec.Corrupt msg -> Error (Corrupt msg)

(* ------------------------------------------------------------------ *)
(* Files *)

let save s path =
  match Sink.replace path (to_string s) with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Io msg)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> of_string data
  | exception Sys_error msg -> Error (Io msg)

(* ------------------------------------------------------------------ *)
(* Restore *)

let restore ?jobs:_ ?kb s =
  (* [kb]: the KB the caller is actually asking to reason over.  A
     snapshot only transfers state between sessions over the {e same}
     KB — warm verdicts against a different KB are silent wrong
     answers, so this check is load-bearing, not cosmetic. *)
  let requested = Option.value kb ~default:s.s_kb in
  if requested <> s.s_kb then Error Kb_mismatch
  else if Transform.kb s.s_kb <> s.s_classical then
    (* both survived their checksums but disagree semantically: the
       snapshot was produced by an incompatible transform (or doctored)
       — refuse rather than warm a cache against the wrong K̄ *)
    Error
      (Corrupt "stored classical KB is not the transform of the stored KB")
  else begin
    let session = Session.create ~config:s.s_config s.s_kb in
    let oracle = Session.oracle session in
    ignore (Oracle.import_entries oracle s.s_entries : int);
    Oracle.import_totals oracle s.s_totals;
    Oracle.restore_cache_stats oracle s.s_cache_stats;
    Option.iter
      (Session.restore_classification session)
      s.s_classification;
    Ok session
  end

let load_session ?kb path =
  match load path with Error e -> Error e | Ok s -> restore ?kb s

(* ------------------------------------------------------------------ *)
(* Reporting *)

let pp_summary ppf s =
  let sig_ = Kb4.signature s.s_kb in
  Format.fprintf ppf
    "@[<v>kb: %d axioms (%d atoms, %d individuals)@,\
     verdicts: %d cached (%d hits / %d misses recorded)@,\
     classification: %s@,\
     totals: %d verdicts computed, %.2f ms tableau time@]"
    (Kb4.size s.s_kb)
    (List.length sig_.Axiom.concepts)
    (List.length sig_.Axiom.individuals)
    (List.length s.s_entries) s.s_cache_stats.Verdict_cache.hits
    s.s_cache_stats.Verdict_cache.misses
    (match s.s_classification with
    | Some c -> Printf.sprintf "%d atoms" c.Classify.stats.Classify.atoms
    | None -> "not built")
    s.s_totals.Oracle.verdicts
    (s.s_totals.Oracle.wall_ns /. 1e6)
