type query =
  | Instance of string * Concept.t
  | Not_instance of string * Concept.t
  | Contradiction of string * Concept.t
  | Inclusion of Kb4.inclusion * Concept.t * Concept.t
  | Unsatisfiable

let pp_query ppf = function
  | Instance (a, c) -> Format.fprintf ppf "%s : %a" a Concept.pp c
  | Not_instance (a, c) -> Format.fprintf ppf "%s : ~(%a)" a Concept.pp c
  | Contradiction (a, c) -> Format.fprintf ppf "%s : %a = TOP" a Concept.pp c
  | Inclusion (k, c, d) ->
      Format.fprintf ppf "%a %s %a" Concept.pp c (Kb4.inclusion_symbol k)
        Concept.pp d
  | Unsatisfiable -> Format.pp_print_string ppf "unsatisfiable"

(* Each candidate sub-KB gets its own oracle (via [Para.create]): a
   contraction changes the induced K̄, so verdicts cached for one candidate
   are meaningless for the next.  The per-oracle cache still dedups the
   repeated probes within one candidate. *)
let holds ?max_nodes kb query =
  let config =
    match max_nodes with
    | None -> Session.default_config
    | Some max_nodes -> { Session.default_config with Session.max_nodes }
  in
  let t = Para.create ~config kb in
  match query with
  | Instance (a, c) -> Para.entails_instance t a c
  | Not_instance (a, c) -> Para.entails_not_instance t a c
  | Contradiction (a, c) ->
      Para.entails_instance t a c && Para.entails_not_instance t a c
  | Inclusion (k, c, d) -> Session.entails_inclusion t k c d
  | Unsatisfiable -> not (Para.satisfiable t)

(* Axioms as a uniform list, so contraction can treat TBox and ABox alike. *)
type tagged = T of Kb4.tbox_axiom | A of Axiom.abox_axiom

let to_tagged (kb : Kb4.t) =
  List.map (fun ax -> T ax) kb.tbox @ List.map (fun ax -> A ax) kb.abox

let of_tagged axs =
  let tbox, abox =
    List.partition_map (function T ax -> Either.Left ax | A ax -> Right ax) axs
  in
  Kb4.make ~tbox ~abox

let tagged_equal a b =
  match (a, b) with
  | T x, T y -> Kb4.compare_tbox_axiom x y = 0
  | A x, A y -> Axiom.compare_abox_axiom x y = 0
  | T _, A _ | A _, T _ -> false

(* Deletion-based contraction: walk the axioms once, dropping each axiom
   whose removal preserves the entailment. *)
let contract ?max_nodes axs query =
  let rec go kept = function
    | [] -> List.rev kept
    | ax :: rest ->
        let without = List.rev_append kept rest in
        if holds ?max_nodes (of_tagged without) query then go kept rest
        else go (ax :: kept) rest
  in
  go [] axs

let justification ?max_nodes kb query =
  Obs.with_span ~cat:"core" "explain.justification" (fun () ->
      if not (holds ?max_nodes kb query) then None
      else Some (of_tagged (contract ?max_nodes (to_tagged kb) query)))

(* Reiter-style hitting-set tree enumeration. *)
let all_justifications ?max_nodes ?(limit = 10) kb query =
  let seen : Kb4.t list ref = ref [] in
  let same_kb (k1 : Kb4.t) (k2 : Kb4.t) =
    List.length k1.tbox = List.length k2.tbox
    && List.length k1.abox = List.length k2.abox
    && List.for_all
         (fun ax -> List.exists (fun ax' -> Kb4.compare_tbox_axiom ax ax' = 0) k2.tbox)
         k1.tbox
    && List.for_all
         (fun ax ->
           List.exists (fun ax' -> Axiom.compare_abox_axiom ax ax' = 0) k2.abox)
         k1.abox
  in
  let rec explore axs =
    if List.length !seen >= limit then ()
    else if not (holds ?max_nodes (of_tagged axs) query) then ()
    else begin
      let j = of_tagged (contract ?max_nodes axs query) in
      if not (List.exists (same_kb j) !seen) then seen := j :: !seen;
      (* branch on removing each axiom of the justification *)
      List.iter
        (fun ax ->
          if List.length !seen < limit then
            explore (List.filter (fun ax' -> not (tagged_equal ax ax')) axs))
        (to_tagged j)
    end
  in
  explore (to_tagged kb);
  List.rev !seen

let contradictions_explained ?max_nodes t =
  Obs.with_span ~cat:"core" "explain.contradictions" (fun () ->
      List.filter_map
        (fun (a, concept_name) ->
          let q = Contradiction (a, Concept.Atom concept_name) in
          match justification ?max_nodes (Session.kb t) q with
          | Some j -> Some (a, concept_name, j)
          | None -> None)
        (Para.contradictions t))
