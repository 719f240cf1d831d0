(* [Completion.create] scans K̄'s fragment once; under [Auto] its
   refusal means the tableau route *)
let create (choice : Backend.choice) ~max_nodes kb =
  match choice with
  | Backend.Tableau -> None
  | Backend.Horn -> Some (Completion.create ~max_nodes kb)
  | Backend.Auto -> (
      try Some (Completion.create ~max_nodes kb)
      with Backend.Unsupported _ -> None)

(* [can_answer] mirrors the tableau backend's query encodings
   (Backend_tableau.eval): each query shape maps to a completion-engine
   primitive, and the guard checks that the encoded goal lands in the
   shape that primitive decides. *)
let can_answer t (q : Backend.query) =
  match q with
  | Backend.Consistent -> true
  | Backend.Concept_sat c -> Completion.sat_answerable c
  | Backend.Instance (_, c) -> Fragment.body_concept (Transform.concept_pos c)
  | Backend.Not_instance (_, c) ->
      Fragment.body_concept (Transform.concept_neg c)
  | Backend.Role_pos _ -> true
  | Backend.Role_neg (_, r, _) ->
      Completion.role_inert t (Role.base (Transform.eq_role r))

let eval ?prov t (q : Backend.query) =
  let st = Completion.stats t in
  st.Tableau.runs <- st.Tableau.runs + 1;
  match q with
  | Backend.Consistent -> Completion.consistent ?prov t
  | Backend.Concept_sat c -> Completion.concept_satisfiable ?prov t c
  | Backend.Instance (a, c) ->
      Completion.entails_instance ?prov t a (Transform.concept_pos c)
  | Backend.Not_instance (a, c) ->
      Completion.entails_instance ?prov t a (Transform.concept_neg c)
  | Backend.Role_pos (a, r, b) -> (
      match Transform.plus_role r with
      | Role.Name s -> Completion.role_edge ?prov t a s b
      | Role.Inv s -> Completion.role_edge ?prov t b s a)
  | Backend.Role_neg (_, r, _) ->
      (* the role is inert ([can_answer]), so K̄ ∪ {r⁼(a,b)} is consistent
         iff K̄ is: the tableau's refutation test reduces to consistency *)
      ignore (Transform.eq_role r : Role.t);
      not (Completion.consistent ?prov t)
