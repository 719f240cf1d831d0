let eval ?prov t = function
  | Backend.Consistent -> Reasoner.is_consistent ?prov t
  | Backend.Concept_sat c -> Reasoner.concept_satisfiable ?prov t c
  | Backend.Instance (a, c) ->
      not (Reasoner.consistent_with ?prov t [ Transform.instance_query c a ])
  | Backend.Not_instance (a, c) ->
      not
        (Reasoner.consistent_with ?prov t
           [ Transform.negative_instance_query c a ])
  | Backend.Role_pos (a, r, b) ->
      Reasoner.role_entailed ?prov t a (Transform.plus_role r) b
  | Backend.Role_neg (a, r, b) ->
      not
        (Reasoner.consistent_with ?prov t
           [ Axiom.Role_assertion (a, Transform.eq_role r, b) ])
