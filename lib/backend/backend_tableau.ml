(* K̄ plus [ax] is satisfiable: shown by the witness, else by a run *)
let satisfiable ?prov t ax =
  Reasoner.witness_holds ?prov t (fun w -> Interp.satisfies_abox w ax)
  || Reasoner.consistent_with ?prov t [ ax ]

let eval ?prov t = function
  | Backend.Consistent -> Reasoner.is_consistent ?prov t
  | Backend.Concept_sat c -> Reasoner.concept_satisfiable ?prov t c
  | Backend.Instance (a, c) ->
      not (satisfiable ?prov t (Transform.instance_query c a))
  | Backend.Not_instance (a, c) ->
      not (satisfiable ?prov t (Transform.negative_instance_query c a))
  | Backend.Role_pos (a, r, b) ->
      let r = Transform.plus_role r in
      (not
         (Reasoner.witness_holds ?prov t (fun w ->
              not (Interp.satisfies_abox w (Axiom.Role_assertion (a, r, b))))))
      && Reasoner.role_entailed ?prov t a r b
  | Backend.Role_neg (a, r, b) ->
      let r = Transform.eq_role r in
      (* an inert role asserted anywhere leaves a model a model *)
      not
        ((Reasoner.role_inert t r && Reasoner.witness_holds ?prov t (fun _ -> true))
        || Reasoner.consistent_with ?prov t [ Axiom.Role_assertion (a, r, b) ])
