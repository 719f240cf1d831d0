(* Defaults and exceptions (Examples 3 and 5 of the paper): Tweety the
   penguin has wings but does not fly.  Shows the three inclusion strengths,
   the transformation to a classical KB, and reasoning over it.

   Run with:  dune exec examples/tweety.exe *)

let () =
  Format.printf "The four-valued knowledge base (material |-> for defaults):@.%s@."
    (Surface.kb4_to_string Paper_examples.example3);

  (* The naive classical rendition is unsatisfiable — everything follows. *)
  Format.printf "classical rendition satisfiable: %b@."
    (Tableau.kb_satisfiable Paper_examples.example3_classical);
  let rc = Reasoner.create Paper_examples.example3_classical in
  Format.printf "classically, tweety is a Patient (!): %b@.@."
    (Reasoner.instance_of rc "tweety" (Concept.Atom "Patient"));

  (* The four-valued KB is satisfiable and draws the right conclusions. *)
  let t = Para.create Paper_examples.example3 in
  Format.printf "four-valued satisfiable: %b@.@." (Para.satisfiable t);

  let show ind c =
    Format.printf "  %-18s = %a@."
      (ind ^ " : " ^ Concept.to_string c)
      Truth.pp
      (Para.instance_truth t ind c)
  in
  show "tweety" (Concept.Atom "Penguin");
  show "tweety" (Concept.Atom "Bird");
  show "tweety" (Concept.Atom "Fly");
  show "w" (Concept.Atom "Wing");

  (* Example 5: the classical induced KB and tableau reasoning over it. *)
  Format.printf "@.Example 5 — the classical induced KB (Definition 7):@.%s@."
    (Surface.kb_to_string (Session.classical_kb t));

  let r = Para.classical_reasoner t in
  Format.printf "Fly-(tweety) holds:        %b  (tweety cannot fly)@."
    (Reasoner.instance_of r "tweety" (Concept.Atom (Mangle.neg_atom "Fly")));
  Format.printf "Fly+(tweety) does not:     %b  (the KB is not trivial)@."
    (Reasoner.instance_of r "tweety" (Concept.Atom (Mangle.pos_atom "Fly")));

  (* Contrast the three inclusion strengths on the same default: with a
     strong inclusion Bird -> Fly, penguins could not be birds at all. *)
  Format.printf
    "@.Ablation: replace the material default by internal/strong inclusion@.";
  List.iter
    (fun kind ->
      let kb =
        { Paper_examples.example3 with
          Kb4.tbox =
            Kb4.Concept_inclusion
              ( kind,
                Concept.And
                  ( Concept.Atom "Bird",
                    Concept.Exists (Role.name "hasWing", Concept.Atom "Wing") ),
                Concept.Atom "Fly" )
            :: List.tl (Paper_examples.example3 : Kb4.t).tbox }
      in
      let t = Para.create kb in
      Format.printf "  %-8s: satisfiable %b, tweety:Fly = %a@."
        (Kb4.inclusion_symbol kind)
        (Para.satisfiable t)
        Truth.pp
        (Para.instance_truth t "tweety" (Concept.Atom "Fly")))
    Kb4.all_inclusions
