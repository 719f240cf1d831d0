(* Quickstart: build a SHOIN(D)4 knowledge base, reason with it despite a
   contradiction, and inspect the classical reduction.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* A knowledge base can be written in the surface syntax... *)
  let kb =
    Surface.parse_kb4_exn
      {|
      # Employees are people; contractors are not employees.
      Employee < Person.
      Contractor < ~Employee.

      # Our database ended up saying both things about dana.
      dana : Employee.
      dana : Contractor.
      eve : Employee.
      |}
  in

  (* ...or programmatically with the constructors in Concept / Kb4 /
     Owl_vocab.  [Para.create] transforms the KB (Definitions 5-7 of the
     paper) and wraps a classical tableau reasoner around the result. *)
  let t = Para.create kb in

  Format.printf "four-valued satisfiable: %b@.@." (Para.satisfiable t);

  (* Instance queries return Belnap values: t, f, TOP (contradictory
     information) or BOT (no information). *)
  let ask ind concept =
    let c = Surface.parse_concept_exn concept in
    Format.printf "%-24s = %a@." (ind ^ " : " ^ concept)
      Truth.pp
      (Para.instance_truth t ind c)
  in
  ask "dana" "Employee";   (* TOP — the contradiction, localized *)
  ask "dana" "Person";     (* t — still derivable *)
  ask "eve" "Employee";    (* t — untouched by dana's conflict *)
  ask "eve" "Contractor";  (* BOT — nothing known *)

  (* The same KB read classically is trivial: *)
  let classical =
    Surface.parse_kb_exn
      {|
      Employee << Person.
      Contractor << ~Employee.
      dana : Employee.
      dana : Contractor.
      eve : Employee.
      |}
  in
  let r = Reasoner.create classical in
  Format.printf "@.classically consistent: %b@." (Reasoner.is_consistent r);
  Format.printf "classically, eve is a Contractor (!): %b@."
    (Reasoner.instance_of r "eve" (Concept.Atom "Contractor"));

  (* Under the hood: the classical induced KB of Definition 7. *)
  Format.printf "@.induced classical KB:@.%s"
    (Surface.kb_to_string (Session.classical_kb t))
