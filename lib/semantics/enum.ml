open Interp

let rec subsets = function
  | [] -> Seq.return []
  | x :: rest ->
      Seq.concat_map
        (fun s -> List.to_seq [ s; x :: s ])
        (subsets rest)

(* All assignments of one value drawn from [choices k] to every key. *)
let rec assignments keys choices =
  match keys with
  | [] -> Seq.return []
  | k :: rest ->
      Seq.concat_map
        (fun tail -> Seq.map (fun v -> (k, v) :: tail) (choices k))
        (assignments rest choices)

let pinned_domain ~(signature : Axiom.signature) ~extra =
  let n = List.length signature.individuals + extra in
  let n = max n 1 in
  let elements = List.init n (fun i -> i) in
  let individuals = List.mapi (fun i a -> (a, i)) signature.individuals in
  (elements, individuals)

let interps4 ~(signature : Axiom.signature) ?(extra = 0) ?(data_domain = []) () =
  let elements, individuals = pinned_domain ~signature ~extra in
  let pairs = List.concat_map (fun x -> List.map (fun y -> (x, y)) elements) elements in
  let data_pairs =
    List.concat_map (fun x -> List.map (fun v -> (x, v)) data_domain) elements
  in
  let cexts _ =
    Seq.concat_map
      (fun pos -> Seq.map (fun neg -> (pos, neg)) (subsets elements))
      (subsets elements)
  in
  let rexts _ =
    Seq.concat_map
      (fun pos -> Seq.map (fun neg -> (pos, neg)) (subsets pairs))
      (subsets pairs)
  in
  let dexts _ =
    Seq.concat_map
      (fun pos -> Seq.map (fun neg -> (pos, neg)) (subsets data_pairs))
      (subsets data_pairs)
  in
  Seq.concat_map
    (fun concept_assign ->
      Seq.concat_map
        (fun role_assign ->
          Seq.map
            (fun data_assign ->
              Interp4.make
                ~domain:(ESet.of_list elements)
                ~data_domain
                ~concepts:
                  (List.map (fun (a, (p, n)) -> (a, p, n)) concept_assign)
                ~roles:(List.map (fun (r, (p, n)) -> (r, p, n)) role_assign)
                ~data_roles:
                  (List.map (fun (u, (p, n)) -> (u, p, n)) data_assign)
                ~individuals ())
            (assignments signature.data_roles dexts))
        (assignments signature.roles rexts))
    (assignments signature.concepts cexts)

let interps4_space ~(signature : Axiom.signature) ?(extra = 0)
    ?(data_domain = []) () =
  let elements, _ = pinned_domain ~signature ~extra in
  let n = List.length elements in
  (List.length signature.concepts * n)
  + (List.length signature.roles * n * n)
  + (List.length signature.data_roles * n * List.length data_domain)

let interps2 ~(signature : Axiom.signature) ?(extra = 0) ?(data_domain = []) () =
  let elements, individuals = pinned_domain ~signature ~extra in
  let pairs = List.concat_map (fun x -> List.map (fun y -> (x, y)) elements) elements in
  let data_pairs =
    List.concat_map (fun x -> List.map (fun v -> (x, v)) data_domain) elements
  in
  let cexts _ = subsets elements in
  let rexts _ = subsets pairs in
  let dexts _ = subsets data_pairs in
  Seq.concat_map
    (fun concept_assign ->
      Seq.concat_map
        (fun role_assign ->
          Seq.map
            (fun data_assign ->
              Interp.make
                ~domain:(ESet.of_list elements)
                ~data_domain ~concepts:concept_assign ~roles:role_assign
                ~data_roles:data_assign ~individuals ())
            (assignments signature.data_roles dexts))
        (assignments signature.roles rexts))
    (assignments signature.concepts cexts)

let kb_data_values abox =
  List.filter_map
    (function Axiom.Data_assertion (_, _, v) -> Some v | _ -> None)
    abox
  |> List.sort_uniq Datatype.compare_value

let models4 ?(extra = 0) (kb : Kb4.t) =
  let signature = Kb4.signature kb in
  let data_domain = kb_data_values kb.abox in
  Seq.filter
    (fun i -> Interp4.is_model i kb)
    (interps4 ~signature ~extra ~data_domain ())

let models2 ?(extra = 0) (kb : Axiom.kb) =
  let signature = Axiom.signature kb in
  let data_domain = kb_data_values kb.abox in
  Seq.filter
    (fun i -> Interp.is_model i kb)
    (interps2 ~signature ~extra ~data_domain ())

let for_all_models4 ?(extra = 0) kb p = Seq.for_all p (models4 ~extra kb)
let exists_model4 ?(extra = 0) kb = not (Seq.is_empty (models4 ~extra kb))
let exists_model2 ?(extra = 0) kb = not (Seq.is_empty (models2 ~extra kb))
