type query =
  | Consistent
  | Concept_sat of Concept.t
  | Instance of string * Concept.t
  | Not_instance of string * Concept.t
  | Role_pos of string * Role.t * string
  | Role_neg of string * Role.t * string

let query_kind = function
  | Consistent -> "consistent"
  | Concept_sat _ -> "concept_sat"
  | Instance _ -> "instance"
  | Not_instance _ -> "not_instance"
  | Role_pos _ -> "role_pos"
  | Role_neg _ -> "role_neg"

let query_to_string = function
  | Consistent -> "consistent?"
  | Concept_sat c -> "sat? " ^ Concept.to_string c
  | Instance (a, c) -> a ^ " : " ^ Concept.to_string c
  | Not_instance (a, c) -> a ^ " : not " ^ Concept.to_string c
  | Role_pos (a, r, b) -> Role.to_string r ^ "(" ^ a ^ ", " ^ b ^ ")"
  | Role_neg (a, r, b) -> "not " ^ Role.to_string r ^ "(" ^ a ^ ", " ^ b ^ ")"

type choice = Auto | Tableau | Horn

let choice_of_string = function
  | "auto" -> Ok Auto
  | "tableau" -> Ok Tableau
  | "horn" -> Ok Horn
  | s -> Error (Printf.sprintf "unknown backend %S (expected auto|tableau|horn)" s)

let choice_to_string = function
  | Auto -> "auto"
  | Tableau -> "tableau"
  | Horn -> "horn"

exception Unsupported of string
