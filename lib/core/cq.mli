(** Grounded conjunctive queries over a [SHOIN(D)4] knowledge base.

    A query is a conjunction of concept and role atoms over variables and
    individuals, e.g. [Q(x) ← Doctor(x) ∧ hasPatient(x, y)].  Semantics is
    {e grounded}: variables range over the named individuals of the KB (no
    existential unnamed witnesses), which is the usual pragmatic regime for
    instance retrieval front-ends.

    Answers are four-valued: the value of a grounded body is the ≤t-meet of
    its atoms' Belnap values (so one contradictory atom taints the tuple to
    ⊤, one denied atom makes it f).  [answers] returns the tuples whose
    value is designated (t or ⊤), most certain first.

    Every atom evaluation routes through the {!Para} oracle.  Since this
    PR the production path is an explicit compile → plan → execute
    pipeline: {!compile} builds a cost-ordered {!Plan.t} from told
    statistics and the session's observed verdict costs, {!run} executes
    it with an adaptive join strategy, and {!explain} renders the plan as
    a stable, JSON-serializable description.  {!answers} and
    {!all_bindings} remain as thin wrappers; the [_naive] variants are
    kept as differential-testing references — same answers, more oracle
    traffic. *)

type term =
  | Var of string
  | Ind of string

type atom =
  | Concept_atom of Concept.t * term
  | Role_atom of Role.t * term * term
  | Exact of Truth.t list * atom
      (** Exact-truth-value selector (Bienvenu, Bourgaux & Kozhemiachenko
          2024): [Exact (vs, a)] evaluates the inner atom and maps its
          Belnap value through the characteristic function of [vs] — [t]
          when the value is {e exactly} one of [vs], [f] otherwise.  The
          result is classical (two-valued), so selector atoms compose with
          conjunction and ride the designated-answer surface — e.g.
          [Exact ([Both], Concept_atom (c, Var "x"))] retrieves the
          exactly-contradictory individuals of [c] through {!answers}. *)

type t = {
  head : string list;  (** distinguished variables, in answer-tuple order *)
  body : atom list;
}

val make : head:string list -> body:atom list -> t
(** @raise Invalid_argument if a head variable does not occur in the body. *)

val variables : t -> string list
(** All variables of the body (sorted). *)

val parse : string -> (t, string) result
(** Surface syntax: [?x, ?y <- Doctor(?x), hasPatient(?x, ?y)].
    [?]-prefixed terms are variables, bare terms individuals; concept
    prefixes use the full {!Surface} concept grammar; a role atom takes
    two arguments and accepts the [r^-] inverse spelling.  Without a
    [<-] the whole string is the body and every variable is projected
    (sorted).  An atom may carry an exact-value selector suffix —
    [Doctor(?x)=B] or [hasPatient(?x, ?y)={B,N}] — parsed to {!Exact}
    (value names as in {!Truth.of_string}; braces keep multi-value sets
    intact through the comma split). *)

val to_string : t -> string
(** Printable form, re-parsable by {!parse}. *)

val truth_of_binding : Para.t -> t -> (string * string) list -> Truth.t
(** The Belnap value of the body under a complete variable binding.
    Short-circuits: atoms after the running meet hits [f] are not
    evaluated (sound because [f] is absorbing for {!Truth.conj}). *)

val truth_of_binding_naive : Para.t -> t -> (string * string) list -> Truth.t
(** The full fold over every atom — no short-circuit.  Same value as
    {!truth_of_binding}. *)

(** The first-class query plan: an explainable artifact between parsing
    and execution. *)
module Plan : sig
  type strategy = Nested_loop | Hash_join

  val strategy_name : strategy -> string
  (** ["nested_loop"] / ["hash_join"] — the spelling used by plan JSON
      and telemetry. *)

  val strategy_of_name : string -> strategy option
  (** Accepts ["nested"]/["nested_loop"] and ["hash"]/["hash_join"]. *)

  type plan
  (** A compiled query bound to its {!Para.t}.  Mutable: executing it
      records per-step actual cardinalities, probe counts and the
      strategies picked, which {!explain} then reports. *)

  (** Read-side views — the stable, JSON-renderable plan description. *)

  type step_view = {
    sv_atom : string;  (** printable atom *)
    sv_kind : string;  (** ["concept"] or ["role"] *)
    sv_binds : string list;  (** variables first bound at this step *)
    sv_filter : bool;  (** true when all variables were already bound *)
    sv_est_rows : int;  (** compile-time output-cardinality estimate *)
    sv_est_cost_ns : float;  (** observed avg cost of one atom probe *)
    sv_strategy : string option;
        (** after execution: ["nested_loop"], ["hash_join"] or
            ["filter"]; [None] before execution *)
    sv_actual_rows : int option;  (** binding-set size after this step *)
    sv_probes : int option;  (** atom evaluations paid at this step *)
  }

  type view = {
    v_query : string;
    v_vars : string list;  (** binding order chosen by the planner *)
    v_individuals : int;
    v_threshold : int;  (** hash-join cardinality threshold *)
    v_forced : string option;  (** strategy override, if any *)
    v_order : string;  (** ["cost"] or ["syntactic"] *)
    v_executed : bool;
    v_steps : step_view list;
  }
end

type plan = Plan.plan

val compile :
  ?threshold:int ->
  ?force:Plan.strategy ->
  ?order:[ `Cost | `Syntactic ] ->
  Para.t ->
  t ->
  plan
(** Compile a cost-based plan.  Per-atom selectivity is estimated from
    told information (ABox assertions closed under told subsumption —
    upgraded to the classification index when one has already been
    built; compiling never triggers a build — and told role-edge
    fan-out) and per-verdict-kind observed costs from the session's
    cost records; atoms are ordered greedily cheapest-first so the most
    selective variables bind early.  [threshold] is the binding-set
    cardinality at which extension steps switch from nested-loop to
    hash-join (default 8); [force] pins every extension step to one
    strategy; [order:`Syntactic] keeps body order — the bench
    baseline.  Compiling performs no oracle probes. *)

val run : plan -> (string list * Truth.t) list
(** Execute the plan and return designated answer tuples (projected to
    [head]), deduplicated, tuples valued [t] before ⊤ — the same list,
    byte for byte, as {!answers_naive}, under every atom order and join
    strategy.  Join strategy per extension step is decided at run time
    from the {e actual} intermediate binding-set cardinality, so a
    mis-estimated plan degrades in speed, never in correctness.  A plan
    may be run repeatedly; each run overwrites the recorded actuals. *)

val run_bindings : plan -> ((string * string) list * Truth.t) list
(** Execute without pruning and return every complete binding with its
    value — including [f] and ⊥ ones.  Same contents and order as
    {!all_bindings_naive}. *)

val run_exactly : plan -> values:Truth.t list -> (string list * Truth.t) list
(** Execute the plan {e without pruning} (selecting [f] or ⊥ tuples means
    keeping exactly the rows pruning drops) and return the projected
    tuples whose body value is exactly one of [values], deduplicated by
    (tuple, value) pair, ≤t-stronger values first — byte-identical to
    {!answers_exactly_naive} under every atom order, join strategy and
    backend. *)

val explain : plan -> Plan.view
(** The stable plan description; includes per-step actuals once the plan
    has been executed. *)

val explain_json : plan -> string
(** {!explain} printed by {!Json_lite} on one line (schema tag
    ["dl4-plan/1"]). *)

val strategy_counts : plan -> (string * int) list
(** Strategy picks recorded by the last execution, as
    [("hash_join", n); ("nested_loop", m)] with zero entries omitted —
    the shape fed to the serve telemetry registry. *)

val answers : Para.t -> t -> (string list * Truth.t) list
(** Designated answer tuples (projected to [head]), deduplicated, with
    tuples valued [t] before tuples valued ⊤.  Thin wrapper:
    [run (compile para q)]. *)

val all_bindings : Para.t -> t -> ((string * string) list * Truth.t) list
(** Every complete binding with its value — including [f] and ⊥ ones; for
    diagnosis and tests.  Thin wrapper: [run_bindings (compile para q)]. *)

val answers_exactly :
  Para.t -> values:Truth.t list -> t -> (string list * Truth.t) list
(** Exact-value answers ([dl4 query --cq ... --exactly]): the tuples whose
    body value is exactly one of [values].  Thin wrapper:
    [run_exactly (compile para q) ~values]. *)

val answers_exactly_naive :
  Para.t -> values:Truth.t list -> t -> (string list * Truth.t) list
(** Exact-value answers via the unpruned cross product — the ground-truth
    differential reference for {!answers_exactly}. *)

val answers_naive : Para.t -> t -> (string list * Truth.t) list
(** Answers via the unpruned cross product — the ground-truth
    differential reference. *)

val all_bindings_naive :
  Para.t -> t -> ((string * string) list * Truth.t) list
(** The original cross-product enumeration, one full
    {!truth_of_binding_naive} per binding.  Same contents as
    {!all_bindings}, in the same order. *)
