(** The matching algorithm of the coordination component.

    On arrival of a query [seed], the matcher searches for a {b match}: a
    group [G] of queries (the seed plus zero or more pending partners) and a
    ground substitution such that

    + every query's database atoms are satisfied in the current database,
    + every scalar predicate of every group member holds,
    + every answer constraint of every member is satisfied — by an existing
      answer-relation tuple, or by a head contributed by a member of [G],
    + every member's head(s) are fully ground.

    The search is backtracking over a frontier of unsatisfied answer
    constraints; candidate suppliers are tried in order: existing answer
    tuples, heads of queries already in the group, then pending partners
    retrieved through the head index of {!Pending}.  Joining a partner
    grounds its database atoms immediately and pushes its own answer
    constraints onto the frontier, so coordination chains are found
    naturally.

    Before any grounding, every answer constraint of the seed must have a
    {i supplier} — a head of the seed, a head of a pending query, or an
    existing answer tuple unifying with it under the empty substitution.
    A seed failing this has no match (unification only gets stricter as
    the substitution grows), so the attempt ends without running a
    sub-plan and counts in {!Stats.t.unsupplied}.

    The search is budgeted ([max_steps]) and the group size capped
    ([max_group]); exhausting either aborts the attempt as "no match for
    now" — the seed stays pending and will be retried, preserving the
    paper's semantics ("a query whose postcondition is not satisfied is not
    rejected but waits for an opportunity to retry"). *)

open Relational

type config = {
  max_group : int;  (** maximum queries fulfilled in one match *)
  max_steps : int;  (** search-step budget per match attempt *)
  trace : bool;  (** record a human-readable search trace *)
}

val default_config : config

type success = {
  group : Equery.t list;  (** seed first, partners in join order *)
  subst : Subst.t;
  contributions : (Equery.t * (string * Tuple.t) list) list;
      (** per group member: its ground head tuples *)
  new_tuples : (string * Tuple.t) list;
      (** deduplicated tuples to insert into answer relations *)
  trace : string list;
}

val find :
  cat:Catalog.t ->
  answers:Answers.t ->
  pending:Pending.t ->
  config:config ->
  stats:Stats.t ->
  Equery.t ->
  success option
(** One match attempt seeded by the given query.  Pure with respect to the
    database and the pending store — fulfilment is the coordinator's job —
    so the admin interface can dry-run it for any pending query. *)
