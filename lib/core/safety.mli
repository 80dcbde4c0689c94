(** Static admission checks for entangled queries.

    A query that passes is {i safe to coordinate}: its joint evaluation with
    other admitted queries is well-defined.  Mirrors the role of the static
    analysis in the companion technical paper: ill-formed queries are
    rejected with a diagnostic instead of waiting forever.

    Checks:
    - every answer relation mentioned (heads and constraints) is declared,
      with matching arity;
    - constant head arguments type-check against the answer schema;
    - CHOOSE k with k ≥ 1;
    - database atoms bind as many terms as their sub-plan produces columns;
    - range restriction: every variable occurring in a head or predicate is
      {i reachable} — bound by a database atom, pinned by an [x = const]
      conjunct, or constrained through an answer atom (and hence groundable
      by a partner's contribution). *)

type verdict = Safe | Unsafe of string

val check : Answers.t -> Equery.t -> verdict

(** {1 Workload analysis}

    Which queries of a workload — the pending store, or the query shapes an
    application submits — can supply which answer constraints.  A
    constraint {i can be supplied} by a query when it unifies with one of
    that query's heads (possibly the constraining query's own).  A
    constraint no query can supply strands its query in the pending store
    unless an existing answer tuple meets it.  The admin interface reports
    these; deploy-time checks of an application's query shapes ask that
    there are none.  Nothing about the database is consulted, so an edge
    means "may coordinate", never "will". *)

type analysis = {
  edges : (Equery.t * Equery.t) list;
      (** [(consumer, supplier)], once per pair, in workload order: some
          answer constraint of [consumer] unifies with a head of
          [supplier] *)
  unsupplied : (Equery.t * Atom.t) list;
      (** each answer constraint that unifies with no head of the workload,
          with its query *)
  components : Equery.t list list;
      (** connected components of the undirected supply graph, each in
          workload order: the queries whose instances may end up in one
          match group.  A query with no constraints that supplies nobody is
          a component of its own. *)
}

val analyse : Equery.t list -> analysis
(** Queries in the result are the caller's own values, so [==] identifies
    them. *)
